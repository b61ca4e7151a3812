// perfbench_driver: one run of one benchmark workload (see ../README.md):
// the engine phase (the paper's tool in-process) with the serving phase
// (grb_daemon) in stretches between its rounds, then the independent
// reference check of every answer.
//
//   perfbench_driver --workload=paper-insert --seed=1 --seconds=12 --trace=0
//                    --daemon=PATH --socket=PATH --t-spawn-ns=N
//   perfbench_driver --workload=paper-insert --seed=1 --nmf
//
// Prints every metric it measured as one JSON line on stdout (run.py keeps
// the ones BENCHMARK.json lists for the mode) and exits 1 when any check of
// the program's outputs failed.
#include <cstdio>
#include <random>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "daemon_workload.hpp"
#include "engine_workload.hpp"
#include "grb/context.hpp"
#include "support/flags.hpp"

namespace perfbench {

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> kWorkloads = [] {
    Workload insert;
    insert.name = "paper-insert";
    Workload churn = insert;
    churn.name = "removal-churn";
    churn.frac_removals = 0.3;
    return std::vector<Workload>{insert, churn};
  }();
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

/// Epoch 0, the last epoch and 14 seeded epochs in between: where the full
/// score tables are compared with the reference.
std::set<std::size_t> sample_epochs(std::size_t last, std::uint64_t seed) {
  std::set<std::size_t> s = {0, last};
  std::mt19937_64 rng(seed ^ 0x5eed5eedULL);
  while (s.size() < std::min<std::size_t>(16, last + 1)) {
    s.insert(1 + rng() % last);
  }
  return s;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  grbsm::support::Flags flags(argc, argv);
  const std::string name = flags.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", -1.0);
  const bool traced = flags.get_int("trace", 0) != 0;
  const bool nmf = flags.get_bool("nmf", false);
  const std::string daemon_path = flags.get("daemon", "");
  const std::string socket_path = flags.get("socket", "");
  const std::int64_t t_spawn = flags.get_int("t-spawn-ns", now_ns());
  flags.reject_unqueried("perfbench_driver");
  const Workload* w = find_workload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 name.c_str());
    return 2;
  }
  // The paper's tool configuration: one thread per grb kernel call.
  grb::set_threads(1);

  Result r;
  try {
    const datagen::Dataset ds = datagen::generate(dataset_params(*w, seed));
    std::fprintf(stderr, "perfbench: inputs generated %.3f s after spawn\n",
                 ms_between(t_spawn, now_ns()) * 1e-3);
    if (nmf) {
      run_nmf_figures(*w, ds, r);
      print_result(r);
      return 0;
    }
    if (daemon_path.empty() || socket_path.empty() || seconds < 0) {
      throw std::runtime_error("--daemon, --socket and --seconds are required");
    }
    const std::set<std::size_t> sampled =
        sample_epochs(std::min(w->engine_sets, ds.changes.size()), seed);
    // Untraced, the serving phase's stretches run between the engine
    // rounds; traced, after the traced pass.
    ServingPhase serving(*w, seed, ds, daemon_path, socket_path, r);
    const EngineTrace t =
        traced ? run_traced_pass(*w, ds, sampled, r)
               : run_engine_pass(*w, ds, sampled, seconds, t_spawn,
                                 [&] { serving.next_stretch(); }, r);
    const std::vector<Served> served = serving.finish();
    const Answers want = check_against_reference(*w, ds, t, r);
    check_served(served, want, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  print_result(r);
  return r.correct ? 0 : 1;
}
