// perfbench_selftest: the benchmark's own test (`python3 perfbench/run.py
// --selftest`). Shows that the independent reference reproduces the paper's
// worked example (tests/paper_example.hpp, read-only), that it agrees with
// the engine on a small removal-bearing stream, and that every check the
// benchmark runs fails when an engine output is deliberately altered.
#include <cstdio>
#include <set>
#include <string>

#include "engine_workload.hpp"
#include "grb/context.hpp"
#include "paper_example.hpp"
#include "reference.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void paper_example_reference() {
  namespace px = paper_example;
  perfbench::Reference ref(px::initial_graph());
  expect(ref.q1_answer() == px::kQ1Initial, "reference Q1 initial answer");
  expect(ref.q2_answer() == px::kQ2Initial, "reference Q2 initial answer");
  expect(ref.q1_score(px::kP1) == 25u && ref.q1_score(px::kP2) == 10u,
         "reference Q1 initial scores p1=25 p2=10");
  expect(ref.q2_score(px::kC1) == 4u && ref.q2_score(px::kC2) == 5u &&
             ref.q2_score(px::kC3) == 0u,
         "reference Q2 initial scores c1=4 c2=5 c3=0");
  ref.apply(px::update_change_set());
  expect(ref.q1_answer() == px::kQ1Updated, "reference Q1 updated answer");
  expect(ref.q2_answer() == px::kQ2Updated, "reference Q2 updated answer");
  expect(ref.q1_score(px::kP1) == 37u, "reference Q1 updated score p1=37");
  expect(ref.q2_score(px::kC2) == 16u && ref.q2_score(px::kC4) == 1u,
         "reference Q2 updated scores c2=16 c4=1");
  expect(ref.live_likes() == 7 && ref.num_comments() == 4,
         "reference counts 7 live likes on 4 comments");

  // Removals: u1-u4 unfriended splits c2's component again.
  sm::ChangeSet rm;
  rm.ops.push_back(sm::RemoveFriendship{px::kU1, px::kU4});
  rm.ops.push_back(sm::RemoveLikes{px::kU4, px::kC4});
  ref.apply(rm);
  // c2's likers {u1,u2,u3,u4}: u2-u3-u4 connected, u1 alone -> 9 + 1.
  expect(ref.q2_score(px::kC2) == 10u && ref.q2_score(px::kC4) == 0u,
         "reference Q2 after removals c2=10 c4=0");
  expect(ref.q1_score(px::kP1) == 36u, "reference Q1 after removals p1=36");
}

void answer_shape() {
  expect(perfbench::answer_shape_ok("1|2", 2), "shape: 2 ids for 2 entities");
  expect(perfbench::answer_shape_ok("7|3|9", 50), "shape: 3 ids for 50");
  expect(!perfbench::answer_shape_ok("1|2", 50), "shape: 2 ids for 50 fails");
  expect(!perfbench::answer_shape_ok("4|4|5", 50), "shape: repeated id fails");
  expect(!perfbench::answer_shape_ok("4||5", 50), "shape: empty id fails");
  expect(perfbench::first_mismatch("Q2", {"12|11|13"}, {"12|11|13"}).empty(),
         "mismatch: equal sequences pass");
  expect(!perfbench::first_mismatch("Q2", {"12|11|13"}, {"12|13|11"}).empty(),
         "mismatch: an altered answer is reported");
}

/// The full check of a run, on a small removal-bearing stream: it passes
/// on the engine's real outputs and fails on each kind of alteration.
void stream_checks(double frac_removals) {
  perfbench::Workload w;
  w.name = "selftest";
  w.scale_factor = 1;
  w.change_sets = 60;
  w.elements_per_set = 9;
  w.frac_removals = frac_removals;
  const datagen::Dataset ds =
      datagen::generate(perfbench::dataset_params(w, 3));
  const std::set<std::size_t> sampled = {0, 17, 60};
  perfbench::Result run;
  const perfbench::EngineTrace t = perfbench::run_engine_pass(
      w, ds, sampled, 0.0, perfbench::now_ns(), [] {}, run);
  const std::string tag =
      frac_removals > 0 ? " (removal stream)" : " (insert-only stream)";

  perfbench::Result clean;
  const perfbench::Answers want =
      perfbench::check_against_reference(w, ds, t, clean);
  expect(run.correct && clean.correct, "engine passes every check" + tag);
  expect(want[0].size() == 61 && want[1].size() == 61,
         "reference answers at every epoch" + tag);

  const auto fails_when = [&](const std::string& what, auto alter) {
    perfbench::EngineTrace bad = t;
    alter(bad);
    perfbench::Result r;
    (void)perfbench::check_against_reference(w, ds, bad, r);
    expect(!r.correct, "check fails on " + what + tag);
  };
  fails_when("an altered Q2 answer", [](perfbench::EngineTrace& b) {
    b.answers[1][30] = b.answers[1][29] == b.answers[1][30]
                           ? b.answers[0][30]
                           : b.answers[1][29];
  });
  fails_when("a swapped Q1 answer order", [](perfbench::EngineTrace& b) {
    std::string& a = b.answers[0][60];
    const std::size_t bar = a.find('|');
    a = a.substr(bar + 1) + "|" + a.substr(0, bar);
  });
  fails_when("a Q1 score sum off by one", [](perfbench::EngineTrace& b) {
    b.q1_sum[12] += 1;
  });
  fails_when("one wrong Q2 score", [](perfbench::EngineTrace& b) {
    b.tables[1][1].entries[5].second += 1;
  });
  if (frac_removals == 0.0) {
    fails_when("a decreasing 3rd best score", [](perfbench::EngineTrace& b) {
      b.kth[0][40] = b.kth[0][39] + 100;
    });
  }
}

}  // namespace

int main() {
  grb::set_threads(1);
  paper_example_reference();
  answer_shape();
  stream_checks(0.0);
  stream_checks(0.3);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
