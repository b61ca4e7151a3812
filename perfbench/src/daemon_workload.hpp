// The serving phase: grb_daemon as a separate process over a Unix socket,
// driven over its wire protocol only. kDaemons daemons run one after
// another, one per stretch between the engine phase's rounds, each on the
// same stream:
//
//   1. spawn → snapshot 0 served            (daemon.setup_s, to step 2)
//   2. burst: the first burst_sets change sets back-to-back, timed until
//      each 100th epoch is published        (daemon.burst_cs_per_s)
//   3. paced: the next paced_sets at paced_rate, open loop; each change set
//      is timed from its due time to its epoch being readable, and its
//      time is the least over the daemons   (publish_p*_ms)
//
// Through steps 2 and 3, `readers` open-loop readers each issue read_rate
// Q1/Q2 reads per second, half for the latest epoch and half pinned
// 1..max_trail epochs behind the newest they have seen (daemon.read_p*_ms,
// timed from the due time). Every answer served is checked against the
// reference at its epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine_workload.hpp"

namespace perfbench {

/// One answer the daemon served, kept for the reference check.
struct Served {
  std::uint8_t which = 0;  ///< grbd::kQueryQ1 / kQueryQ2
  std::uint64_t epoch = 0;
  std::string answer;
  const char* what = "";   ///< which part of the phase read it
};

/// The serving phase with the daemon binary at `daemon_path`, listening on
/// `socket_path` (relative to the working directory). Each stretch spawns,
/// drives and shuts down one daemon; one still running when a stretch
/// throws is killed and reaped.
class ServingPhase {
 public:
  ServingPhase(const Workload& w, std::uint64_t seed,
               const datagen::Dataset& ds, const std::string& daemon_path,
               const std::string& socket_path, Result& r);
  ~ServingPhase();
  ServingPhase(const ServingPhase&) = delete;
  ServingPhase& operator=(const ServingPhase&) = delete;

  /// Runs the next daemon's stretch; nothing once every one has run.
  void next_stretch();

  /// Runs the stretches left, shuts the daemon down, fills the phase's
  /// end-to-end and per-layer metrics into `r` and returns every answer
  /// served.
  std::vector<Served> finish();

 private:
  struct State;
  std::unique_ptr<State> s_;
};

/// Checks every served answer against the reference at its epoch.
void check_served(const std::vector<Served>& served, const Answers& want,
                  Result& r);

}  // namespace perfbench
