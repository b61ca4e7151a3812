// The engine phase: the paper's tool ("GraphBLAS Incremental", 1 thread)
// on Q1 and Q2 over the workload's change-set stream, driven through
// harness::make_engine and Engine::load/initial/update only.
//
// Untraced pass (--trace 0): end-to-end metrics. The stream is replayed in
// whole rounds (fresh engines each round) until --seconds have passed and
// at least kMinRounds ran; each change set's time is the least over its
// rounds, and every engine answer of the first round is kept for the
// reference check.
//
// Traced pass (--trace 1): per-layer metrics. Beside each engine runs a
// replica that calls the same public queries:: layer functions in the
// order GrbIncrementalEngine::update calls them, timing each; its answers
// must be byte-identical to the engine's, and its layer total is compared
// with the engine's own update() time on the same change set. A plain
// replica making the same calls untimed gives trace.overhead.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// answers[q][e]: the answer at epoch e (0 = initial), q = 0 Q1, 1 Q2.
using Answers = std::array<std::vector<std::string>, 2>;

/// What the reference check needs from an engine pass (first round).
struct EngineTrace {
  Answers answers;
  /// Σ of the maintained Q1 scores at each epoch.
  std::vector<std::uint64_t> q1_sum;
  /// The 3rd best maintained score at each epoch (0 with < 3 nonzero).
  std::vector<std::uint64_t> kth[2];
  /// Full (id, score) tables of the maintained scores at sampled epochs.
  struct Table {
    std::size_t epoch = 0;
    std::vector<std::pair<sm::NodeId, std::uint64_t>> entries;
  };
  std::vector<Table> tables[2];
};

/// Untraced pass over the first w.engine_sets change sets, in whole rounds
/// until `seconds` of rounds have passed and at least kMinRounds ran;
/// `between_rounds` runs after each round, outside the timing. Fills the
/// engine's end-to-end metrics; setup_s runs from `t_spawn_ns`, this
/// process's spawn instant, to the first change set submitted.
EngineTrace run_engine_pass(const Workload& w, const datagen::Dataset& ds,
                            const std::set<std::size_t>& sampled,
                            double seconds, std::int64_t t_spawn_ns,
                            const std::function<void()>& between_rounds,
                            Result& r);

/// Traced pass (one round): engine and replica side by side. Fills the
/// per-layer metrics into `r` and fails it when the replica's answers
/// differ from the engine's or the coverage leaves its tolerance.
EngineTrace run_traced_pass(const Workload& w, const datagen::Dataset& ds,
                            const std::set<std::size_t>& sampled, Result& r);

/// Replays the whole stream through the independent reference and checks
/// the engine's answers at every epoch it ran plus the properties; returns
/// the reference answers at every epoch for the serving-phase check.
Answers check_against_reference(const Workload& w, const datagen::Dataset& ds,
                                const EngineTrace& t, Result& r);

/// Reference figures: NMF Incremental on the same stream (update p50/p99
/// per query), for the README's GraphBLAS/NMF ratio.
void run_nmf_figures(const Workload& w, const datagen::Dataset& ds,
                     Result& r);

/// Rounds of the untraced pass at least, so that a change set timed while
/// the host was busy has two more chances to be timed at its own cost.
inline constexpr std::size_t kMinRounds = 3;

/// Lower and upper tolerance of trace.coverage (README "Traced pass").
inline constexpr double kCoverageLo = 0.85;
inline constexpr double kCoverageHi = 1.15;

}  // namespace perfbench
