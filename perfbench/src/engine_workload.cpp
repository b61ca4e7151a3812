#include "engine_workload.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "grb/context.hpp"
#include "harness/registry.hpp"
#include "queries/engines.hpp"
#include "queries/q1.hpp"
#include "queries/q2.hpp"
#include "queries/top_k.hpp"
#include "reference.hpp"
#include "speed_probe.hpp"

namespace perfbench {

namespace {

using harness::Query;
using queries::Index;
using U64 = std::uint64_t;

constexpr Query kQueries[2] = {Query::kQ1, Query::kQ2};

/// The paper's tool for one query, with typed access to its maintained
/// scores for the property checks.
struct Tool {
  harness::EnginePtr engine;
  queries::GrbIncrementalEngine* grb = nullptr;

  explicit Tool(Query q) : engine(harness::make_engine("grb-incremental", q)) {
    grb = dynamic_cast<queries::GrbIncrementalEngine*>(engine.get());
    if (grb == nullptr) {
      throw std::logic_error("grb-incremental is not a GrbIncrementalEngine");
    }
  }
};

/// Records what the checks need at one epoch — outside every timed call.
void probe(const Tool& t, int q, std::size_t epoch, std::string answer,
           const std::set<std::size_t>& sampled, EngineTrace& out) {
  out.answers[q].push_back(std::move(answer));
  const grb::Vector<U64>& scores = t.grb->scores();
  const auto vals = scores.values();
  if (q == 0) {
    U64 total = 0;
    for (const U64 v : vals) total += v;
    out.q1_sum.push_back(total);
  }
  std::vector<U64> top(vals.begin(), vals.end());
  U64 kth = 0;
  if (top.size() >= 3) {
    std::nth_element(top.begin(), top.begin() + 2, top.end(),
                     std::greater<U64>());
    kth = top[2];
  }
  out.kth[q].push_back(kth);
  if (sampled.count(epoch) != 0) {
    const queries::GrbState& s = t.grb->state();
    EngineTrace::Table table;
    table.epoch = epoch;
    const Index n = q == 0 ? s.num_posts() : s.num_comments();
    table.entries.reserve(n);
    for (Index i = 0; i < n; ++i) {
      table.entries.emplace_back(q == 0 ? s.post_id(i) : s.comment_id(i),
                                 scores.at_or(i, 0));
    }
    out.tables[q].push_back(std::move(table));
  }
}

/// Loads and initially evaluates both queries; returns seconds taken.
double load_initial(Tool (&tools)[2], const sm::SocialGraph& g,
                    std::string (&answers)[2]) {
  const std::int64_t t0 = now_ns();
  for (int q = 0; q < 2; ++q) {
    tools[q].engine->load(g);
    answers[q] = tools[q].engine->initial();
  }
  return ms_between(t0, now_ns()) * 1e-3;
}

// --- the traced replica --------------------------------------------------------

/// Per-layer samples of a traced pass, in milliseconds unless noted.
struct Layers {
  std::vector<double> load, q1_batch, q2_batch;
  std::vector<double> apply, q1_delta, q2_affected, q2_rescore, top_k;
  std::vector<double> q1_changed, q2_affected_n, q2_changed;
  queries::PruneStats prune;
  U64 arena_misses = 0;
  U64 arena_bytes = 0;
};

/// Mirrors queries::GrbIncrementalEngine (src/queries/engines.cpp) through
/// the public layer functions, timing every stage.
class Replica {
 public:
  explicit Replica(Query q) : q_(q) {}

  std::string load_initial(const sm::SocialGraph& g, Layers& L) {
    std::int64_t t = now_ns();
    state_ = queries::GrbState::from_graph(g);
    L.load.push_back(lap(t));
    scores_ = q1() ? queries::q1_batch_scores(state_)
                   : queries::q2_batch_scores(state_);
    (q1() ? L.q1_batch : L.q2_batch).push_back(lap(t));
    const Index n = entities();
    bounds_.reset(n);
    pool_.clear();
    top_ = queries::TopK(3);
    queries::PruneStats stats;
    stats.pool_rebuilds = 1;
    const auto idx = scores_.indices();
    const auto val = scores_.values();
    std::size_t pos = 0;
    for (Index i = 0; i < n; ++i) {
      U64 v = 0;
      if (pos < idx.size() && idx[pos] == i) v = val[pos++];
      bounds_.raise(i, v);
      const queries::Ranked r = ranked_of(i, v);
      top_.offer_guarded(r);
      pool_.offer_guarded(i, r);
    }
    L.prune += stats;
    return top_.answer();
  }

  /// One change set through the layers. With `L` null (the plain replica
  /// that trace.overhead compares against) nothing is timed or counted.
  std::string update(const sm::ChangeSet& cs, Layers* L) {
    const grb::WorkspaceStats arena0 =
        L != nullptr ? grb::workspace_stats() : grb::WorkspaceStats{};
    std::int64_t t = L != nullptr ? now_ns() : 0;
    const auto mark = [&](std::vector<double> Layers::*layer) {
      if (L != nullptr) (L->*layer).push_back(lap(t));
    };
    queries::GrbDelta delta = state_.apply_change_set(cs);
    mark(&Layers::apply);
    grb::Vector<U64> changed;
    if (q1()) {
      changed = queries::q1_incremental_update(state_, delta, scores_);
      mark(&Layers::q1_delta);
      if (L != nullptr) {
        L->q1_changed.push_back(static_cast<double>(changed.nvals()));
      }
    } else {
      // q2_incremental_update, split at its two stages.
      const Index nc = state_.num_comments();
      scores_.resize(nc);
      const std::vector<Index> affected =
          queries::q2_affected_comments(state_, delta);
      mark(&Layers::q2_affected);
      std::vector<Index> changed_idx;
      std::vector<U64> changed_val;
      for (const Index c : affected) {
        const U64 v = queries::q2_comment_score(state_, c);
        if (scores_.at_or(c, 0) != v) {
          changed_idx.push_back(c);
          changed_val.push_back(v);
        }
      }
      changed = grb::Vector<U64>::adopt_sorted(nc, std::move(changed_idx),
                                               std::move(changed_val));
      grb::eWiseAdd(scores_, grb::Second<U64>{}, scores_, changed);
      mark(&Layers::q2_rescore);
      if (L != nullptr) {
        L->q2_affected_n.push_back(static_cast<double>(affected.size()));
        L->q2_changed.push_back(static_cast<double>(changed.nvals()));
      }
    }
    queries::PruneStats stats;
    std::string answer = rerank(delta, changed, stats);
    grb::recycle(std::move(changed));
    delta.recycle_storage();
    mark(&Layers::top_k);
    if (L != nullptr) {
      L->prune += stats;
      const grb::WorkspaceStats arena1 = grb::workspace_stats();
      L->arena_misses += arena1.misses - arena0.misses;
      L->arena_bytes += arena1.bytes_leased - arena0.bytes_leased;
    }
    return answer;
  }

  [[nodiscard]] const grb::Vector<U64>& scores() const { return scores_; }

 private:
  static double lap(std::int64_t& t) {
    const std::int64_t now = now_ns();
    const double ms = ms_between(t, now);
    t = now;
    return ms;
  }

  [[nodiscard]] bool q1() const { return q_ == Query::kQ1; }
  [[nodiscard]] Index entities() const {
    return q1() ? state_.num_posts() : state_.num_comments();
  }
  [[nodiscard]] queries::Ranked ranked_of(Index i, U64 score) const {
    return queries::Ranked{
        q1() ? state_.post_id(i) : state_.comment_id(i), score,
        q1() ? state_.post_timestamp(i) : state_.comment_timestamp(i)};
  }

  /// The engine's top-k step: fold the changed pairs into the pruning
  /// state, then merge (insert-only) or pruned re-rank (removals).
  std::string rerank(const queries::GrbDelta& delta,
                     const grb::Vector<U64>& changed,
                     queries::PruneStats& total) {
    const bool removals = delta.has_removals();
    bounds_.resize(entities());
    queries::PruneStats stats;
    const auto value_of = [&](Index i) { return scores_.at_or(i, 0); };
    const auto ci = changed.indices();
    const auto cv = changed.values();
    for (std::size_t k = 0; k < ci.size(); ++k) {
      bounds_.note_change(ci[k], cv[k], removals, value_of, stats);
      pool_.offer(ci[k], ranked_of(ci[k], cv[k]));
    }
    const auto& newborn = q1() ? delta.new_posts : delta.new_comments;
    for (const Index i : newborn) {
      pool_.offer(i, ranked_of(i, scores_.at_or(i, 0)));
    }
    if (removals) {
      queries::TopK top(top_.k());
      pool_.seed(top, stats);
      const auto idx = scores_.indices();
      const auto val = scores_.values();
      std::size_t pos = 0;
      queries::pruned_blocks(
          top, bounds_.num_blocks(),
          [&](Index b) { return bounds_.bound(b); },
          [&](Index b) {
            const Index lo = bounds_.block_lo(b);
            const Index hi = bounds_.block_hi(b);
            pos = static_cast<std::size_t>(
                std::lower_bound(idx.begin() + pos, idx.end(), lo) -
                idx.begin());
            for (Index i = lo; i < hi; ++i) {
              U64 v = 0;
              if (pos < idx.size() && idx[pos] == i) v = val[pos++];
              const queries::Ranked r = ranked_of(i, v);
              top.offer_guarded(r);
              pool_.offer_guarded(i, r);
            }
          },
          stats);
      top_ = std::move(top);
    } else {
      for (std::size_t k = 0; k < ci.size(); ++k) {
        top_.offer(ranked_of(ci[k], cv[k]));
      }
      for (const Index i : newborn) {
        top_.offer(ranked_of(i, scores_.at_or(i, 0)));
      }
    }
    total += stats;
    return top_.answer();
  }

  Query q_;
  queries::GrbState state_;
  grb::Vector<U64> scores_{0};
  queries::TopK top_{3};
  queries::BlockBounds bounds_;
  queries::CandidatePool pool_;
};

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : sum(xs) / static_cast<double>(xs.size());
}

}  // namespace

EngineTrace run_engine_pass(const Workload& w, const datagen::Dataset& ds,
                            const std::set<std::size_t>& sampled,
                            double seconds, std::int64_t t_spawn_ns,
                            const std::function<void()>& between_rounds,
                            Result& r) {
  const std::size_t sets = std::min(w.engine_sets, ds.changes.size());
  EngineTrace out;
  SpeedProbe speed;
  // upd_ms[q][round * sets + k]: change set k's update() time in a round.
  std::vector<double> upd_ms[2];
  std::vector<std::int64_t> upd_t;  // when each change set's updates began
  std::size_t rounds = 0;
  std::int64_t measure_start = 0;
  double other_ms = 0.0;  // in between_rounds, not counted in `seconds`
  for (;;) {
    Tool tools[2] = {Tool(Query::kQ1), Tool(Query::kQ2)};
    std::string initial[2];
    load_initial(tools, ds.initial, initial);
    if (rounds == 0) {
      measure_start = now_ns();
      r.metric("setup_s", ms_between(t_spawn_ns, measure_start) * 1e-3, "s");
      for (int q = 0; q < 2; ++q) {
        probe(tools[q], q, 0, initial[q], sampled, out);
      }
    }
    for (std::size_t k = 0; k < sets; ++k) {
      upd_t.push_back(now_ns());
      for (int q = 0; q < 2; ++q) {
        const std::int64_t t0 = now_ns();
        std::string answer = tools[q].engine->update(ds.changes[k]);
        upd_ms[q].push_back(ms_between(t0, now_ns()));
        r.attempted++;
        if (rounds == 0) {
          probe(tools[q], q, k + 1, std::move(answer), sampled, out);
        } else if (answer != out.answers[q][k + 1]) {
          r.fail("round " + std::to_string(rounds + 1) + " " +
                 harness::query_name(kQueries[q]) + " epoch " +
                 std::to_string(k + 1) + " differs from round 1");
        }
      }
    }
    ++rounds;
    // Every round does the same work, so the first has the phase's peak;
    // later ones would add the serving phase's client.
    if (rounds == 1) r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    const std::int64_t t_other = now_ns();
    between_rounds();
    other_ms += ms_between(t_other, now_ns());
    if (rounds >= kMinRounds &&
        (ms_between(measure_start, now_ns()) - other_ms) * 1e-3 >= seconds) {
      break;
    }
  }
  speed.stop();

  // Each round replays the same change sets on fresh engines, so a change
  // set's work is the same in every round and only the host differs: its
  // time is the least of its rounds in quiet windows (of all its rounds
  // when none was quiet), and every metric is over all `sets` change sets.
  std::size_t kept = 0;
  std::vector<double> best[2];
  for (std::size_t k = 0; k < sets; ++k) {
    double quiet_min[2] = {-1.0, -1.0};
    double any_min[2] = {-1.0, -1.0};
    for (std::size_t i = k; i < upd_t.size(); i += sets) {
      const bool quiet = speed.quiet(upd_t[i]);
      kept += quiet ? 1 : 0;
      for (int q = 0; q < 2; ++q) {
        const double x = upd_ms[q][i];
        if (any_min[q] < 0.0 || x < any_min[q]) any_min[q] = x;
        if (quiet && (quiet_min[q] < 0.0 || x < quiet_min[q])) {
          quiet_min[q] = x;
        }
      }
    }
    for (int q = 0; q < 2; ++q) {
      best[q].push_back(quiet_min[q] >= 0.0 ? quiet_min[q] : any_min[q]);
    }
  }
  r.metric("q1_update_p50_ms", quantile(best[0], 0.50), "ms");
  r.metric("q2_update_p50_ms", quantile(best[1], 0.50), "ms");
  r.metric("q2_update_p95_ms", quantile(best[1], 0.95), "ms");
  r.metric("update_cs_per_s",
           static_cast<double>(sets) / ((sum(best[0]) + sum(best[1])) * 1e-3),
           "1/s");
  std::fprintf(stderr,
               "perfbench: engine phase: %zu round(s) of %zu change sets, "
               "%zu of %zu (%.0f%%) timed in quiet windows\n",
               rounds, sets, kept, upd_t.size(),
               100.0 * static_cast<double>(kept) /
                   static_cast<double>(upd_t.size()));
  return out;
}

EngineTrace run_traced_pass(const Workload& w, const datagen::Dataset& ds,
                            const std::set<std::size_t>& sampled, Result& r) {
  const std::size_t sets = std::min(w.engine_sets, ds.changes.size());
  EngineTrace out;
  Layers L;
  Tool tools[2] = {Tool(Query::kQ1), Tool(Query::kQ2)};
  Replica replicas[2] = {Replica(Query::kQ1), Replica(Query::kQ2)};
  Replica plain[2] = {Replica(Query::kQ1), Replica(Query::kQ2)};
  std::string initial[2];
  r.metric("engine.load_initial_s", load_initial(tools, ds.initial, initial),
           "s");
  for (int q = 0; q < 2; ++q) {
    probe(tools[q], q, 0, initial[q], sampled, out);
    Layers unused;
    if (replicas[q].load_initial(ds.initial, L) != initial[q] ||
        plain[q].load_initial(ds.initial, unused) != initial[q]) {
      r.fail(std::string("traced ") + harness::query_name(kQueries[q]) +
             " initial answer differs from the engine's");
    }
  }
  const queries::PruneStats engine_prune0[2] = {tools[0].grb->prune_stats(),
                                                tools[1].grb->prune_stats()};
  std::vector<double> engine_ms[2];
  double timed_ms = 0.0;  // replicas with their layer timers
  double plain_ms = 0.0;  // the same replicas without
  for (std::size_t k = 0; k < sets; ++k) {
    for (int q = 0; q < 2; ++q) {
      const sm::ChangeSet& cs = ds.changes[k];
      const std::int64_t t0 = now_ns();
      std::string answer = tools[q].engine->update(cs);
      engine_ms[q].push_back(ms_between(t0, now_ns()));
      r.attempted++;
      // Timed and plain replica take turns going first, so neither gains
      // from the other's warm caches on every change set.
      std::string mine;
      std::string plain_answer;
      for (int turn = 0; turn < 2; ++turn) {
        const bool timed = (turn == 0) == (k % 2 == 0);
        const std::int64_t t1 = now_ns();
        std::string a = timed ? replicas[q].update(cs, &L)
                              : plain[q].update(cs, nullptr);
        (timed ? timed_ms : plain_ms) += ms_between(t1, now_ns());
        (timed ? mine : plain_answer) = std::move(a);
      }
      if (mine != answer || plain_answer != answer) {
        r.fail(std::string("traced ") + harness::query_name(kQueries[q]) +
               " epoch " + std::to_string(k + 1) + ": \"" + mine + "\" / \"" +
               plain_answer + "\" but the engine answered \"" + answer + "\"");
      }
      probe(tools[q], q, k + 1, std::move(answer), sampled, out);
    }
  }
  // The replica's pruning work must be the engine's, counter for counter.
  queries::PruneStats engine_prune;
  for (int q = 0; q < 2; ++q) {
    queries::PruneStats d = tools[q].grb->prune_stats();
    d.blocks_total -= engine_prune0[q].blocks_total;
    d.blocks_scanned -= engine_prune0[q].blocks_scanned;
    d.blocks_skipped -= engine_prune0[q].blocks_skipped;
    d.pool_hits -= engine_prune0[q].pool_hits;
    d.pool_rebuilds -= engine_prune0[q].pool_rebuilds;
    d.bound_rebuilds -= engine_prune0[q].bound_rebuilds;
    engine_prune += d;
  }
  queries::PruneStats replica_prune = L.prune;
  replica_prune.pool_rebuilds -= 2;  // the two initial scans
  if (!(replica_prune == engine_prune)) {
    r.fail("traced pruning counters differ from the engine's");
  }

  const double n = static_cast<double>(sets);
  const double layer_ms = sum(L.apply) + sum(L.q1_delta) +
                          sum(L.q2_affected) + sum(L.q2_rescore) +
                          sum(L.top_k);
  const double untraced_ms = sum(engine_ms[0]) + sum(engine_ms[1]);
  const double coverage = layer_ms / untraced_ms;
  r.metric("trace.coverage", coverage, "ratio");
  r.metric("trace.overhead", timed_ms / plain_ms, "ratio");
  r.metric("engine.q1_update_p95_ms", quantile(engine_ms[0], 0.95), "ms");
  r.metric("engine.q1_update_p99_ms", quantile(engine_ms[0], 0.99), "ms");
  r.metric("engine.q2_update_p99_ms", quantile(engine_ms[1], 0.99), "ms");
  if (coverage < kCoverageLo || coverage > kCoverageHi) {
    r.fail("trace.coverage " + std::to_string(coverage) + " outside [" +
           std::to_string(kCoverageLo) + ", " + std::to_string(kCoverageHi) +
           "]");
  }
  r.metric("grb_state.load_ms", median(L.load), "ms");
  r.metric("grb_state.apply_ms", median(L.apply), "ms");
  r.metric("q1.batch_ms", median(L.q1_batch), "ms");
  r.metric("q1.delta_ms", median(L.q1_delta), "ms");
  r.metric("q1.changed_per_cs", mean(L.q1_changed), "count");
  r.metric("q2.batch_ms", median(L.q2_batch), "ms");
  r.metric("q2.affected_ms", median(L.q2_affected), "ms");
  r.metric("q2.rescore_ms", median(L.q2_rescore), "ms");
  r.metric("q2.affected_per_cs", mean(L.q2_affected_n), "count");
  r.metric("q2.changed_per_cs", mean(L.q2_changed), "count");
  const double affected = sum(L.q2_affected_n);
  r.metric("q2.rescore_useful",
           affected > 0 ? sum(L.q2_changed) / affected : 0.0, "ratio");
  r.metric("top_k.update_ms", median(L.top_k), "ms");
  r.metric("top_k.blocks_scanned",
           static_cast<double>(replica_prune.blocks_scanned), "count");
  r.metric("top_k.blocks_skipped",
           static_cast<double>(replica_prune.blocks_skipped), "count");
  r.metric("arena.misses", static_cast<double>(L.arena_misses), "count");
  r.metric("arena.bytes_leased_per_cs",
           static_cast<double>(L.arena_bytes) / n, "B");
  return out;
}

Answers check_against_reference(const Workload& w, const datagen::Dataset& ds,
                                const EngineTrace& t, Result& r) {
  const bool insert_only = w.frac_removals == 0.0;
  Reference ref(ds.initial);
  Answers want;
  std::size_t table_at[2] = {0, 0};
  for (std::size_t e = 0; e <= ds.changes.size(); ++e) {
    if (e > 0) ref.apply(ds.changes[e - 1]);
    want[0].push_back(ref.q1_answer());
    want[1].push_back(ref.q2_answer());
    const std::string at = " at epoch " + std::to_string(e);
    const std::size_t entities[2] = {ref.num_posts(), ref.num_comments()};
    for (int q = 0; q < 2; ++q) {
      const char* qn = harness::query_name(kQueries[q]);
      if (e < t.answers[q].size() &&
          !answer_shape_ok(t.answers[q][e], entities[q])) {
        r.fail(std::string(qn) + " answer \"" + t.answers[q][e] +
               "\" does not list min(3, #entities) distinct ids" + at);
      }
      if (insert_only && e > 0 && e < t.kth[q].size() &&
          t.kth[q][e] < t.kth[q][e - 1]) {
        r.fail(std::string(qn) + " 3rd best score decreased" + at +
               " on an insert-only stream");
      }
      // Full score tables at the sampled epochs: exact against the
      // reference, and each Q2 score within [likes, likes²].
      if (table_at[q] < t.tables[q].size() &&
          t.tables[q][table_at[q]].epoch == e) {
        const auto& entries = t.tables[q][table_at[q]++].entries;
        if (entries.size() != entities[q]) {
          r.fail(std::string(qn) + " score table size" + at);
        }
        for (const auto& [id, score] : entries) {
          const auto want_score = q == 0 ? ref.q1_score(id) : ref.q2_score(id);
          if (!want_score || *want_score != score) {
            r.fail(std::string(qn) + " score of " + std::to_string(id) +
                   " is " + std::to_string(score) + at + ", reference " +
                   (want_score ? std::to_string(*want_score) : "unknown"));
            break;
          }
          if (q == 1) {
            const std::uint64_t likes = ref.like_count(id).value_or(0);
            if (score < likes || score > likes * likes) {
              r.fail("Q2 score of " + std::to_string(id) + " (" +
                     std::to_string(score) + ") outside [likes, likes^2]" +
                     at);
              break;
            }
          }
        }
      }
    }
    if (e < t.q1_sum.size() &&
        t.q1_sum[e] != 10 * ref.num_comments() + ref.live_likes()) {
      r.fail("Q1 scores sum to " + std::to_string(t.q1_sum[e]) + at +
             ", but 10 x comments + likes = " +
             std::to_string(10 * ref.num_comments() + ref.live_likes()));
    }
  }
  const std::size_t epochs = std::min(w.engine_sets, ds.changes.size()) + 1;
  if (t.q1_sum.size() != epochs) r.fail("engine trace is incomplete");
  for (int q = 0; q < 2; ++q) {
    if (t.answers[q].size() != epochs || t.kth[q].size() != epochs) {
      r.fail("engine trace is incomplete");
      continue;
    }
    const std::string bad = first_mismatch(
        harness::query_name(kQueries[q]), t.answers[q],
        std::vector<std::string>(want[q].begin(), want[q].begin() + epochs));
    if (!bad.empty()) r.fail(bad + " (reference)");
  }
  return want;
}

void run_nmf_figures(const Workload& w, const datagen::Dataset& ds,
                     Result& r) {
  const std::size_t sets = std::min(w.engine_sets, ds.changes.size());
  for (int q = 0; q < 2; ++q) {
    harness::EnginePtr e = harness::make_engine("nmf-incremental", kQueries[q]);
    e->load(ds.initial);
    (void)e->initial();
    std::vector<double> ms;
    for (std::size_t k = 0; k < ds.changes.size() && k < sets; ++k) {
      const sm::ChangeSet& cs = ds.changes[k];
      const std::int64_t t0 = now_ns();
      (void)e->update(cs);
      ms.push_back(ms_between(t0, now_ns()));
    }
    const std::string p = q == 0 ? "nmf.q1_update" : "nmf.q2_update";
    r.metric(p + "_p50_ms", quantile(ms, 0.50), "ms");
    r.metric(p + "_p99_ms", quantile(ms, 0.99), "ms");
  }
}

}  // namespace perfbench
