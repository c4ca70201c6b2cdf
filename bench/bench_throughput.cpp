// bench_throughput: batch resolution throughput (entities/sec) and the
// solver's memory lifecycle.
//
// Unlike the Fig. 8 reproduction benches, this one emits machine-readable
// JSON on stdout (scripts/bench.sh redirects it into
// BENCH_throughput.json) so the repo's perf trajectory can be tracked
// across PRs. Sections:
//   * "thread_scaling": the "entity_pool" tier — RunExperiment's batched
//     work-stealing driver (entities across worker threads) — measured as
//     a real speedup curve at {1, 2, N} threads (N = CCR_BENCH_THREADS,
//     default hardware_concurrency), each point the minimum of 5
//     interleaved reps over the same kScalingEntities entities, enough
//     that thread start-up stays noise even at smoke size. It checks the
//     pooled accuracy vectors are identical across all thread counts —
//     threads may change wall time, never results. The section
//     always runs and always reports measured numbers; on a 1-core
//     machine the curve simply documents the overhead
//     (scripts/bench_smoke.sh only gates the speedup floor when the
//     machine has >= 2 cores).
//   * "memory_lifecycle": one long-lived session on a >= 1k-tuple Person
//     entity driven through CCR_BENCH_SOAK_ROUNDS (default 64) ExtendWith
//     rounds of appended tuples plus validity/deduction solves, with the
//     arena GC on (gc_frac 0.10) vs off (gc_frac 1: dead words never
//     exceed the arena, so it never collects). Reports the solver arena's
//     peak and live words and the words reclaimed by collections, and
//     checks the two runs deduce identically. scripts/bench_smoke.sh gates identical_results
//     and a reclaim floor (CCR_BENCH_GC_RECLAIM_FLOOR).
//
// CCR_BENCH_SCALE multiplies entity counts as in the other benches;
// CCR_BENCH_TUPLES overrides the per-entity tuple floor (default 1000 —
// CI's bench-smoke job shrinks it so the gate finishes in seconds).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "src/common/timer.h"
#include "src/core/session.h"

namespace ccr {
namespace {

// Entities in every thread_scaling point (times CCR_BENCH_SCALE). At the
// smoke size (CCR_BENCH_TUPLES=250) one thread resolves them in about
// 0.3 s, so thread start-up is noise in every point of the curve.
constexpr int kScalingEntities = 256;

int BenchThreads() {
  // Derive the N-thread point from the machine instead of hardcoding 8:
  // a 2-core runner then measures a genuine 2-thread speedup rather than
  // oversubscription overhead. hardware_concurrency() may report 0 when
  // unknown; fall back to 2 (the 1-core case skips the section anyway).
  const unsigned hc = std::thread::hardware_concurrency();
  const int fallback =
      hc > 1 ? std::min(static_cast<int>(hc), kMaxExperimentThreads) : 2;
  return bench::BenchInt("CCR_BENCH_THREADS", std::getenv("CCR_BENCH_THREADS"),
                         fallback, kMaxExperimentThreads);
}

int BenchTuples() {
  return bench::BenchInt("CCR_BENCH_TUPLES", std::getenv("CCR_BENCH_TUPLES"),
                         1000);
}

int BenchSoakRounds() {
  // The arena's dead fraction after R answer rounds on an n-tuple entity
  // grows like R/n (per-round churn is O(n) words against an O(n^2)-word
  // clause database), so a fixed round count would never cross the
  // gc_frac trigger at full corpus size. Scale rounds with the corpus:
  // n/3 rounds put the soak comfortably past the default 25% trigger at
  // every scale the bench runs.
  return bench::BenchInt("CCR_BENCH_SOAK_ROUNDS",
                         std::getenv("CCR_BENCH_SOAK_ROUNDS"),
                         std::max(64, BenchTuples() / 3));
}

Dataset BigPersonCorpus(int num_entities) {
  PersonOptions opts;
  opts.num_entities = num_entities;
  opts.min_tuples = BenchTuples();
  opts.max_tuples = opts.min_tuples + opts.min_tuples / 5;
  opts.seed = 90210;
  // Histories rich in gap steps and mid-stage moves: several attributes
  // whose currency information genuinely is not in Σ, so a one-answer
  // oracle needs several rounds (the Fig. 8(m) regime, scaled up).
  opts.p_status_gap = 0.55;
  opts.p_move_only = 0.70;
  return GeneratePerson(opts);
}

// One long-lived session soak for the memory_lifecycle section: append a
// copied tuple every round (guarded grounding keeps every delta
// append-only), re-solve validity each round and deduction periodically,
// and watch the solver arena.
struct MemorySoak {
  bool ok = false;
  size_t peak_words = 0;
  size_t live_words = 0;
  int64_t gc_runs = 0;
  int64_t reclaimed_words = 0;
  std::vector<bool> valid_by_round;
  std::vector<std::tuple<int, int, int>> deduced;  // (attr, u, v) closure
};

MemorySoak RunMemorySoak(const Specification& spec,
                         const std::vector<Value>& truth, bool lifecycle_on,
                         int rounds) {
  MemorySoak out;
  ResolveOptions opts;
  opts.naive_deduce = true;  // Lemma-6 probes on the persistent solver
  // A long-lived memory-bound service runs the collector eagerly; the
  // answer-round dead fraction plateaus near ~20% of the arena at large
  // corpus sizes, so the production default (0.25) would let this soak
  // coast without ever compacting. 0.10 makes the collector fire at
  // every scale the bench runs — which is the point: trigger, compact,
  // and prove the results unchanged. Off is gc_frac 1, which never
  // collects.
  opts.solver.gc_frac = lifecycle_on ? 0.10 : 1.0;
  auto session = ResolutionSession::Create(spec, opts);
  if (!session.ok()) return out;
  const int n_attrs = spec.schema().size();
  auto record_deduced = [&](const DeducedOrders& d) {
    out.deduced.clear();
    for (size_t a = 0; a < d.per_attr.size(); ++a) {
      const PartialOrder& po = d.per_attr[a];
      for (int u = 0; u < po.num_elements(); ++u) {
        for (int v = 0; v < po.num_elements(); ++v) {
          if (po.Less(u, v)) {
            out.deduced.emplace_back(static_cast<int>(a), u, v);
          }
        }
      }
    }
  };
  int to_index = spec.instance().size();
  for (int r = 0; r < rounds; ++r) {
    // The resolver's user-answer shape (§III Remark (1)): a tuple t_o
    // carrying the ground-truth value of one attribute, ordered above
    // every existing tuple on that attribute. Truth answers are always
    // consistent, so round after round of them keeps the session valid
    // while unit cascades satisfy old clauses and retire guards — the
    // churn a long-lived resolution session actually produces.
    int a = r % n_attrs;
    for (int probe = 0; probe < n_attrs && truth[a].is_null(); ++probe) {
      a = (a + 1) % n_attrs;
    }
    if (truth[a].is_null()) return out;
    PartialTemporalOrder ot;
    Tuple to(std::vector<Value>(n_attrs, Value::Null()));
    to[a] = truth[a];
    ot.new_tuples.push_back(std::move(to));
    for (int t = 0; t < to_index; ++t) ot.orders.emplace_back(a, t, to_index);
    if (!session->ExtendWith(ot).ok()) return out;
    ++to_index;
    out.valid_by_round.push_back(session->CheckValidity().valid);
    if (r % 4 == 3 || r == rounds - 1) record_deduced(session->Deduce());
  }
  const sat::Solver& solver = session->solver();
  out.peak_words = solver.arena_peak_words();
  out.live_words = solver.arena_live_words();
  out.gc_runs = solver.stats().gc_runs;
  out.reclaimed_words = solver.stats().gc_reclaimed_words;
  out.ok = true;
  return out;
}

bool SameAccuracy(const ExperimentResult& a, const ExperimentResult& b) {
  if (a.accuracy_by_round.size() != b.accuracy_by_round.size()) return false;
  for (size_t k = 0; k < a.accuracy_by_round.size(); ++k) {
    if (a.accuracy_by_round[k].deduced != b.accuracy_by_round[k].deduced ||
        a.accuracy_by_round[k].correct != b.accuracy_by_round[k].correct ||
        a.accuracy_by_round[k].conflicts !=
            b.accuracy_by_round[k].conflicts) {
      return false;
    }
  }
  return a.pct_true_by_round == b.pct_true_by_round;
}

}  // namespace
}  // namespace ccr

int main() {
  using namespace ccr;
  const int scale = bench::BenchScale();

  // --- thread scaling: the entity pool -------------------------------------
  Timer timer;
  const int n_threads = BenchThreads();
  const Dataset batch_ds = BigPersonCorpus(kScalingEntities * scale);
  const int n_entities = static_cast<int>(batch_ds.entities.size());
  // Each curve point is the minimum of kScalingReps timed runs: the
  // per-point wall time sits inside scheduler jitter for one sample, and
  // the min is the run least perturbed by the OS. The reps interleave the
  // thread counts (1, 2, N, 1, 2, N, ...), so a burst of load from
  // outside the process slows runs of every count alike instead of one
  // point of the curve. The equivalence check uses each count's first
  // result; the runs are deterministic, so later reps would only repeat
  // it.
  constexpr int kScalingReps = 5;
  const std::vector<int> counts =
      n_threads > 2 ? std::vector<int>{1, 2, n_threads}
                    : std::vector<int>{1, 2};
  std::vector<double> best(counts.size(), 0);
  std::vector<ExperimentResult> first(counts.size());
  // The batched work-stealing driver spreads whole entities across worker
  // threads.
  ExperimentOptions eopts;
  eopts.max_rounds = 3;
  eopts.answers_per_round = 1;
  for (int rep = 0; rep < kScalingReps; ++rep) {
    for (size_t k = 0; k < counts.size(); ++k) {
      eopts.num_threads = counts[k];
      timer.Restart();
      ExperimentResult r = RunExperiment(batch_ds, eopts);
      const double sec = timer.ElapsedMs() / 1000.0;
      if (rep == 0) {
        first[k] = std::move(r);
        best[k] = sec;
      } else {
        best[k] = std::min(best[k], sec);
      }
    }
  }
  const double pool_t1 = best[0];
  const double pool_t2 = best[1];
  const double pool_tn = best.back();
  bool pool_identical = true;
  for (const ExperimentResult& r : first) {
    pool_identical = pool_identical && SameAccuracy(first[0], r);
  }

  // --- solver memory lifecycle (arena GC on vs off) ----------------------
  const int soak_rounds = BenchSoakRounds();
  const Dataset soak_ds = BigPersonCorpus(1);
  const Specification soak_spec = soak_ds.MakeSpec(0);
  const MemorySoak soak_gc = RunMemorySoak(
      soak_spec, soak_ds.entities[0].truth, /*lifecycle_on=*/true,
      soak_rounds);
  const MemorySoak soak_nogc = RunMemorySoak(
      soak_spec, soak_ds.entities[0].truth, /*lifecycle_on=*/false,
      soak_rounds);
  const bool soak_identical = soak_gc.ok && soak_nogc.ok &&
                              soak_gc.valid_by_round ==
                                  soak_nogc.valid_by_round &&
                              soak_gc.deduced == soak_nogc.deduced;

  std::printf("{\n");
  std::printf("  \"bench\": \"throughput\",\n");
  std::printf("  \"scale\": %d,\n", scale);
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"thread_scaling\": {\n");
  std::printf("    \"entities\": %d,\n", n_entities);
  std::printf("    \"threads_max\": %d,\n", n_threads);
  std::printf("    \"reps\": %d,\n", kScalingReps);
  std::printf("    \"entity_pool\": {\n");
  std::printf("      \"t1_seconds\": %.3f,\n", pool_t1);
  std::printf("      \"t2_seconds\": %.3f,\n", pool_t2);
  std::printf("      \"tN_seconds\": %.3f,\n", pool_tn);
  std::printf("      \"t1_entities_per_sec\": %.3f,\n",
              pool_t1 > 0 ? n_entities / pool_t1 : 0.0);
  std::printf("      \"tN_entities_per_sec\": %.3f,\n",
              pool_tn > 0 ? n_entities / pool_tn : 0.0);
  std::printf("      \"speedup_2\": %.3f,\n",
              pool_t2 > 0 ? pool_t1 / pool_t2 : 0.0);
  std::printf("      \"speedup_N\": %.3f,\n",
              pool_tn > 0 ? pool_t1 / pool_tn : 0.0);
  std::printf("      \"identical_results\": %s\n",
              pool_identical ? "true" : "false");
  std::printf("    },\n");
  std::printf("    \"deterministic\": %s\n",
              pool_identical ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"memory_lifecycle\": {\n");
  std::printf("    \"tuples\": %d,\n", soak_spec.instance().size());
  std::printf("    \"rounds\": %d,\n", soak_rounds);
  std::printf("    \"gc_on\": {\"peak_arena_words\": %zu, "
              "\"live_arena_words\": %zu, \"gc_runs\": %lld, "
              "\"reclaimed_words\": %lld},\n",
              soak_gc.peak_words, soak_gc.live_words,
              static_cast<long long>(soak_gc.gc_runs),
              static_cast<long long>(soak_gc.reclaimed_words));
  std::printf("    \"gc_off\": {\"peak_arena_words\": %zu, "
              "\"live_arena_words\": %zu, \"gc_runs\": %lld, "
              "\"reclaimed_words\": %lld},\n",
              soak_nogc.peak_words, soak_nogc.live_words,
              static_cast<long long>(soak_nogc.gc_runs),
              static_cast<long long>(soak_nogc.reclaimed_words));
  std::printf("    \"peak_ratio_off_over_on\": %.3f,\n",
              soak_gc.peak_words > 0
                  ? static_cast<double>(soak_nogc.peak_words) /
                        static_cast<double>(soak_gc.peak_words)
                  : 0.0);
  std::printf("    \"identical_results\": %s\n",
              soak_identical ? "true" : "false");
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
