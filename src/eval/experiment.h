// Experiment harness shared by the Fig. 8 benchmark binaries.
//
// Runs conflict resolution over every entity of a dataset with a
// ground-truth oracle, pooling per-round accuracy and per-phase timings;
// also runs the Pick baseline. The benches layer sweeps (constraint
// fractions, size buckets) on top.

#ifndef CCR_EVAL_EXPERIMENT_H_
#define CCR_EVAL_EXPERIMENT_H_

#include <vector>

#include "src/core/resolver.h"
#include "src/data/dataset.h"
#include "src/eval/metrics.h"

namespace ccr {

/// Most worker threads one RunExperiment starts (ExperimentOptions::
/// num_threads, `ccr_experiment --threads`): far above any core count the
/// entity pool scales to, far below what would exhaust the process's
/// threads.
inline constexpr int kMaxExperimentThreads = 256;

/// Configuration of one dataset-level run.
struct ExperimentOptions {
  double sigma_fraction = 1.0;
  double gamma_fraction = 1.0;
  int max_rounds = 3;            // interaction rounds to simulate
  int answers_per_round = 1 << 20;  // oracle answers per suggestion
  double oracle_answer_prob = 1.0;  // per-attribute answer probability
  uint64_t oracle_seed = 0xACE;
  uint64_t subset_seed = 1;      // constraint subsetting
  /// Worker threads resolving entities in parallel (1 = run inline).
  /// Entities are independent (per-entity oracle seed, no shared state),
  /// and results are pooled in entity-index order after all workers join,
  /// so every thread count produces bit-identical ExperimentResults
  /// (timings aside).
  int num_threads = 1;
  ResolveOptions resolve;

  /// Fails closed on out-of-range knobs: max_rounds >= 0,
  /// answers_per_round >= 1, num_threads <= kMaxExperimentThreads,
  /// sigma/gamma fractions and oracle_answer_prob in [0, 1], and
  /// resolve.Validate() (whose max_rounds RunExperiment overrides with
  /// this one). RunExperiment CCR_CHECKs it.
  Status Validate() const;
};

/// Pooled results of a dataset-level run.
struct ExperimentResult {
  /// accuracy_by_round[k]: accuracy if resolution stopped after k
  /// interaction rounds (k = 0 is fully automatic).
  std::vector<AccuracyCounts> accuracy_by_round;
  /// pct_true_by_round[k]: fraction of conflicted attributes whose true
  /// value is known after k rounds (the y-axis of Fig. 8(e)/(i)/(m)).
  std::vector<double> pct_true_by_round;
  /// Pooled per-phase wall time across entities (ms).
  double encode_ms = 0;
  double validity_ms = 0;
  double deduce_ms = 0;
  double suggest_ms = 0;
  /// Pooled per-phase session-solver statistics across rounds and
  /// entities (the RoundTrace deltas summed). Zero for the legacy engine.
  /// Diagnostics only: deliberately NOT part of the serialized
  /// ExperimentResult JSON, so shard/engine byte-identity is unaffected;
  /// `ccr_experiment --solver-stats` dumps them on stderr.
  sat::SolverStats solver_encode;
  sat::SolverStats solver_validity;
  sat::SolverStats solver_deduce;
  sat::SolverStats solver_suggest;
  int entities = 0;
  int invalid_entities = 0;
  /// Maximum interaction rounds any entity actually used.
  int max_rounds_used = 0;
  /// The first error, in entity-index order, of an entity whose Resolve
  /// failed (an over-limit formula, any other engine error); OK when none
  /// did. Such an entity is counted neither as resolved nor as invalid:
  /// an error is not a verdict, and the run has failed. Not serialized,
  /// so the JSON of a run without errors is unchanged by this field.
  Status error;
};

/// Resolves every entity in `ds` (or the sublist `entity_indices` if
/// non-empty) and pools the results. A failed entity sets `error`.
ExperimentResult RunExperiment(const Dataset& ds,
                               const ExperimentOptions& options,
                               const std::vector<int>& entity_indices = {});

/// Recomputes `r->pct_true_by_round` from `r->accuracy_by_round` (the
/// Fig. 8(e)/(i)/(m) y-axis: deduced / conflicts, 0 when nothing
/// conflicts). The single definition shared by RunExperiment and the
/// shard merge (eval/result_io.h) — byte-identity across processes
/// depends on both computing the ratio identically.
void RecomputePctTrueByRound(ExperimentResult* r);

/// Entity indices belonging to shard `shard` of `num_shards`: every index
/// i in [0, num_entities) with i % num_shards == shard. The shards
/// partition the corpus, and because AccuracyCounts pool losslessly,
/// merging the per-shard ExperimentResults (MergeExperimentResults in
/// eval/result_io.h) reproduces the unsharded run exactly — the unit of
/// scale-out for the multi-process driver (tools/ccr_experiment).
std::vector<int> ShardIndices(int num_entities, int shard, int num_shards);

/// Pick baseline accuracy over the same entities. Fails with the first
/// entity's PickBaseline error.
Result<AccuracyCounts> RunPick(const Dataset& ds, uint64_t seed = 99,
                               const std::vector<int>& entity_indices = {});

}  // namespace ccr

#endif  // CCR_EVAL_EXPERIMENT_H_
