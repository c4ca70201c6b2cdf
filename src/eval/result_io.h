// Serialization and exact merging of ExperimentResults — the scale-out
// layer of the evaluation pipeline.
//
// The Fig. 8 evaluation resolves every entity independently, so a corpus
// shards trivially across processes/machines (ShardIndices in
// eval/experiment.h). What makes the fan-out *exact* is that
// AccuracyCounts pool losslessly (integer sums): a shard's result
// serializes to JSON, ships as a file, and MergeExperimentResults
// reproduces the unsharded ExperimentResult field-for-field — derived
// ratios (pct_true_by_round) are recomputed from the pooled counts, never
// averaged across shards. tools/ccr_experiment is the CLI over this
// module; scripts/shard.sh asserts the byte-identity end to end.
//
// The JSON schema is versioned and emitted with a stable field order and
// round-trippable number formatting ("%.17g"), so equal results serialize
// to equal bytes — byte comparison is the cross-process regression check.

#ifndef CCR_EVAL_RESULT_IO_H_
#define CCR_EVAL_RESULT_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/eval/experiment.h"

namespace ccr {

/// Serialization knobs.
struct ResultJsonOptions {
  /// Include the pooled per-phase wall times. Off for byte-stable output:
  /// timings are the one machine-dependent field, so shard/merge byte
  /// comparisons exclude them (they serialize as zeros).
  bool include_timings = true;
  /// Indentation unit (spaces); 0 emits a single line.
  int indent = 2;
};

/// Current schema_version written by ExperimentResultToJson.
inline constexpr int kExperimentResultSchemaVersion = 1;

/// Renders `r` as versioned JSON with stable field order.
std::string ExperimentResultToJson(const ExperimentResult& r,
                                   const ResultJsonOptions& options = {});

/// Parses JSON produced by ExperimentResultToJson (any field order is
/// accepted; unknown fields are rejected so schema drift is loud).
Result<ExperimentResult> ExperimentResultFromJson(std::string_view json);

/// Pools shard results into the ExperimentResult the unsharded run over
/// the union of their entities would produce (timings are summed, so only
/// they reflect the fan-out). Round-length alignment: when parts disagree
/// on accuracy_by_round length — shards run with different max_rounds — a
/// shorter part's final counts carry forward, mirroring the per-entity
/// carry-forward inside RunExperiment. pct_true_by_round is recomputed
/// from the pooled counts. The merge is associative and order-independent,
/// apart from `error`: the first part's error in input order is kept.
/// Fails on an empty input.
Result<ExperimentResult> MergeExperimentResults(
    const std::vector<ExperimentResult>& parts);

}  // namespace ccr

#endif  // CCR_EVAL_RESULT_IO_H_
