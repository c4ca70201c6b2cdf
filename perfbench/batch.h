// Corpora and the batch workloads (person-batch, nba-rounds, nba-naive):
// one thread resolving every entity of a seeded corpus with a pooled
// SessionScratch and a ground-truth oracle, as RunExperiment does.

#ifndef PERFBENCH_BATCH_H_
#define PERFBENCH_BATCH_H_

#include <string>
#include <vector>

#include "perfbench/traced_session.h"
#include "perfbench/util.h"

namespace perfbench {

enum class CorpusKind { kPerson, kNba };

struct CorpusOptions {
  CorpusKind kind = CorpusKind::kPerson;
  int entities = 0;
  int min_tuples = 0;
  int max_tuples = 0;
};

/// A generated dataset plus every entity's specification.
struct Corpus {
  ccr::Dataset ds;
  std::vector<ccr::Specification> specs;
};

/// Generates the corpus for `seed` and builds its specifications, inside a
/// data.generate span.
Corpus MakeCorpus(const CorpusOptions& options, uint64_t seed, Tracer* tracer);

/// One workload: its corpus, its pipeline and how it is driven.
struct Workload {
  const char* name;
  CorpusOptions corpus;
  bool naive_deduce;
  /// Entities the traced batch passes cover (the first ones).
  int traced_entities;
  /// Traced batch runs also drive this many of the corpus's entities
  /// through the daemon, so every service layer has a measurement.
  int service_probe;
};

/// What a run reports back to main: operation counts, the output digest,
/// the metrics and (traced runs) the spans.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string digest;
  Metrics metrics;
  Tracer spans;
};

/// Knobs every workload shares.
inline constexpr int kMaxRounds = 3;        // interaction rounds per entity
inline constexpr int kAnswersPerRound = 1;  // oracle answers per round
inline constexpr int kSetupRepeats = 5;     // set-ups per run (median kept)
/// Timed runs make whole passes over their entities until the deadline,
/// and at least this many, each on the next CPU. Each entity and round
/// keeps its best time over the passes, so a vCPU that the host slows
/// during part of a run drops out.
inline constexpr int kMinPasses = 4;

/// What a timed run measured, for the end-to-end metrics. Latencies are
/// best-of-passes times, one sample per entity or round.
struct EndToEnd {
  Samples entity, round, answer, open;  // latencies, ms
  int64_t done = 0;                     // entities resolved
  double seconds = 0;                   // sum of their best resolve times
  ccr::AccuracyCounts auto0;            // round 0 against the hidden truth
  double questions = 0;                 // oracle answers per entity
};

/// data.generate_ms (mean over the set-ups) from the set-up's spans, which
/// then join the run's spans.
void AddSetupSpans(const Tracer& setup, Outcome* out);

/// Sets every end-to-end metric but setup_s and peak_rss_mb. A percentile
/// with fewer than ten samples beyond it counts as a failure.
void SetEndToEndMetrics(const EndToEnd& e, Outcome* out);

/// Engine per-layer metrics (per session) from a traced drive's spans and
/// counts: encode.*, sat.*, core.*.
void AddEngineLayerMetrics(const std::vector<Span>& spans,
                           const LayerCounts& counts, Metrics* metrics);

/// Runs a batch workload: `seconds` of timed resolves, or (trace) the
/// untraced/traced pass pair plus the service legs on a few entities.
Outcome RunBatch(const Workload& w, uint64_t seed, int seconds, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_BATCH_H_
