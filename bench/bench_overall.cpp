// Fig. 8(c)/(d): overall conflict-resolution time per entity-size bucket
// for NBA (8(c)) and Person (8(d)). The paper's stacked bars become one
// column per layer, in ms per entity with every interaction round pooled
// (ExperimentResult's phase timers):
//   encode   — grounding Ω(Se), building Φ(Se) and feeding the solver
//              when the session opens, plus each answered round's
//              extension (ground the delta, append, Simplify);
//   validity — IsValid, a propagation probe on the Horn Φ(Se);
//   deduce   — DeduceOrder plus reading the true values off Od;
//   suggest  — candidate values and GetSug's propagation probes.
// The framework's three phases are the last three columns; encode is the
// cost the paper's breakdown does not show.

#include "bench_util.h"

namespace {

using namespace ccr;
using namespace ccr::bench;

void RunSeries(const char* name, const Dataset& ds,
               const std::vector<Bucket>& buckets) {
  std::printf("%s (ms/entity, all interaction rounds pooled)\n", name);
  std::printf("%-14s %10s %10s %10s %10s %10s %8s\n", "bucket", "entities",
              "encode", "validity", "deduce", "suggest", "rounds");
  for (const Bucket& b : buckets) {
    const std::vector<int> idx = EntitiesInBucket(ds, b);
    if (idx.empty()) continue;
    ExperimentOptions opts;
    opts.max_rounds = 3;
    const ExperimentResult r = RunExperiment(ds, opts, idx);
    std::printf("%-14s %10d %10.2f %10.2f %10.2f %10.2f %8d\n",
                b.Label().c_str(), r.entities, r.encode_ms / r.entities,
                r.validity_ms / r.entities, r.deduce_ms / r.entities,
                r.suggest_ms / r.entities, r.max_rounds_used);
  }
}

}  // namespace

int main() {
  PrintHeader("Fig. 8(c)/(d) — overall time breakdown");
  const int scale = BenchScale();
  RunSeries("NBA (Fig. 8(c))", NbaBucketed(4 * scale), NbaBuckets());
  std::printf("\n");
  RunSeries("Person (Fig. 8(d))", PersonBucketed(2 * scale),
            PersonBuckets());
  return 0;
}
