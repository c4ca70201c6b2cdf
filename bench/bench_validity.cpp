// Fig. 8(a): elapsed time of validity checking (IsValid) per entity-size
// bucket, for NBA (|Σ|=54, |Γ|=58) and Person (|Σ|=983, |Γ|=1000).
//
// Prints average milliseconds per entity per bucket — the same two series
// the paper plots (absolute numbers differ from the 2013 testbed; the
// growth with entity size is the reproduced shape).

#include "bench_util.h"

namespace {

using namespace ccr;
using namespace ccr::bench;

void RunSeries(const char* name, const Dataset& ds,
               const std::vector<Bucket>& buckets) {
  std::printf("%s: |Sigma|=%zu |Gamma|=%zu\n", name, ds.sigma().size(),
              ds.gamma().size());
  std::printf("%-14s %10s %10s %12s %12s\n", "bucket", "entities",
              "ms/entity", "cnf-vars", "cnf-clauses");
  for (const Bucket& b : buckets) {
    const std::vector<int> idx = EntitiesInBucket(ds, b);
    if (idx.empty()) continue;
    double total_ms = 0;
    int64_t vars = 0, clauses = 0;
    int valid = 0;
    for (int i : idx) {
      const Specification se = ds.MakeSpec(i);
      Timer t;
      auto r = IsValid(se);
      total_ms += t.ElapsedMs();
      CCR_CHECK(r.ok());
      valid += r->valid ? 1 : 0;
      vars += r->num_vars;
      clauses += r->num_clauses;
    }
    std::printf("%-14s %10zu %10.2f %12lld %12lld\n", b.Label().c_str(),
                idx.size(), total_ms / idx.size(),
                static_cast<long long>(vars / static_cast<int64_t>(idx.size())),
                static_cast<long long>(clauses /
                                       static_cast<int64_t>(idx.size())));
    CCR_CHECK(valid == static_cast<int>(idx.size()));
  }
}

}  // namespace

int main() {
  PrintHeader("Fig. 8(a) — validity checking time vs entity size");
  const int scale = BenchScale();
  RunSeries("NBA", NbaBucketed(6 * scale), NbaBuckets());
  std::printf("\n");
  RunSeries("Person", PersonBucketed(2 * scale), PersonBuckets());
  return 0;
}
