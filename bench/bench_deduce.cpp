// Fig. 8(b): elapsed time of true-value deduction — DeduceOrder vs
// NaiveDeduce — per entity-size bucket.
//
// The "NaiveDeduce" column is the paper's baseline: the per-pair Lemma-6
// loop (Lemma6DeduceShared), one SAT call per order variable on a fresh
// solver. It is not the library's NaiveDeduce, which reads the same pair
// set off one propagation probe because Φ(Se) is Horn. On NBA the loop
// runs on every entity, and the bench verifies that DeduceOrder derives
// the same true values as the loop on each (§VI Exp-2). The paper omits
// the loop on Person (>20 minutes per large entity); here it runs on one
// entity per Person bucket, smallest bucket first, for as long as the
// previous bucket's entity took less than kNaiveBudgetMs, and each later
// bucket prints the time that stopped it instead of a measurement.

#include "bench_util.h"

namespace {

using namespace ccr;
using namespace ccr::bench;

// The per-pair loop moves on to the next Person bucket only while the
// previous bucket's entity took less than this.
constexpr double kNaiveBudgetMs = 10000;

struct Timed {
  double fast_ms = 0;
  double naive_ms = 0;
  int entities = 0;
  int agreements = 0;
};

Timed RunBucket(const Dataset& ds, const std::vector<int>& idx,
                bool run_naive) {
  Timed out;
  for (int i : idx) {
    const Specification se = ds.MakeSpec(i);
    // Fig. 5's Algorithm DeduceOrder *includes* Instantiation and
    // ConvertToCNF (its line 1), so the conversion is timed here too —
    // for both contenders.
    Timer t;
    auto inst = Instantiation::Build(se);
    CCR_CHECK(inst.ok());
    const sat::Cnf phi = BuildCnf(*inst);
    const double encode_ms = t.ElapsedMs();

    t.Restart();
    const DeducedOrders fast = DeduceOrder(*inst, phi);
    out.fast_ms += encode_ms + t.ElapsedMs();
    ++out.entities;

    if (run_naive) {
      t.Restart();
      sat::Solver solver;
      solver.AddCnf(phi);
      const DeducedOrders naive = Lemma6DeduceShared(*inst, &solver);
      out.naive_ms += encode_ms + t.ElapsedMs();
      const auto tv_fast = ExtractTrueValueIndices(inst->varmap, fast);
      const auto tv_naive = ExtractTrueValueIndices(inst->varmap, naive);
      out.agreements += (tv_fast == tv_naive) ? 1 : 0;
    }
  }
  return out;
}

}  // namespace

int main() {
  PrintHeader("Fig. 8(b) — true-value deduction time");
  const int scale = BenchScale();

  {
    const Dataset ds = NbaBucketed(4 * scale);
    std::printf("NBA: DeduceOrder vs NaiveDeduce, the per-pair Lemma-6 "
                "loop (ms/entity)\n");
    std::printf("%-14s %10s %14s %14s %10s\n", "bucket", "entities",
                "DeduceOrder", "NaiveDeduce", "agree");
    for (const Bucket& b : NbaBuckets()) {
      const auto idx = EntitiesInBucket(ds, b);
      if (idx.empty()) continue;
      const Timed t = RunBucket(ds, idx, /*run_naive=*/true);
      std::printf("%-14s %10d %14.2f %14.2f %9d/%d\n", b.Label().c_str(),
                  t.entities, t.fast_ms / t.entities,
                  t.naive_ms / t.entities, t.agreements, t.entities);
    }
  }

  {
    const Dataset ds = PersonBucketed(2 * scale);
    std::printf("\nPerson: DeduceOrder (ms/entity); NaiveDeduce on the "
                "bucket's first entity, while the previous bucket took "
                "< %.0f ms\n",
                kNaiveBudgetMs);
    std::printf("%-14s %10s %14s %14s\n", "bucket", "entities", "DeduceOrder",
                "NaiveDeduce");
    double previous_naive_ms = 0;
    for (const Bucket& b : PersonBuckets()) {
      const auto idx = EntitiesInBucket(ds, b);
      if (idx.empty()) continue;
      const Timed t = RunBucket(ds, idx, /*run_naive=*/false);
      std::printf("%-14s %10d %14.2f ", b.Label().c_str(), t.entities,
                  t.fast_ms / t.entities);
      if (previous_naive_ms >= kNaiveBudgetMs) {
        std::printf("%14s (previous bucket took %.0f ms)\n", "not run",
                    previous_naive_ms);
        continue;
      }
      const Timed naive = RunBucket(ds, {idx.front()}, /*run_naive=*/true);
      previous_naive_ms = naive.naive_ms;
      std::printf("%14.2f agree %d/1\n", naive.naive_ms, naive.agreements);
    }
  }
  return 0;
}
