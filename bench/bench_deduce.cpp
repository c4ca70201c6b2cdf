// Fig. 8(b): elapsed time of true-value deduction — DeduceOrder vs
// NaiveDeduce — per entity-size bucket.
//
// The "NaiveDeduce" column is the paper's baseline: the per-pair Lemma-6
// loop (Lemma6DeduceShared), one SAT call per order variable on a fresh
// solver. It is not the library's NaiveDeduce, which reads the same pair
// set off one propagation probe because Φ(Se) is Horn. As in the paper,
// the loop is run on NBA only (on Person it exceeds any reasonable
// budget: the paper reports >20 minutes and omits the line); the bench
// also verifies that DeduceOrder derives the same true values as the loop
// on every NBA entity it times (§VI Exp-2).

#include "bench_util.h"

namespace {

using namespace ccr;
using namespace ccr::bench;

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
    std::printf("\nPerson: DeduceOrder (ms/entity); NaiveDeduce omitted as "
                "in the paper (>20 min per large entity)\n");
    std::printf("%-14s %10s %14s\n", "bucket", "entities", "DeduceOrder");
    for (const Bucket& b : PersonBuckets()) {
      const auto idx = EntitiesInBucket(ds, b);
      if (idx.empty()) continue;
      const Timed t = RunBucket(ds, idx, /*run_naive=*/false);
      std::printf("%-14s %10d %14.2f\n", b.Label().c_str(), t.entities,
                  t.fast_ms / t.entities);
    }
  }
  return 0;
}
