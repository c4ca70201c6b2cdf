// Cross-checks between the fundamental problems of §IV on generated
// corpora: satisfiability (IsValid), implication (Implies), true-value
// existence (AnalyzeTrueValue) and the resolver must tell one consistent
// story on every entity.

#include <gtest/gtest.h>

#include "src/ccr.h"

namespace ccr {
namespace {

class FundamentalSweep : public ::testing::TestWithParam<int> {
 protected:
  // A small Person corpus; the parameter seeds the generator so every
  // sweep instance sees different histories.
  Dataset MakeCorpus() const {
    PersonOptions opts;
    opts.num_entities = 4;
    opts.min_tuples = 6;
    opts.max_tuples = 24;
    opts.seed = 1000 + GetParam();
    return GeneratePerson(opts);
  }
};

TEST_P(FundamentalSweep, StrictResolverNeverExceedsExactAnalysis) {
  // AnalyzeTrueValue decides the Φ-level (Lemma 6) notion of implication,
  // which does not assume value-level totality; compare it against the
  // resolver in strict deduction mode, which deduces under the same
  // semantics. Φ(Se) is Horn, so the entailed atoms are exactly its
  // unit-propagation closure: the strict resolver neither exceeds nor
  // falls short of the exact analysis on any attribute.
  // (Paper-mode deduction adds the Fig. 5 reversed-order rule, sound
  // under completion totality, and may therefore determine *more* values
  // than the Φ-level analysis; see the semantics note in
  // src/core/implication.h.)
  const Dataset ds = MakeCorpus();
  ResolveOptions strict;
  strict.deduce.paper_negative_units = false;
  strict.deduce.totality_propagation = false;
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    const Specification se = ds.MakeSpec(static_cast<int>(i));
    auto exact = AnalyzeTrueValue(se);
    ASSERT_TRUE(exact.ok());
    // The analysis reads Lemma 6's pairs off the least model of Φ(Se);
    // the per-pair loop (one solve per pair) must find the same true
    // values, so this oracle does not rest on propagation alone.
    {
      auto inst = Instantiation::Build(se);
      ASSERT_TRUE(inst.ok());
      sat::Solver solver;
      solver.AddCnf(BuildCnf(*inst));
      EXPECT_EQ(ExtractTrueValueIndices(inst->varmap,
                                        Lemma6DeduceShared(*inst, &solver)),
                exact->true_value_index)
          << "entity " << i;
    }
    auto fast = Resolve(se, nullptr, strict);
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(fast->complete, exact->exists) << "entity " << i;
    // The strict resolver finds exactly the values the exact analysis
    // determines.
    const VarMap vm = VarMap::Build(se).value();
    for (int a = 0; a < ds.schema.size(); ++a) {
      EXPECT_EQ(fast->resolved[a], exact->true_value_index[a] >= 0)
          << "entity " << i << " attr " << ds.schema.name(a);
      if (!fast->resolved[a] || exact->true_value_index[a] < 0) continue;
      EXPECT_EQ(vm.domain(a)[exact->true_value_index[a]],
                fast->true_values[a])
          << "entity " << i << " attr " << ds.schema.name(a);
    }
  }
}

TEST_P(FundamentalSweep, DeducedOrdersAreImplied) {
  // Sample pairs from Od (strict mode) and confirm each passes the exact
  // implication test at the tuple level.
  const Dataset ds = MakeCorpus();
  const Specification se = ds.MakeSpec(0);
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const sat::Cnf phi = BuildCnf(*inst);
  DeduceOptions strict;
  strict.paper_negative_units = false;
  const DeducedOrders od = DeduceOrder(*inst, phi, strict);
  const VarMap& vm = inst->varmap;
  const EntityInstance& ie = se.instance();

  int checked = 0;
  for (int a = 0; a < vm.num_attrs() && checked < 6; ++a) {
    for (const auto& [u, v] : od.per_attr[a].Pairs()) {
      // Find tuples carrying the two values.
      int tu = -1, tv = -1;
      for (int t = 0; t < ie.size(); ++t) {
        if (ie.tuple(t).at(a) == vm.domain(a)[u]) tu = t;
        if (ie.tuple(t).at(a) == vm.domain(a)[v]) tv = t;
      }
      if (tu < 0 || tv < 0) continue;
      PartialTemporalOrder ot;
      ot.orders.emplace_back(a, tu, tv);
      auto r = Implies(se, ot);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r->implied)
          << "attr " << ds.schema.name(a) << " pair " << u << "<" << v;
      if (++checked >= 6) break;
    }
  }
}

TEST_P(FundamentalSweep, OracleAnswersAreConsistentExtensions) {
  // Every extension the resolver applies keeps Se valid, and the final
  // values match the corpus ground truth.
  const Dataset ds = MakeCorpus();
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    TruthOracle oracle(ds.entities[i].truth);
    auto r = Resolve(ds.MakeSpec(static_cast<int>(i)), &oracle);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->valid);
    EXPECT_TRUE(r->complete) << "entity " << i;
    for (int a = 0; a < ds.schema.size(); ++a) {
      if (!r->resolved[a] || ds.entities[i].truth[a].is_null()) continue;
      EXPECT_EQ(r->true_values[a], ds.entities[i].truth[a])
          << "entity " << i << " attr " << ds.schema.name(a);
    }
  }
}

TEST_P(FundamentalSweep, SubsettingConstraintsNeverInvalidates) {
  const Dataset ds = MakeCorpus();
  for (double f : {0.0, 0.3, 0.7}) {
    const Specification se =
        ds.MakeSpec(0, ds.SubsetRules(f, f, GetParam() + 1));
    auto r = IsValid(se);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->valid) << "fraction " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FundamentalSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace ccr
