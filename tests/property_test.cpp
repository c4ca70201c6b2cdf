// Property-based tests: invariants of the encoding and the deduction
// pipeline over randomly generated specifications (parameterized sweeps).

#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"
#include "src/core/deduce.h"
#include "src/core/isvalid.h"
#include "src/core/resolver.h"
#include "src/encode/cnf_builder.h"
#include "src/sat/dimacs.h"

namespace ccr {
namespace {

// Random specification: a chain-structured vocabulary like the Person
// generator but tiny and noisy; may be valid or invalid.
Specification RandomSpec(uint64_t seed, bool allow_conflicts) {
  Rng rng(seed);
  Schema schema = Schema::Make({"s", "j", "k", "c"}).value();
  EntityInstance inst(schema, "rand");
  const int n_tuples = 2 + static_cast<int>(rng.Below(5));
  for (int t = 0; t < n_tuples; ++t) {
    inst.Add(Tuple({Value::Str("s" + std::to_string(rng.Below(4))),
                    Value::Str("j" + std::to_string(rng.Below(3))),
                    Value::Int(static_cast<int64_t>(rng.Below(4))),
                    Value::Str("c" + std::to_string(rng.Below(3)))}))
        .ok();
  }
  Specification se;
  se.temporal = TemporalInstance(std::move(inst));
  // Random chain constraints on s.
  std::vector<CurrencyConstraint> sigma;
  std::vector<ConstantCfd> gamma;
  const int n_chain = 1 + static_cast<int>(rng.Below(4));
  for (int i = 0; i < n_chain; ++i) {
    const int from = static_cast<int>(rng.Below(4));
    int to = static_cast<int>(rng.Below(4));
    if (!allow_conflicts) to = (from + 1) % 4;  // acyclic-ish
    if (from == to) continue;
    CurrencyConstraint phi(0);
    phi.AddConstCompare(1, 0, CmpOp::kEq,
                        Value::Str("s" + std::to_string(from)));
    phi.AddConstCompare(2, 0, CmpOp::kEq,
                        Value::Str("s" + std::to_string(to)));
    sigma.push_back(std::move(phi));
  }
  // Monotone k; propagation s -> j.
  {
    CurrencyConstraint phi(2);
    phi.AddAttrCompare(2, CmpOp::kLt);
    sigma.push_back(std::move(phi));
  }
  {
    CurrencyConstraint phi(1);
    phi.AddOrder(0);
    sigma.push_back(std::move(phi));
  }
  // A CFD j -> c.
  if (rng.Chance(0.7)) {
    gamma.emplace_back(
        std::vector<std::pair<int, Value>>{{1, Value::Str("j1")}}, 3,
        Value::Str("c0"));
  }
  CCR_CHECK(se.SetRules(std::move(sigma), std::move(gamma)).ok());
  return se;
}

class PropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(PropertySweep, DeduceOrderIsSoundWrtNaive) {
  // Every strictly proven order (positive units) must be implied per
  // Lemma 6. Run on valid specifications only.
  const Specification se = RandomSpec(GetParam() * 7919 + 13, false);
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const sat::Cnf phi = BuildCnf(*inst);
  if (!IsValidCnf(phi).valid) return;  // vacuous for invalid specs
  DeduceOptions strict;
  strict.paper_negative_units = false;
  const DeducedOrders fast = DeduceOrder(*inst, phi, strict);
  const DeducedOrders naive = NaiveDeduce(*inst, phi);
  for (int a = 0; a < inst->varmap.num_attrs(); ++a) {
    for (const auto& [u, v] : fast.per_attr[a].Pairs()) {
      EXPECT_TRUE(naive.per_attr[a].Less(u, v))
          << "seed " << GetParam() << " attr " << a;
    }
  }
}

TEST_P(PropertySweep, DeducedOrdersAreConsistentWithSe) {
  // Adding Od back into Se as explicit value orders must keep it valid:
  // deduction may never contradict the specification.
  const Specification se = RandomSpec(GetParam() * 104729 + 7, false);
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  sat::Cnf phi = BuildCnf(*inst);
  if (!IsValidCnf(phi).valid) return;
  DeduceOptions strict;
  strict.paper_negative_units = false;
  const DeducedOrders od = DeduceOrder(*inst, phi, strict);
  for (int a = 0; a < inst->varmap.num_attrs(); ++a) {
    for (const auto& [u, v] : od.per_attr[a].Pairs()) {
      phi.AddUnit(sat::Lit::Pos(inst->varmap.VarOf(a, u, v)));
    }
  }
  EXPECT_TRUE(IsValidCnf(phi).valid) << "seed " << GetParam();
}

TEST_P(PropertySweep, DroppingConstraintsPreservesValidity) {
  // Validity is anti-monotone in the constraint sets: a valid Se stays
  // valid when Σ or Γ shrink.
  const Specification se = RandomSpec(GetParam() * 31 + 3, true);
  auto full = IsValid(se);
  ASSERT_TRUE(full.ok());
  if (!full->valid) return;
  Specification fewer = se;
  std::vector<CurrencyConstraint> sigma = se.sigma();
  if (!sigma.empty()) sigma.pop_back();
  ASSERT_TRUE(fewer.SetRules(std::move(sigma), {}).ok());
  auto r = IsValid(fewer);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->valid) << "seed " << GetParam();
}

TEST_P(PropertySweep, TrueValuesAreCandidates) {
  // An extracted true value must always be maximal (a candidate).
  const Specification se = RandomSpec(GetParam() * 193 + 11, false);
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const sat::Cnf phi = BuildCnf(*inst);
  if (!IsValidCnf(phi).valid) return;
  const DeducedOrders od = DeduceOrder(*inst, phi);
  const auto truth = ExtractTrueValueIndices(inst->varmap, od);
  const auto candidates = CandidateValues(inst->varmap, od);
  for (int a = 0; a < inst->varmap.num_attrs(); ++a) {
    if (truth[a] < 0) continue;
    const auto& cands = candidates[a];
    EXPECT_NE(std::find(cands.begin(), cands.end(), truth[a]), cands.end())
        << "seed " << GetParam() << " attr " << a;
  }
}

TEST_P(PropertySweep, PhiRoundTripsThroughDimacs) {
  const Specification se = RandomSpec(GetParam() * 631 + 17, true);
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const sat::Cnf phi = BuildCnf(*inst);
  auto parsed = sat::FromDimacs(sat::ToDimacs(phi));
  ASSERT_TRUE(parsed.ok());
  // DIMACS spells the order blocks out: the text is the materialized Φ.
  EXPECT_EQ(parsed->num_clauses(), phi.Materialized().num_clauses());
  // Satisfiability is preserved.
  EXPECT_EQ(IsValidCnf(phi).valid, IsValidCnf(*parsed).valid);
}

TEST_P(PropertySweep, ResolverNeverInventsValues) {
  // Every resolved value must come from the instance or a CFD pattern.
  const Specification se = RandomSpec(GetParam() * 271 + 23, false);
  auto r = Resolve(se, nullptr);
  ASSERT_TRUE(r.ok());
  if (!r->valid) return;
  for (int a = 0; a < se.schema().size(); ++a) {
    if (!r->resolved[a]) continue;
    bool in_instance = false;
    for (const Tuple& t : se.instance().tuples()) {
      if (t.at(a) == r->true_values[a]) in_instance = true;
    }
    bool in_cfd = false;
    for (const auto& cfd : se.gamma()) {
      if (cfd.rhs_attr() == a && cfd.rhs_value() == r->true_values[a]) {
        in_cfd = true;
      }
    }
    EXPECT_TRUE(in_instance || in_cfd)
        << "seed " << GetParam() << " attr " << a;
  }
}

TEST_P(PropertySweep, RepeatedResolutionIsDeterministic) {
  const Specification se = RandomSpec(GetParam() * 13 + 1, false);
  auto r1 = Resolve(se, nullptr);
  auto r2 = Resolve(se, nullptr);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->complete, r2->complete);
  for (size_t a = 0; a < r1->true_values.size(); ++a) {
    EXPECT_EQ(r1->true_values[a], r2->true_values[a]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep, ::testing::Range(0, 40));

}  // namespace
}  // namespace ccr
