// Tests for IsValid (§V-A): satisfiability of entity specifications.

#include <gtest/gtest.h>

#include "paper_fixture.h"
#include "src/core/isvalid.h"

namespace ccr {
namespace {

using testing::EdithSpec;
using testing::GeorgeSpec;
using testing::PaperSchema;

TEST(IsValidTest, PaperSpecificationsAreValid) {
  // §II-C: "the specification of E1 (or E2) and the constraints in Fig. 3
  // is valid."
  auto edith = IsValid(EdithSpec());
  ASSERT_TRUE(edith.ok());
  EXPECT_TRUE(edith->valid);
  auto george = IsValid(GeorgeSpec());
  ASSERT_TRUE(george.ok());
  EXPECT_TRUE(george->valid);
}

TEST(IsValidTest, EmptySpecificationIsValid) {
  Specification se;
  se.temporal = TemporalInstance(EntityInstance(PaperSchema(), "none"));
  auto r = IsValid(se);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->valid);
}

TEST(IsValidTest, CyclicCurrencyConstraintsInvalid) {
  // Two constraints ordering the same pair both ways conflict.
  Specification se;
  Schema schema = Schema::Make({"status"}).value();
  EntityInstance inst(schema, "e");
  ASSERT_TRUE(inst.Add(Tuple({Value::Str("a")})).ok());
  ASSERT_TRUE(inst.Add(Tuple({Value::Str("b")})).ok());
  se.temporal = TemporalInstance(std::move(inst));
  std::vector<CurrencyConstraint> sigma;
  for (const char* t :
       {"t1[status] = 'a' & t2[status] = 'b' -> status",
        "t1[status] = 'b' & t2[status] = 'a' -> status"}) {
    auto phi = ParseCurrencyConstraint(schema, t);
    ASSERT_TRUE(phi.ok());
    sigma.push_back(std::move(phi).value());
  }
  ASSERT_TRUE(se.SetRules(std::move(sigma), {}).ok());
  auto r = IsValid(se);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->valid);
}

TEST(IsValidTest, TransitivityCycleDetected) {
  // a < b, b < c, c < a through three constraints: invalid only through
  // the transitivity axioms.
  Specification se;
  Schema schema = Schema::Make({"x"}).value();
  EntityInstance inst(schema, "e");
  for (const char* v : {"a", "b", "c"}) {
    ASSERT_TRUE(inst.Add(Tuple({Value::Str(v)})).ok());
  }
  se.temporal = TemporalInstance(std::move(inst));
  std::vector<CurrencyConstraint> sigma;
  for (auto [from, to] : {std::pair{"a", "b"}, {"b", "c"}, {"c", "a"}}) {
    auto phi = ParseCurrencyConstraint(
        schema, std::string("t1[x] = '") + from + "' & t2[x] = '" + to +
                    "' -> x");
    ASSERT_TRUE(phi.ok());
    sigma.push_back(std::move(phi).value());
  }
  ASSERT_TRUE(se.SetRules(std::move(sigma), {}).ok());
  auto r = IsValid(se);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->valid);
}

TEST(IsValidTest, ConflictingUserOrderInvalidates) {
  // Explicit currency order r2 ≺status r1 contradicts ϕ1 (working before
  // retired).
  Specification se = EdithSpec();
  ASSERT_TRUE(
      se.temporal.AddOrder(PaperSchema().IndexOf("status"), 1, 0).ok());
  auto r = IsValid(se);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->valid);
}

TEST(IsValidTest, ConsistentUserOrderStaysValid) {
  Specification se = EdithSpec();
  ASSERT_TRUE(
      se.temporal.AddOrder(PaperSchema().IndexOf("status"), 0, 1).ok());
  auto r = IsValid(se);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->valid);
}

TEST(IsValidTest, CfdConflictingWithConstraintsInvalid) {
  // Force city=LA (via CFD on dominating AC) while a currency constraint
  // makes a *different* city the most current one — unsatisfiable
  // combination detected through the interaction of Σ and Γ.
  Schema schema = Schema::Make({"status", "AC", "city"}).value();
  EntityInstance inst(schema, "e");
  ASSERT_TRUE(inst.Add(Tuple({Value::Str("working"), Value::Int(213),
                              Value::Str("LA")}))
                  .ok());
  ASSERT_TRUE(inst.Add(Tuple({Value::Str("retired"), Value::Int(213),
                              Value::Str("NY")}))
                  .ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(inst));
  std::vector<CurrencyConstraint> sigma;
  for (const char* t :
       {"t1[status] = 'working' & t2[status] = 'retired' -> status",
        // city follows status: NY (retired tuple) would be most current
        "prec(status) -> city"}) {
    auto phi = ParseCurrencyConstraint(schema, t);
    ASSERT_TRUE(phi.ok());
    sigma.push_back(std::move(phi).value());
  }
  // But AC 213 is the only AC value, so the CFD forces city=LA.
  auto psi = ParseCfd(schema, "AC = 213 -> city = 'LA'");
  ASSERT_TRUE(psi.ok());
  ASSERT_TRUE(se.SetRules(std::move(sigma), {std::move(psi).value()}).ok());
  auto r = IsValid(se);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->valid);
}

TEST(IsValidTest, ReportsEncodingSizes) {
  auto r = IsValid(EdithSpec());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->num_vars, 0);
  EXPECT_GT(r->num_clauses, 0);
  // Φ's full size: the order blocks' transitivity axioms count too.
  auto inst = Instantiation::Build(EdithSpec());
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(r->num_clauses, BuildCnf(*inst).Materialized().num_clauses());
}

TEST(IsValidTest, SingleTupleAlwaysValid) {
  Specification se = EdithSpec();
  EntityInstance single(PaperSchema(), "single");
  ASSERT_TRUE(single.Add(se.instance().tuple(0)).ok());
  se.temporal = TemporalInstance(std::move(single));
  auto r = IsValid(se);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->valid);
}

}  // namespace
}  // namespace ccr
