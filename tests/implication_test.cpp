// Tests for the implication and true-value problems of §IV
// (src/core/implication.h).

#include <gtest/gtest.h>

#include "paper_fixture.h"
#include "src/core/implication.h"
#include "src/core/resolver.h"

namespace ccr {
namespace {

using testing::EdithSpec;
using testing::GeorgeSpec;
using testing::PaperSchema;

// Ot with one order pair over Se's existing tuples.
PartialTemporalOrder OnePair(const char* attr_name, int less, int more) {
  PartialTemporalOrder ot;
  ot.orders.emplace_back(PaperSchema().IndexOf(attr_name), less, more);
  return ot;
}

TEST(ImpliesTest, EmptyOtIsAlwaysImplied) {
  auto r = Implies(EdithSpec(), PartialTemporalOrder{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->implied);
  EXPECT_EQ(r->sat_calls, 0);
}

TEST(ImpliesTest, ConstraintForcedOrderIsImplied) {
  // ϕ1 forces r1 ≺status r2 (working before retired) in every completion.
  auto r = Implies(EdithSpec(), OnePair("status", 0, 1));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->implied);
  EXPECT_EQ(r->sat_calls, 1);
}

TEST(ImpliesTest, TransitivelyForcedOrderIsImplied) {
  // working ≺ deceased only follows through transitivity of ϕ1 and ϕ2.
  auto r = Implies(EdithSpec(), OnePair("status", 0, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->implied);
}

TEST(ImpliesTest, ReversedOrderIsNotImplied) {
  auto r = Implies(EdithSpec(), OnePair("status", 1, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->implied);
  EXPECT_EQ(r->witness_attr, PaperSchema().IndexOf("status"));
  EXPECT_EQ(r->witness_less, 1);
  EXPECT_EQ(r->witness_more, 0);
}

TEST(ImpliesTest, OpenOrderIsNotImplied) {
  // George's city order is undetermined (Example 3/4).
  auto r = Implies(GeorgeSpec(), OnePair("city", 0, 1));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->implied);
}

TEST(ImpliesTest, CfdDerivedOrderIsImplied) {
  // LA becomes Edith's top city only through ψ1 after the AC currency
  // inference: NY ≺city LA is implied (tuples r1 → r3).
  auto r = Implies(EdithSpec(), OnePair("city", 0, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->implied);
}

TEST(ImpliesTest, EqualValuesTriviallyIncluded) {
  // r2 and r3 share job "n/a": the ⪯ pair holds without a SAT call.
  auto r = Implies(EdithSpec(), OnePair("job", 1, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->implied);
  EXPECT_EQ(r->sat_calls, 0);
}

TEST(ImpliesTest, NullLessSideTriviallyIncluded) {
  // r3[kids] is null, ranked lowest: r3 ⪯kids r1 holds trivially.
  auto r = Implies(EdithSpec(), OnePair("kids", 2, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->implied);
  EXPECT_EQ(r->sat_calls, 0);
}

TEST(ImpliesTest, NullMoreSideNeverImplied) {
  // A null can never be strictly more current than a value.
  auto r = Implies(EdithSpec(), OnePair("kids", 0, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->implied);
}

TEST(ImpliesTest, MixedPairsShortCircuitOnWitness) {
  PartialTemporalOrder ot;
  ot.orders.emplace_back(PaperSchema().IndexOf("status"), 0, 1);  // implied
  ot.orders.emplace_back(PaperSchema().IndexOf("status"), 1, 0);  // not
  ot.orders.emplace_back(PaperSchema().IndexOf("kids"), 0, 1);    // implied
  auto r = Implies(EdithSpec(), ot);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->implied);
  EXPECT_EQ(r->witness_less, 1);
}

TEST(ImpliesTest, RejectsNewTuples) {
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(
      Tuple(std::vector<Value>(PaperSchema().size(), Value::Null())));
  auto r = Implies(EdithSpec(), ot);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ImpliesTest, RejectsOutOfRangePairs) {
  auto r = Implies(EdithSpec(), OnePair("status", 0, 9));
  EXPECT_FALSE(r.ok());
}

TEST(ImpliesTest, InvalidSpecificationRejected) {
  Specification se = EdithSpec();
  const int status = PaperSchema().IndexOf("status");
  ASSERT_TRUE(se.temporal.AddOrder(status, 1, 0).ok());  // contradicts ϕ1
  auto r = Implies(se, OnePair("kids", 0, 1));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidSpec);
}

TEST(AnalyzeTrueValueTest, EdithHasTrueValue) {
  auto r = AnalyzeTrueValue(EdithSpec());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->exists);
  // Spot-check: the status true value is "deceased".
  const Specification se = EdithSpec();
  const VarMap vm = VarMap::Build(se).value();
  const int status = PaperSchema().IndexOf("status");
  ASSERT_GE(r->true_value_index[status], 0);
  EXPECT_EQ(vm.domain(status)[r->true_value_index[status]],
            Value::Str("deceased"));
}

TEST(AnalyzeTrueValueTest, GeorgeHasNoTrueValue) {
  auto r = AnalyzeTrueValue(GeorgeSpec());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->exists);
  // name and kids are still individually determined.
  EXPECT_GE(r->true_value_index[PaperSchema().IndexOf("name")], 0);
  EXPECT_GE(r->true_value_index[PaperSchema().IndexOf("kids")], 0);
  EXPECT_LT(r->true_value_index[PaperSchema().IndexOf("status")], 0);
}

TEST(AnalyzeTrueValueTest, GeorgeAfterUserOrderHasTrueValue) {
  // Example 6: with r6 ≺status r5 provided, T(Se ⊕ Ot) exists.
  Specification se = GeorgeSpec();
  ASSERT_TRUE(
      se.temporal.AddOrder(PaperSchema().IndexOf("status"), 2, 1).ok());
  auto r = AnalyzeTrueValue(se);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->exists);
}

TEST(AnalyzeTrueValueTest, InvalidSpecificationRejected) {
  Specification se = EdithSpec();
  const int status = PaperSchema().IndexOf("status");
  ASSERT_TRUE(se.temporal.AddOrder(status, 1, 0).ok());
  auto r = AnalyzeTrueValue(se);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidSpec);
}

TEST(AnalyzeTrueValueTest, AgreesWithResolverOnEdith) {
  auto exact = AnalyzeTrueValue(EdithSpec());
  ASSERT_TRUE(exact.ok());
  auto fast = Resolve(EdithSpec(), nullptr);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(exact->exists, fast->complete);
}

}  // namespace
}  // namespace ccr
