// Unit tests for src/constraints: predicates, currency constraints, CFDs,
// specifications.

#include <gtest/gtest.h>

#include "src/constraints/specification.h"

namespace ccr {
namespace {

TEST(EvalCmpTest, AllOperators) {
  const Value a = Value::Int(1);
  const Value b = Value::Int(2);
  EXPECT_TRUE(EvalCmp(CmpOp::kLt, a, b));
  EXPECT_FALSE(EvalCmp(CmpOp::kLt, b, a));
  EXPECT_TRUE(EvalCmp(CmpOp::kLe, a, a));
  EXPECT_TRUE(EvalCmp(CmpOp::kGt, b, a));
  EXPECT_TRUE(EvalCmp(CmpOp::kGe, b, b));
  EXPECT_TRUE(EvalCmp(CmpOp::kEq, a, a));
  EXPECT_TRUE(EvalCmp(CmpOp::kNe, a, b));
}

TEST(EvalCmpTest, NullComparesBelowEverything) {
  EXPECT_TRUE(EvalCmp(CmpOp::kLt, Value::Null(), Value::Int(0)));
  EXPECT_TRUE(EvalCmp(CmpOp::kLt, Value::Null(), Value::Str("")));
  EXPECT_FALSE(EvalCmp(CmpOp::kLt, Value::Null(), Value::Null()));
  EXPECT_TRUE(EvalCmp(CmpOp::kEq, Value::Null(), Value::Null()));
}

TEST(CmpOpToStringTest, Renders) {
  EXPECT_EQ(CmpOpToString(CmpOp::kEq), "=");
  EXPECT_EQ(CmpOpToString(CmpOp::kNe), "!=");
  EXPECT_EQ(CmpOpToString(CmpOp::kLt), "<");
  EXPECT_EQ(CmpOpToString(CmpOp::kLe), "<=");
  EXPECT_EQ(CmpOpToString(CmpOp::kGt), ">");
  EXPECT_EQ(CmpOpToString(CmpOp::kGe), ">=");
}

class CurrencyConstraintTest : public ::testing::Test {
 protected:
  Schema schema_ = Schema::Make({"status", "kids"}).value();
  Tuple working_{Value::Str("working"), Value::Int(0)};
  Tuple retired_{Value::Str("retired"), Value::Int(3)};
};

TEST_F(CurrencyConstraintTest, ConstCompare) {
  // ϕ1: t1[status]=working & t2[status]=retired -> t1 < t2 @ status.
  CurrencyConstraint phi(0);
  phi.AddConstCompare(1, 0, CmpOp::kEq, Value::Str("working"));
  phi.AddConstCompare(2, 0, CmpOp::kEq, Value::Str("retired"));
  EXPECT_TRUE(phi.ComparisonsHold(working_, retired_));
  EXPECT_FALSE(phi.ComparisonsHold(retired_, working_));
  EXPECT_FALSE(phi.ComparisonsHold(working_, working_));
  EXPECT_TRUE(phi.IsComparisonOnly());
}

TEST_F(CurrencyConstraintTest, AttrCompare) {
  // ϕ4: t1[kids] < t2[kids] -> t1 < t2 @ kids.
  CurrencyConstraint phi(1);
  phi.AddAttrCompare(1, CmpOp::kLt);
  EXPECT_TRUE(phi.ComparisonsHold(working_, retired_));  // 0 < 3
  EXPECT_FALSE(phi.ComparisonsHold(retired_, working_));
}

TEST_F(CurrencyConstraintTest, OrderPredicatesNotEvaluatedHere) {
  // ϕ5: prec(status) -> job-like; ComparisonsHold ignores order preds.
  CurrencyConstraint phi(1);
  phi.AddOrder(0);
  EXPECT_TRUE(phi.ComparisonsHold(working_, retired_));
  EXPECT_FALSE(phi.IsComparisonOnly());
}

TEST_F(CurrencyConstraintTest, ToStringMatchesPaperShape) {
  CurrencyConstraint phi(0);
  phi.AddConstCompare(1, 0, CmpOp::kEq, Value::Str("working"));
  phi.AddConstCompare(2, 0, CmpOp::kEq, Value::Str("retired"));
  const std::string s = phi.ToString(schema_);
  EXPECT_NE(s.find("t1[status] = 'working'"), std::string::npos);
  EXPECT_NE(s.find("t2[status] = 'retired'"), std::string::npos);
  EXPECT_NE(s.find("-> t1 < t2 @ status"), std::string::npos);
}

TEST(ConstantCfdTest, AccessorsAndToString) {
  Schema schema = Schema::Make({"AC", "city"}).value();
  ConstantCfd psi({{0, Value::Int(213)}}, 1, Value::Str("LA"));
  EXPECT_EQ(psi.rhs_attr(), 1);
  EXPECT_EQ(psi.rhs_value(), Value::Str("LA"));
  ASSERT_EQ(psi.lhs().size(), 1u);
  const std::string s = psi.ToString(schema);
  EXPECT_NE(s.find("AC='213'"), std::string::npos);
  EXPECT_NE(s.find("city='LA'"), std::string::npos);
}

TEST(SpecificationTest, ExtendSharesConstraints) {
  Schema schema = Schema::Make({"a"}).value();
  EntityInstance inst(schema, "e");
  ASSERT_TRUE(inst.Add(Tuple({Value::Int(1)})).ok());
  ASSERT_TRUE(inst.Add(Tuple({Value::Int(2)})).ok());

  Specification se;
  se.temporal = TemporalInstance(std::move(inst));
  CurrencyConstraint phi(0);
  phi.AddAttrCompare(0, CmpOp::kLt);
  ASSERT_TRUE(se.SetRules({phi}, {}).ok());

  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Int(9)}));
  ot.orders.emplace_back(0, 0, 2);
  auto extended = Extend(se, ot);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->instance().size(), 3);
  EXPECT_EQ(extended->sigma().size(), 1u);
  EXPECT_EQ(extended->temporal.orders(0).size(), 1u);
  // The original is untouched.
  EXPECT_EQ(se.instance().size(), 2);
}

}  // namespace
}  // namespace ccr
