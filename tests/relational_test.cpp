// Unit tests for src/relational: Value, Schema, Tuple, EntityInstance.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/relational/entity_instance.h"

namespace ccr {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, FactoryTypes) {
  EXPECT_EQ(Value::Int(3).type(), ValueType::kInt);
  EXPECT_EQ(Value::Real(3.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value::Str("x").type(), ValueType::kString);
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
}

TEST(ValueTest, EqualitySameType) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Int(4));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
  EXPECT_NE(Value::Str("a"), Value::Str("b"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, IntAndDoubleCompareNumerically) {
  EXPECT_EQ(Value::Int(3), Value::Real(3.0));
  EXPECT_NE(Value::Int(3), Value::Real(3.5));
  EXPECT_LT(Value::Int(3), Value::Real(3.5));
}

TEST(ValueTest, NullRanksLowest) {
  // Example 2(b): null < k for any value k.
  EXPECT_LT(Value::Null(), Value::Int(-100));
  EXPECT_LT(Value::Null(), Value::Str(""));
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, NumbersBeforeStrings) {
  EXPECT_LT(Value::Int(999), Value::Str("0"));
}

TEST(ValueTest, StringOrderIsLexicographic) {
  EXPECT_LT(Value::Str("NY"), Value::Str("SFC"));
  EXPECT_GT(Value::Str("b"), Value::Str("a"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Real(3.0).Hash());
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(SchemaTest, MakeAndLookup) {
  auto s = Schema::Make({"name", "status", "job"});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), 3);
  EXPECT_EQ(s->IndexOf("status"), 1);
  EXPECT_EQ(s->IndexOf("missing"), -1);
  EXPECT_EQ(s->name(2), "job");
}

TEST(SchemaTest, RejectsDuplicates) {
  auto s = Schema::Make({"a", "b", "a"});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RequireReturnsNotFound) {
  auto s = Schema::Make({"a"}).value();
  EXPECT_TRUE(s.Require("a").ok());
  EXPECT_EQ(s.Require("zz").status().code(), StatusCode::kNotFound);
}

TEST(TupleTest, AccessAndEquality) {
  Tuple t({Value::Str("x"), Value::Int(1)});
  EXPECT_EQ(t.size(), 2);
  EXPECT_EQ(t.at(0), Value::Str("x"));
  EXPECT_EQ(t[1], Value::Int(1));
  EXPECT_EQ(t, Tuple({Value::Str("x"), Value::Int(1)}));
  EXPECT_NE(t, Tuple({Value::Str("x"), Value::Int(2)}));
}

TEST(TupleTest, ToStringFormats) {
  Tuple t({Value::Str("a"), Value::Null()});
  EXPECT_EQ(t.ToString(), "(a, null)");
  Schema s = Schema::Make({"n", "k"}).value();
  EXPECT_EQ(t.ToString(s), "n=a, k=null");
}

class EntityInstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Make({"name", "city", "kids"}).value();
    instance_ = EntityInstance(schema_, "edith");
    ASSERT_TRUE(instance_
                    .Add(Tuple({Value::Str("Edith"), Value::Str("NY"),
                                Value::Int(0)}))
                    .ok());
    ASSERT_TRUE(instance_
                    .Add(Tuple({Value::Str("Edith"), Value::Str("SFC"),
                                Value::Int(3)}))
                    .ok());
    ASSERT_TRUE(instance_
                    .Add(Tuple({Value::Str("Edith"), Value::Str("NY"),
                                Value::Null()}))
                    .ok());
  }

  Schema schema_;
  EntityInstance instance_;
};

TEST_F(EntityInstanceTest, SizeAndAccess) {
  EXPECT_EQ(instance_.size(), 3);
  EXPECT_EQ(instance_.entity_id(), "edith");
  EXPECT_EQ(instance_.tuple(1).at(1), Value::Str("SFC"));
}

TEST_F(EntityInstanceTest, RejectsWrongArity) {
  EXPECT_FALSE(instance_.Add(Tuple({Value::Str("x")})).ok());
}

TEST_F(EntityInstanceTest, ActiveDomainDedupesAndSkipsNulls) {
  const auto cities = instance_.ActiveDomain(1);
  ASSERT_EQ(cities.size(), 2u);
  EXPECT_EQ(cities[0], Value::Str("NY"));  // first-occurrence order
  EXPECT_EQ(cities[1], Value::Str("SFC"));
  const auto kids = instance_.ActiveDomain(2);
  EXPECT_EQ(kids.size(), 2u);  // null excluded
}

TEST_F(EntityInstanceTest, ConflictDetection) {
  EXPECT_FALSE(instance_.HasConflict(0));  // name is constant
  EXPECT_TRUE(instance_.HasConflict(1));
  EXPECT_TRUE(instance_.HasConflict(2));
  EXPECT_EQ(instance_.CountConflictAttributes(), 2);
}

TEST(EntityInstanceConflictTest, MatchesActiveDomainWithNullsAndDuplicates) {
  // HasConflict stops at the second distinct non-null value; it must agree
  // with the active domain's size on every column, whatever the mix of
  // nulls, repeats and equal values of different types (Int 3 == Real 3.0).
  const Value pool[] = {Value::Null(), Value::Null(), Value::Int(3),
                        Value::Real(3.0), Value::Int(4), Value::Str("x")};
  const int columns = 40;
  std::vector<std::string> names;
  for (int a = 0; a < columns; ++a) names.push_back("a" + std::to_string(a));
  EntityInstance e(Schema::Make(names).value(), "mixed");
  // Column a draws from the first 2 + a % 5 pool entries, so the early
  // columns hold only nulls and 3s; tuple i picks entry (i * (a + 1)) % n.
  for (int i = 0; i < 7; ++i) {
    std::vector<Value> row;
    for (int a = 0; a < columns; ++a) {
      const int n = 2 + a % 5;
      row.push_back(pool[(i * (a + 1) + a / 5) % n]);
    }
    ASSERT_TRUE(e.Add(Tuple(std::move(row))).ok());
  }
  int conflicted = 0;
  for (int a = 0; a < columns; ++a) {
    EXPECT_EQ(e.HasConflict(a), e.ActiveDomain(a).size() > 1) << "attr " << a;
    conflicted += e.HasConflict(a) ? 1 : 0;
  }
  EXPECT_GT(conflicted, 0);
  EXPECT_LT(conflicted, columns);

  EntityInstance nulls(Schema::Make({"a"}).value(), "nulls");
  ASSERT_TRUE(nulls.Add(Tuple({Value::Null()})).ok());
  ASSERT_TRUE(nulls.Add(Tuple({Value::Int(3)})).ok());
  ASSERT_TRUE(nulls.Add(Tuple({Value::Null()})).ok());
  ASSERT_TRUE(nulls.Add(Tuple({Value::Real(3.0)})).ok());
  EXPECT_FALSE(nulls.HasConflict(0));
  EXPECT_EQ(nulls.ActiveDomain(0).size(), 1u);
  ASSERT_TRUE(nulls.Add(Tuple({Value::Int(4)})).ok());
  EXPECT_TRUE(nulls.HasConflict(0));
}

TEST(EntityInstanceEmptyTest, EmptyInstance) {
  EntityInstance e(Schema::Make({"a"}).value(), "none");
  EXPECT_TRUE(e.empty());
  EXPECT_TRUE(e.ActiveDomain(0).empty());
  EXPECT_EQ(e.CountConflictAttributes(), 0);
}

}  // namespace
}  // namespace ccr
