// Unit tests for src/order: DenseBitset, PartialOrder, TemporalInstance.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/order/partial_order.h"
#include "src/order/temporal_instance.h"

namespace ccr {
namespace {

TEST(DenseBitsetTest, SetAndTest) {
  DenseBitset b(130);
  EXPECT_FALSE(b.Test(0));
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3);
}

TEST(DenseBitsetTest, UnionWith) {
  DenseBitset a(70), b(70);
  a.Set(3);
  b.Set(65);
  a.UnionWith(b);
  EXPECT_TRUE(a.Test(3));
  EXPECT_TRUE(a.Test(65));
  EXPECT_EQ(a.Count(), 2);
}

TEST(PartialOrderTest, BasicAdd) {
  PartialOrder po(3);
  ASSERT_TRUE(po.Add(0, 1).ok());
  EXPECT_TRUE(po.Less(0, 1));
  EXPECT_FALSE(po.Less(1, 0));
  EXPECT_TRUE(po.Incomparable(0, 2));
}

TEST(PartialOrderTest, TransitiveClosureMaintained) {
  PartialOrder po(4);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(1, 2).ok());
  EXPECT_TRUE(po.Less(0, 2));
  ASSERT_TRUE(po.Add(2, 3).ok());
  EXPECT_TRUE(po.Less(0, 3));
  EXPECT_TRUE(po.Less(1, 3));
}

TEST(PartialOrderTest, ClosurePropagatesToPredecessors) {
  PartialOrder po(4);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(2, 3).ok());
  // Linking 1 -> 2 must make 0 < 3 via both closures.
  ASSERT_TRUE(po.Add(1, 2).ok());
  EXPECT_TRUE(po.Less(0, 3));
}

TEST(PartialOrderTest, RejectsCycles) {
  PartialOrder po(3);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(1, 2).ok());
  EXPECT_FALSE(po.Add(2, 0).ok());
  EXPECT_FALSE(po.Add(1, 0).ok());
}

TEST(PartialOrderTest, RejectsSelfLoopsAndOutOfRange) {
  PartialOrder po(2);
  EXPECT_FALSE(po.Add(0, 0).ok());
  EXPECT_FALSE(po.Add(0, 5).ok());
  EXPECT_FALSE(po.Add(-1, 0).ok());
}

TEST(PartialOrderTest, DuplicateAddIsIdempotent) {
  PartialOrder po(2);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(0, 1).ok());
  EXPECT_EQ(po.CountPairs(), 1);
}

TEST(PartialOrderTest, MaximalElements) {
  PartialOrder po(4);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(2, 1).ok());
  const auto maximal = po.Maximal();
  // 1 and 3 have nothing above them.
  ASSERT_EQ(maximal.size(), 2u);
  EXPECT_EQ(maximal[0], 1);
  EXPECT_EQ(maximal[1], 3);
}

TEST(PartialOrderTest, DominatesAll) {
  PartialOrder po(3);
  ASSERT_TRUE(po.Add(0, 2).ok());
  EXPECT_FALSE(po.DominatesAll(2));  // 1 is incomparable
  ASSERT_TRUE(po.Add(1, 2).ok());
  EXPECT_TRUE(po.DominatesAll(2));
  EXPECT_FALSE(po.DominatesAll(0));
}

TEST(PartialOrderTest, PairsAndCount) {
  PartialOrder po(3);
  ASSERT_TRUE(po.Add(0, 1).ok());
  ASSERT_TRUE(po.Add(1, 2).ok());
  EXPECT_EQ(po.CountPairs(), 3);  // (0,1), (1,2), (0,2)
  EXPECT_EQ(po.Pairs().size(), 3u);
}

TEST(PartialOrderTest, SingleElementDominatesVacuously) {
  PartialOrder po(1);
  EXPECT_TRUE(po.DominatesAll(0));
}

class TemporalInstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema = Schema::Make({"status", "kids"}).value();
    EntityInstance inst(schema, "e");
    ASSERT_TRUE(
        inst.Add(Tuple({Value::Str("working"), Value::Int(0)})).ok());
    ASSERT_TRUE(
        inst.Add(Tuple({Value::Str("retired"), Value::Int(3)})).ok());
    ASSERT_TRUE(inst.Add(Tuple({Value::Str("retired"), Value::Null()})).ok());
    ti_ = TemporalInstance(std::move(inst));
  }

  TemporalInstance ti_;
};

TEST_F(TemporalInstanceTest, AddOrderRecordsStrictPairs) {
  ASSERT_TRUE(ti_.AddOrder(0, 0, 1).ok());
  ASSERT_EQ(ti_.orders(0).size(), 1u);
  EXPECT_EQ(ti_.orders(0)[0], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(ti_.TotalOrderPairs(), 1);
}

TEST_F(TemporalInstanceTest, EqualValuePairsAreDropped) {
  ASSERT_TRUE(ti_.AddOrder(0, 1, 2).ok());  // both "retired"
  EXPECT_TRUE(ti_.orders(0).empty());
}

TEST_F(TemporalInstanceTest, SelfPairsAreDropped) {
  ASSERT_TRUE(ti_.AddOrder(0, 1, 1).ok());
  EXPECT_TRUE(ti_.orders(0).empty());
}

TEST_F(TemporalInstanceTest, RejectsOutOfRange) {
  EXPECT_FALSE(ti_.AddOrder(5, 0, 1).ok());
  EXPECT_FALSE(ti_.AddOrder(0, 0, 9).ok());
}

TEST_F(TemporalInstanceTest, ExtendAppendsTuplesAndOrders) {
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("deceased"), Value::Null()}));
  ot.orders.emplace_back(0, 0, 3);  // old tuple 0 < new tuple 3 on status
  ot.orders.emplace_back(0, 1, 3);
  auto extended = Extend(ti_, ot);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->instance().size(), 4);
  EXPECT_EQ(extended->orders(0).size(), 2u);
  EXPECT_EQ(ot.size(), 2);
}

TEST_F(TemporalInstanceTest, ExtendRejectsBadIndices) {
  PartialTemporalOrder ot;
  ot.orders.emplace_back(0, 0, 7);
  EXPECT_FALSE(Extend(ti_, ot).ok());
}

// Every tuple and every stored pair, for byte-level comparisons.
std::string Render(const TemporalInstance& ti) {
  std::string out = ti.instance().ToString();
  for (int a = 0; a < ti.schema().size(); ++a) {
    out += "attr " + std::to_string(a) + ":";
    for (const auto& [less, more] : ti.orders(a)) {
      out += " " + std::to_string(less) + "<" + std::to_string(more);
    }
    out += "\n";
  }
  return out;
}

TEST_F(TemporalInstanceTest, AppendRejectingBadArityLeavesItUnchanged) {
  ASSERT_TRUE(ti_.AddOrder(0, 0, 1).ok());
  const std::string before = Render(ti_);
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("deceased"), Value::Null()}));
  ot.new_tuples.push_back(Tuple({Value::Str("deceased")}));  // arity 1
  ot.orders.emplace_back(0, 0, 3);
  EXPECT_EQ(ti_.Append(ot).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ti_.instance().size(), 3);
  EXPECT_EQ(Render(ti_), before);
}

TEST_F(TemporalInstanceTest, AppendRejectsBadPairAfterValidOnes) {
  ASSERT_TRUE(ti_.AddOrder(0, 0, 1).ok());
  const std::string before = Render(ti_);
  for (const std::tuple<int, int, int>& bad :
       {std::tuple<int, int, int>{1, 0, 9}, {5, 0, 1}, {1, -1, 0}}) {
    PartialTemporalOrder ot;
    ot.new_tuples.push_back(Tuple({Value::Str("deceased"), Value::Int(4)}));
    ot.orders.emplace_back(0, 0, 3);
    ot.orders.emplace_back(1, 1, 3);
    ot.orders.push_back(bad);
    EXPECT_EQ(ti_.Append(ot).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(ti_.instance().size(), 3);
    EXPECT_EQ(Render(ti_), before);
  }
}

TEST_F(TemporalInstanceTest, ExtendIsCopyThenAppend) {
  ASSERT_TRUE(ti_.AddOrder(1, 0, 1).ok());
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("deceased"), Value::Int(3)}));
  ot.new_tuples.push_back(Tuple({Value::Str("working"), Value::Null()}));
  ot.orders.emplace_back(0, 0, 3);
  ot.orders.emplace_back(1, 1, 3);  // equal kids values: dropped
  ot.orders.emplace_back(0, 4, 4);  // self pair: dropped
  ot.orders.emplace_back(0, 4, 2);
  const std::string base_before = Render(ti_);
  auto extended = Extend(ti_, ot);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(Render(ti_), base_before);  // Extend leaves its base alone
  ASSERT_TRUE(ti_.Append(ot).ok());
  EXPECT_EQ(Render(*extended), Render(ti_));
  EXPECT_EQ(ti_.instance().size(), 5);
  EXPECT_EQ(ti_.orders(0).size(), 2u);
  EXPECT_EQ(ti_.orders(1).size(), 1u);
}

TEST_F(TemporalInstanceTest, TruncateToUndoesAppend) {
  ASSERT_TRUE(ti_.AddOrder(0, 0, 1).ok());
  const std::string before = Render(ti_);
  const TemporalInstance::Mark mark = ti_.mark();
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("deceased"), Value::Int(4)}));
  ot.orders.emplace_back(0, 0, 3);
  ot.orders.emplace_back(1, 1, 3);
  ASSERT_TRUE(ti_.Append(ot).ok());
  ASSERT_NE(Render(ti_), before);
  ti_.TruncateTo(mark);
  EXPECT_EQ(Render(ti_), before);
}

}  // namespace
}  // namespace ccr
