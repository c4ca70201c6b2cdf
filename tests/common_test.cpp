// Unit tests for src/common: Status/Result, Rng, strings, Timer.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/timer.h"

namespace ccr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidSpec("x").code(), StatusCode::kInvalidSpec);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  CCR_ASSIGN_OR_RETURN(int h, Half(x));
  CCR_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(13), 13u);
  }
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, RangeInclusiveBounds) {
  Rng rng(3);
  bool lo_hit = false, hi_hit = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo_hit |= (v == -2);
    hi_hit |= (v == 2);
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng fork = a.Fork();
  EXPECT_NE(a.Next(), fork.Next());
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("prec(city)", "prec("));
  EXPECT_FALSE(StartsWith("pre", "prec("));
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("42x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("4.2", &v));
  // Out of range fails instead of wrapping or saturating.
  EXPECT_FALSE(ParseInt64("99999999999999999999", &v));
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_FALSE(ParseInt64(" 7", &v));
}

TEST(StringsTest, ParseDouble) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("4.25", &d));
  EXPECT_DOUBLE_EQ(d, 4.25);
  EXPECT_FALSE(ParseDouble("abc", &d));
  EXPECT_FALSE(ParseDouble("", &d));
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(t.ElapsedMs(), 0.0);
  t.Restart();
  EXPECT_LT(t.ElapsedMs(), 1000.0);
}

}  // namespace
}  // namespace ccr
