// Tests for the Fig. 4 framework loop (src/core/resolver.h).

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "paper_fixture.h"
#include "src/core/resolver.h"

namespace ccr {
namespace {

using testing::EdithSpec;
using testing::GeorgeSpec;
using testing::PaperSchema;

// Oracle that answers suggestions from a fixed truth vector.
class FixedOracle : public UserOracle {
 public:
  explicit FixedOracle(std::vector<Value> truth, int per_round = 100)
      : truth_(std::move(truth)), per_round_(per_round) {}

  std::vector<Answer> Provide(const Specification&, const Suggestion& sug,
                              const VarMap&) override {
    ++calls_;
    std::vector<Answer> out;
    for (int attr : sug.attrs) {
      if (static_cast<int>(out.size()) >= per_round_) break;
      if (!truth_[attr].is_null()) out.push_back({attr, truth_[attr]});
    }
    return out;
  }

  int calls() const { return calls_; }

 private:
  std::vector<Value> truth_;
  int per_round_;
  int calls_ = 0;
};

std::vector<Value> GeorgeTruth() {
  const Schema s = PaperSchema();
  std::vector<Value> t(s.size(), Value::Null());
  t[s.IndexOf("status")] = Value::Str("retired");
  return t;
}

TEST(ResolverTest, EdithResolvesWithoutInteraction) {
  auto r = Resolve(EdithSpec(), nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->valid);
  EXPECT_TRUE(r->complete);
  EXPECT_EQ(r->rounds_used, 0);
  const Schema s = PaperSchema();
  EXPECT_EQ(r->true_values[s.IndexOf("status")], Value::Str("deceased"));
  EXPECT_EQ(r->true_values[s.IndexOf("county")], Value::Str("Vermont"));
  // Nothing was user-provided.
  for (bool up : r->user_provided) EXPECT_FALSE(up);
}

TEST(ResolverTest, GeorgeWithoutOracleStaysIncomplete) {
  auto r = Resolve(GeorgeSpec(), nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->valid);
  EXPECT_FALSE(r->complete);
  const Schema s = PaperSchema();
  EXPECT_TRUE(r->resolved[s.IndexOf("name")]);
  EXPECT_TRUE(r->resolved[s.IndexOf("kids")]);
  EXPECT_FALSE(r->resolved[s.IndexOf("status")]);
}

TEST(ResolverTest, GeorgeResolvesWithOneInteraction) {
  // Example 6/9: once the user validates status = retired, the full tuple
  // (George, retired, veteran, 2, NY, 212, 12404, Accord) is derived.
  FixedOracle oracle(GeorgeTruth());
  auto r = Resolve(GeorgeSpec(), &oracle);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->complete);
  EXPECT_EQ(oracle.calls(), 1);
  EXPECT_EQ(r->rounds_used, 1);
  const Schema s = PaperSchema();
  EXPECT_EQ(r->true_values[s.IndexOf("status")], Value::Str("retired"));
  EXPECT_EQ(r->true_values[s.IndexOf("job")], Value::Str("veteran"));
  EXPECT_EQ(r->true_values[s.IndexOf("kids")], Value::Int(2));
  EXPECT_EQ(r->true_values[s.IndexOf("city")], Value::Str("NY"));
  EXPECT_EQ(r->true_values[s.IndexOf("AC")], Value::Int(212));
  EXPECT_EQ(r->true_values[s.IndexOf("zip")], Value::Str("12404"));
  EXPECT_EQ(r->true_values[s.IndexOf("county")], Value::Str("Accord"));
  EXPECT_TRUE(r->user_provided[s.IndexOf("status")]);
  EXPECT_FALSE(r->user_provided[s.IndexOf("job")]);
}

TEST(ResolverTest, RoundSnapshotsTrackProgress) {
  FixedOracle oracle(GeorgeTruth());
  auto r = Resolve(GeorgeSpec(), &oracle);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->round_values.size(), 2u);
  const Schema s = PaperSchema();
  // Round 0: status unresolved; round 1: resolved.
  EXPECT_FALSE(r->round_resolved[0][s.IndexOf("status")]);
  EXPECT_TRUE(r->round_resolved[1][s.IndexOf("status")]);
  // Trace has per-phase timings.
  ASSERT_EQ(r->trace.size(), 2u);
  EXPECT_GE(r->trace[0].validity_ms, 0.0);
  EXPECT_GT(r->trace[1].resolved_attrs, r->trace[0].resolved_attrs);
}

TEST(ResolverTest, SilentOracleSettles) {
  FixedOracle oracle(std::vector<Value>(PaperSchema().size(), Value::Null()));
  auto r = Resolve(GeorgeSpec(), &oracle);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->complete);
  EXPECT_EQ(oracle.calls(), 1);  // asked once, got nothing, settled
}

TEST(ResolverTest, MaxRoundsRespected) {
  FixedOracle oracle(GeorgeTruth());
  ResolveOptions opts;
  opts.max_rounds = 0;
  auto r = Resolve(GeorgeSpec(), &oracle, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->complete);
  EXPECT_EQ(oracle.calls(), 0);
}

TEST(ResolverTest, InvalidSpecificationReported) {
  Specification se = GeorgeSpec();
  // Contradictory explicit orders: r4 < r5 and r5 < r4 on status.
  const int status = PaperSchema().IndexOf("status");
  ASSERT_TRUE(se.temporal.AddOrder(status, 0, 1).ok());
  ASSERT_TRUE(se.temporal.AddOrder(status, 1, 0).ok());
  auto r = Resolve(se, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->valid);
  EXPECT_FALSE(r->complete);
}

TEST(ResolverTest, NaiveDeduceModeProducesSameTruth) {
  ResolveOptions naive;
  naive.naive_deduce = true;
  auto fast = Resolve(EdithSpec(), nullptr);
  auto slow = Resolve(EdithSpec(), nullptr, naive);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast->true_values.size(), slow->true_values.size());
  for (size_t i = 0; i < fast->true_values.size(); ++i) {
    EXPECT_EQ(fast->true_values[i], slow->true_values[i]) << i;
  }
}

TEST(ResolverTest, UserValueOutsideActiveDomain) {
  // The user may supply a *new* value (§III: "some new values not in the
  // active domains"). George's status as 'deceased' (not in E2) must be
  // accepted and dominate.
  const Schema s = PaperSchema();
  std::vector<Value> truth(s.size(), Value::Null());
  truth[s.IndexOf("status")] = Value::Str("deceased");
  FixedOracle oracle(truth);
  auto r = Resolve(GeorgeSpec(), &oracle);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->true_values[s.IndexOf("status")], Value::Str("deceased"));
  // With status = deceased, no tuple's job/AC/zip is distinguished: the
  // propagation rules ϕ5–ϕ7 only fire between instance tuples, so the
  // entity cannot complete — but it must not crash or regress.
  EXPECT_TRUE(r->resolved[s.IndexOf("status")]);
}

// Each mutation of default options must be refused by Validate, and by
// Resolve before it does any work.
TEST(ResolveOptionsTest, OutOfRangeKnobsFailClosed) {
  EXPECT_TRUE(ResolveOptions{}.Validate().ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, void (*)(ResolveOptions*)>>
      mutations = {
          {"max_rounds -1", [](ResolveOptions* o) { o->max_rounds = -1; }},
          {"gc_frac 1.5", [](ResolveOptions* o) { o->solver.gc_frac = 1.5; }},
          {"gc_frac -0.1",
           [](ResolveOptions* o) { o->solver.gc_frac = -0.1; }},
      };
  for (const auto& [what, mutate] : mutations) {
    ResolveOptions opts;
    mutate(&opts);
    const Status st = opts.Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
    auto r = Resolve(EdithSpec(), /*oracle=*/nullptr, opts);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
  }
  ResolveOptions nan_gc;
  nan_gc.solver.gc_frac = nan;
  EXPECT_FALSE(nan_gc.Validate().ok());
  ResolveOptions eager_gc;  // gc_frac 0 = compact at every chance
  eager_gc.solver.gc_frac = 0.0;
  EXPECT_TRUE(eager_gc.Validate().ok());
}

}  // namespace
}  // namespace ccr
