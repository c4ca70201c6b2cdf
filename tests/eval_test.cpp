// Tests for src/eval: metrics, the Pick baseline and the experiment
// harness, including the paper's headline accuracy ordering
// (Σ+Γ > Σ-only > Γ-only > Pick).

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/eval/experiment.h"
#include "src/eval/pick.h"
#include "src/eval/result_io.h"

namespace ccr {
namespace {

TEST(MetricsTest, PerfectScores) {
  AccuracyCounts c;
  c.deduced = 10;
  c.correct = 10;
  c.conflicts = 10;
  EXPECT_DOUBLE_EQ(c.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(c.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(c.F1(), 1.0);
}

TEST(MetricsTest, ZeroDenominators) {
  AccuracyCounts c;
  EXPECT_DOUBLE_EQ(c.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.F1(), 0.0);
}

TEST(MetricsTest, HarmonicMean) {
  AccuracyCounts c;
  c.deduced = 10;
  c.correct = 5;   // precision 0.5
  c.conflicts = 5; // recall 1.0
  EXPECT_NEAR(c.F1(), 2 * 0.5 * 1.0 / 1.5, 1e-12);
}

TEST(MetricsTest, AddPools) {
  AccuracyCounts a, b;
  a.deduced = 1;
  a.correct = 1;
  a.conflicts = 2;
  b.deduced = 3;
  b.correct = 2;
  b.conflicts = 4;
  a.Add(b);
  EXPECT_EQ(a.deduced, 4);
  EXPECT_EQ(a.correct, 3);
  EXPECT_EQ(a.conflicts, 6);
}

TEST(ScoreAssignmentTest, CountsOnlyConflictedAttrs) {
  Schema schema = Schema::Make({"const", "conflict"}).value();
  EntityInstance inst(schema, "e");
  ASSERT_TRUE(inst.Add(Tuple({Value::Int(1), Value::Str("a")})).ok());
  ASSERT_TRUE(inst.Add(Tuple({Value::Int(1), Value::Str("b")})).ok());
  const std::vector<Value> truth{Value::Int(1), Value::Str("b")};
  const std::vector<Value> guess{Value::Int(1), Value::Str("a")};
  const AccuracyCounts c =
      ScoreAssignment(inst, truth, guess, {true, true});
  EXPECT_EQ(c.conflicts, 1);
  EXPECT_EQ(c.deduced, 1);
  EXPECT_EQ(c.correct, 0);
}

TEST(ScoreAssignmentTest, UnresolvedHurtsRecallNotPrecision) {
  Schema schema = Schema::Make({"x"}).value();
  EntityInstance inst(schema, "e");
  ASSERT_TRUE(inst.Add(Tuple({Value::Str("a")})).ok());
  ASSERT_TRUE(inst.Add(Tuple({Value::Str("b")})).ok());
  const AccuracyCounts c = ScoreAssignment(
      inst, {Value::Str("b")}, {Value::Null()}, {false});
  EXPECT_EQ(c.conflicts, 1);
  EXPECT_EQ(c.deduced, 0);
  EXPECT_DOUBLE_EQ(c.Recall(), 0.0);
}

TEST(PickTest, UsesComparisonOnlyConstraints) {
  // kids is ordered by the comparison-only ϕ4, so favored Pick always
  // chooses the max; status has no comparison-only constraint, so Pick
  // guesses among all three values.
  PersonOptions opts;
  opts.num_entities = 20;
  const Dataset ds = GeneratePerson(opts);
  Rng rng(5);
  const std::shared_ptr<const RuleSet> favored = FavoredPickRules(*ds.rules);
  int kids_correct = 0, kids_total = 0;
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    const Specification se = ds.MakeSpec(static_cast<int>(i));
    auto pr = PickBaseline(se, &rng, favored);
    ASSERT_TRUE(pr.ok()) << pr.status().ToString();
    const int kids = ds.schema.IndexOf("kids");
    if (ds.entities[i].instance.HasConflict(kids)) {
      ++kids_total;
      kids_correct +=
          (pr->values[kids] == ds.entities[i].truth[kids]) ? 1 : 0;
    }
  }
  ASSERT_GT(kids_total, 0);
  EXPECT_EQ(kids_correct, kids_total);  // favored Pick nails monotone kids
}

TEST(PickTest, ResolvesEveryNonNullAttr) {
  PersonOptions opts;
  opts.num_entities = 3;
  const Dataset ds = GeneratePerson(opts);
  Rng rng(6);
  const Specification se = ds.MakeSpec(0);
  auto pr = PickBaseline(se, &rng, FavoredPickRules(*se.rules));
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  for (int a = 0; a < ds.schema.size(); ++a) {
    EXPECT_TRUE(pr->resolved[a]) << ds.schema.name(a);
  }
}

TEST(PickTest, RuleSetPastTheSchemaFailsClosed) {
  // A favored rule set made for a wider schema names an attribute the
  // entity does not have: grounding it fails, and Pick reports that
  // instead of aborting — per entity and over a whole corpus.
  PersonOptions opts;
  opts.num_entities = 3;
  Dataset ds = GeneratePerson(opts);
  const int n = ds.schema.size();
  CurrencyConstraint past(n);
  past.AddAttrCompare(n, CmpOp::kLt);
  auto wide = RuleSet::Make(n + 1, {past}, {});
  ASSERT_TRUE(wide.ok());
  const std::shared_ptr<const RuleSet> favored = FavoredPickRules(**wide);
  ASSERT_EQ(favored->sigma().size(), 1u);
  Rng rng(7);
  auto pr = PickBaseline(ds.MakeSpec(0), &rng, favored);
  ASSERT_FALSE(pr.ok());
  EXPECT_EQ(pr.status().code(), StatusCode::kInvalidArgument);

  ds.rules = *wide;
  auto pooled = RunPick(ds);
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(pooled.status().code(), StatusCode::kInvalidArgument);
}

class ExperimentTest : public ::testing::Test {
 protected:
  static Dataset SmallPerson() {
    PersonOptions opts;
    opts.num_entities = 12;
    opts.min_tuples = 6;
    opts.max_tuples = 20;
    return GeneratePerson(opts);
  }
};

TEST_F(ExperimentTest, AccuracyImprovesWithRounds) {
  const Dataset ds = SmallPerson();
  ExperimentOptions opts;
  opts.max_rounds = 3;
  const ExperimentResult r = RunExperiment(ds, opts);
  ASSERT_EQ(r.accuracy_by_round.size(), 4u);
  for (size_t k = 1; k < r.accuracy_by_round.size(); ++k) {
    EXPECT_GE(r.accuracy_by_round[k].F1(),
              r.accuracy_by_round[k - 1].F1());
  }
  EXPECT_EQ(r.entities, 12);
  EXPECT_EQ(r.invalid_entities, 0);
}

TEST_F(ExperimentTest, FullConstraintsBeatHalf) {
  const Dataset ds = SmallPerson();
  ExperimentOptions full;
  full.max_rounds = 0;
  ExperimentOptions half = full;
  half.sigma_fraction = 0.4;
  half.gamma_fraction = 0.4;
  const double f_full = RunExperiment(ds, full).accuracy_by_round[0].F1();
  const double f_half = RunExperiment(ds, half).accuracy_by_round[0].F1();
  EXPECT_GE(f_full, f_half);
}

TEST_F(ExperimentTest, UnifiedBeatsPickHeadline) {
  // The paper's headline: unified currency+consistency resolution beats
  // Pick substantially (201% F-measure on average across datasets).
  const Dataset ds = SmallPerson();
  ExperimentOptions opts;
  opts.max_rounds = 2;
  const double f_ours =
      RunExperiment(ds, opts).accuracy_by_round.back().F1();
  const auto pick = RunPick(ds);
  ASSERT_TRUE(pick.ok()) << pick.status().ToString();
  const double f_pick = pick->F1();
  EXPECT_GT(f_ours, f_pick);
}

TEST_F(ExperimentTest, SigmaOnlyBeatsGammaOnly) {
  // Fig. 8(g) vs 8(h): currency constraints alone are much stronger than
  // CFDs alone (CFDs need currency inferences to fire).
  const Dataset ds = SmallPerson();
  ExperimentOptions sigma_only;
  sigma_only.max_rounds = 0;
  sigma_only.gamma_fraction = 0.0;
  ExperimentOptions gamma_only;
  gamma_only.max_rounds = 0;
  gamma_only.sigma_fraction = 0.0;
  const double f_sigma =
      RunExperiment(ds, sigma_only).accuracy_by_round[0].F1();
  const double f_gamma =
      RunExperiment(ds, gamma_only).accuracy_by_round[0].F1();
  EXPECT_GT(f_sigma, f_gamma);
}

TEST_F(ExperimentTest, TimingsAreRecorded) {
  const Dataset ds = SmallPerson();
  ExperimentOptions opts;
  opts.max_rounds = 1;
  const ExperimentResult r = RunExperiment(ds, opts);
  EXPECT_GE(r.validity_ms, 0.0);
  EXPECT_GE(r.deduce_ms, 0.0);
}

TEST_F(ExperimentTest, EntitySubsetSelection) {
  const Dataset ds = SmallPerson();
  ExperimentOptions opts;
  opts.max_rounds = 0;
  const ExperimentResult r = RunExperiment(ds, opts, {0, 1, 2});
  EXPECT_EQ(r.entities, 3);
}

// An entity the engine cannot resolve fails the run instead of reading
// as an invalid specification. Entities 1 and 2 get 2,049 and 2,100 new
// values in one attribute, past the formula size limits (Σ d² <= 2²²),
// and the error kept is entity 1's, at any thread count. It is not
// serialized, and a merge keeps the first part's.
TEST_F(ExperimentTest, AFailedEntityFailsTheRun) {
  Dataset ds = SmallPerson();
  ExperimentOptions opts;
  opts.max_rounds = 1;
  const ExperimentResult clean = RunExperiment(ds, opts);
  ASSERT_TRUE(clean.error.ok());
  for (const auto& [e, values] : {std::pair{1, 2049}, std::pair{2, 2100}}) {
    EntityInstance& inst = ds.entities[e].instance;
    const Tuple first = inst.tuple(0);
    for (int i = 0; i < values; ++i) {
      Tuple t = first;
      t[0] = Value::Str("over-" + std::to_string(i));
      ASSERT_TRUE(inst.Add(std::move(t)).ok());
    }
  }
  const Status first_error = RunExperiment(ds, opts, {1}).error;
  ASSERT_FALSE(first_error.ok());
  EXPECT_EQ(first_error.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(first_error.message().find("formula size limit"),
            std::string::npos)
      << first_error.ToString();
  EXPECT_NE(RunExperiment(ds, opts, {2}).error.message(),
            first_error.message());
  for (const int threads : {1, 3}) {
    opts.num_threads = threads;
    const ExperimentResult failed = RunExperiment(ds, opts);
    EXPECT_EQ(failed.error.ToString(), first_error.ToString()) << threads;
    EXPECT_EQ(failed.entities, 10) << threads;
  }

  ExperimentResult marked = clean;
  marked.error = first_error;
  EXPECT_EQ(ExperimentResultToJson(marked), ExperimentResultToJson(clean));
  auto merged =
      MergeExperimentResults({clean, marked, RunExperiment(ds, opts)});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->error.ToString(), first_error.ToString());
  auto merged_clean = MergeExperimentResults({clean, clean});
  ASSERT_TRUE(merged_clean.ok());
  EXPECT_TRUE(merged_clean->error.ok());
}

TEST(ExperimentNbaTest, InteractionCurveShape) {
  // Fig. 8(e) shape: a sizable share of values resolves automatically and
  // everything resolves within 2 rounds.
  NbaOptions nopts;
  nopts.num_entities = 15;
  const Dataset ds = GenerateNba(nopts);
  ExperimentOptions opts;
  opts.max_rounds = 2;
  const ExperimentResult r = RunExperiment(ds, opts);
  ASSERT_EQ(r.pct_true_by_round.size(), 3u);
  EXPECT_GT(r.pct_true_by_round[0], 0.15);
  EXPECT_LT(r.pct_true_by_round[0], 0.9);
  EXPECT_GT(r.pct_true_by_round[2], 0.95);
}

// ExperimentOptions::Validate refuses what RunExperiment cannot run:
// max_rounds -2 used to throw std::length_error from a vector assign, and
// -1 silently ran zero rounds.
TEST(ExperimentOptionsTest, OutOfRangeKnobsFailClosed) {
  EXPECT_TRUE(ExperimentOptions{}.Validate().ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, void (*)(ExperimentOptions*)>>
      mutations = {
          {"max_rounds -1", [](ExperimentOptions* o) { o->max_rounds = -1; }},
          {"max_rounds -2", [](ExperimentOptions* o) { o->max_rounds = -2; }},
          {"answers 0",
           [](ExperimentOptions* o) { o->answers_per_round = 0; }},
          {"sigma 1.5",
           [](ExperimentOptions* o) { o->sigma_fraction = 1.5; }},
          {"gamma -0.5",
           [](ExperimentOptions* o) { o->gamma_fraction = -0.5; }},
          {"answer prob 1.5",
           [](ExperimentOptions* o) { o->oracle_answer_prob = 1.5; }},
          {"resolve gc_frac 2",
           [](ExperimentOptions* o) { o->resolve.solver.gc_frac = 2; }},
          {"threads above the bound",
           [](ExperimentOptions* o) {
             o->num_threads = kMaxExperimentThreads + 1;
           }},
      };
  for (const auto& [what, mutate] : mutations) {
    ExperimentOptions opts;
    mutate(&opts);
    EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument) << what;
  }
  // RunExperiment overrides resolve.max_rounds with its own, so only the
  // experiment-level value is checked.
  ExperimentOptions inner;
  inner.resolve.max_rounds = -1;
  EXPECT_TRUE(inner.Validate().ok());
  ExperimentOptions nan_sigma;
  nan_sigma.sigma_fraction = nan;
  EXPECT_FALSE(nan_sigma.Validate().ok());
  ExperimentOptions most_threads;
  most_threads.num_threads = kMaxExperimentThreads;
  EXPECT_TRUE(most_threads.Validate().ok());
}

}  // namespace
}  // namespace ccr
