// Cross-module integration tests: full pipelines over generated datasets,
// exercising encode → SAT → deduce → suggest → resolve → evaluate.

#include <gtest/gtest.h>

#include "src/ccr.h"

namespace ccr {
namespace {

TEST(IntegrationTest, PersonEndToEndWithInteraction) {
  PersonOptions popts;
  popts.num_entities = 10;
  popts.min_tuples = 8;
  popts.max_tuples = 30;
  const Dataset ds = GeneratePerson(popts);
  ExperimentOptions opts;
  opts.max_rounds = 3;
  const ExperimentResult r = RunExperiment(ds, opts);
  EXPECT_EQ(r.entities, 10);
  EXPECT_EQ(r.invalid_entities, 0);
  // All entities finish within the paper's 3 rounds when the oracle
  // answers every suggestion.
  EXPECT_GE(r.pct_true_by_round.back(), 0.99);
  // Monotone progress.
  for (size_t k = 1; k < r.pct_true_by_round.size(); ++k) {
    EXPECT_GE(r.pct_true_by_round[k], r.pct_true_by_round[k - 1]);
  }
}

TEST(IntegrationTest, LimitedOracleNeedsMoreRounds) {
  // With one answer per round, entities with several unordered attributes
  // need multiple rounds — progress is still monotone.
  PersonOptions popts;
  popts.num_entities = 8;
  popts.p_status_gap = 0.5;  // many breaks
  popts.p_ghost = 0.3;
  const Dataset ds = GeneratePerson(popts);
  ExperimentOptions one;
  one.max_rounds = 3;
  one.answers_per_round = 1;
  ExperimentOptions all = one;
  all.answers_per_round = 100;
  const ExperimentResult r_one = RunExperiment(ds, one);
  const ExperimentResult r_all = RunExperiment(ds, all);
  EXPECT_LE(r_one.pct_true_by_round[1], r_all.pct_true_by_round[1] + 1e-9);
}

TEST(IntegrationTest, NbaAccuracyOrdering) {
  // Fig. 8(f)-(h) ordering at the full-constraint point:
  // F(Σ+Γ) >= F(Σ) >= F(Γ).
  NbaOptions nopts;
  nopts.num_entities = 25;
  const Dataset ds = GenerateNba(nopts);
  auto run = [&](double sf, double gf) {
    ExperimentOptions opts;
    opts.max_rounds = 0;
    opts.sigma_fraction = sf;
    opts.gamma_fraction = gf;
    return RunExperiment(ds, opts).accuracy_by_round[0].F1();
  };
  const double both = run(1.0, 1.0);
  const double sigma_only = run(1.0, 0.0);
  const double gamma_only = run(0.0, 1.0);
  EXPECT_GE(both, sigma_only - 1e-9);
  EXPECT_GT(sigma_only, gamma_only);
}

TEST(IntegrationTest, CareerPipelines) {
  CareerOptions copts;
  copts.num_entities = 15;
  const Dataset ds = GenerateCareer(copts);
  ExperimentOptions opts;
  opts.max_rounds = 2;
  const ExperimentResult r = RunExperiment(ds, opts);
  EXPECT_EQ(r.invalid_entities, 0);
  EXPECT_GE(r.accuracy_by_round.back().F1(),
            r.accuracy_by_round[0].F1());
  const auto pick = RunPick(ds);
  ASSERT_TRUE(pick.ok()) << pick.status().ToString();
  EXPECT_GT(r.accuracy_by_round.back().F1(), pick->F1());
}

TEST(IntegrationTest, WalkSatSolvesGeneratedPhi) {
  // The stochastic solver handles real Φ(Se) instances from the Person
  // generator (they are satisfiable: the specs are valid).
  PersonOptions popts;
  popts.num_entities = 3;
  popts.min_tuples = 5;
  popts.max_tuples = 12;
  const Dataset ds = GeneratePerson(popts);
  for (int i = 0; i < 3; ++i) {
    const Specification se = ds.MakeSpec(i);
    auto inst = Instantiation::Build(se);
    ASSERT_TRUE(inst.ok());
    const sat::Cnf phi = BuildCnf(*inst);
    maxsat::WalkSatOptions wopts;
    wopts.max_flips = 400000;
    wopts.tries = 5;
    const auto r = maxsat::RunWalkSat(phi, wopts);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->satisfied) << "entity " << i;
  }
}

TEST(IntegrationTest, SuggestionsAreActionableOnGeneratedData) {
  // For every incomplete entity, the suggestion must name at least one
  // unresolved attribute whose answer strictly increases resolution.
  PersonOptions popts;
  popts.num_entities = 6;
  popts.p_status_gap = 0.6;
  const Dataset ds = GeneratePerson(popts);
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    const Specification se = ds.MakeSpec(static_cast<int>(i));
    auto inst = Instantiation::Build(se);
    ASSERT_TRUE(inst.ok());
    const sat::Cnf phi = BuildCnf(*inst);
    const DeducedOrders od = DeduceOrder(*inst, phi);
    const auto known = ExtractTrueValueIndices(inst->varmap, od);
    bool complete = true;
    for (int a = 0; a < ds.schema.size(); ++a) {
      if (!inst->varmap.domain(a).empty() && known[a] < 0) complete = false;
    }
    if (complete) continue;
    const auto candidates = CandidateValues(inst->varmap, od);
    const Suggestion sug = Suggest(*inst, phi, candidates, known);
    EXPECT_FALSE(sug.attrs.empty()) << "entity " << i;
    for (int a : sug.attrs) EXPECT_LT(known[a], 0);
  }
}

TEST(IntegrationTest, ExtendWithOracleAnswerKeepsValidity) {
  // Round-trip: every oracle answer produces Se ⊕ Ot that passes IsValid.
  NbaOptions nopts;
  nopts.num_entities = 6;
  const Dataset ds = GenerateNba(nopts);
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    Specification se = ds.MakeSpec(static_cast<int>(i));
    const std::vector<Value>& truth = ds.entities[i].truth;
    // Simulate one user round by hand: answer "team".
    const int team = ds.schema.IndexOf("team");
    PartialTemporalOrder ot;
    Tuple to(std::vector<Value>(ds.schema.size(), Value::Null()));
    to[team] = truth[team];
    const int to_idx = se.instance().size();
    ot.new_tuples.push_back(to);
    for (int t = 0; t < to_idx; ++t) ot.orders.emplace_back(team, t, to_idx);
    auto extended = Extend(se, ot);
    ASSERT_TRUE(extended.ok());
    auto valid = IsValid(*extended);
    ASSERT_TRUE(valid.ok());
    EXPECT_TRUE(valid->valid) << "entity " << i;
  }
}

TEST(IntegrationTest, BucketedEntitySizesForBenches) {
  // The bench harness buckets entities by instance size; make sure the
  // generator produces a usable spread for the Fig. 8(a)-(d) buckets.
  NbaOptions nopts;
  nopts.num_entities = 80;
  const Dataset ds = GenerateNba(nopts);
  int small = 0, large = 0;
  for (const EntityCase& ec : ds.entities) {
    if (ec.instance.size() <= 27) ++small;
    if (ec.instance.size() >= 28) ++large;
  }
  EXPECT_GT(small, 0);
  EXPECT_GT(large, 0);
}

}  // namespace
}  // namespace ccr
