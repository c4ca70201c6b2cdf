// Tests for the stochastic-local-search warm starts: the SLS-on/off
// ablation (byte-identical ExperimentResults on all three corpora — SLS
// may only change time-to-verdict, never verdicts), the least-model start
// on Horn formulas, and same-seed WalkSAT determinism of the CNF form.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ccr.h"
#include "src/common/rng.h"
#include "src/eval/result_io.h"
#include "src/maxsat/walksat.h"

namespace ccr {
namespace {

using maxsat::RunWalkSat;
using maxsat::WalkSatOptions;
using maxsat::WalkSatResult;
using maxsat::WalkSatScratch;
using sat::Lit;
using sat::SolveResult;
using sat::Solver;
using sat::SolverOptions;
using sat::Var;

Dataset AblationCorpus(const std::string& kind) {
  if (kind == "nba") {
    NbaOptions o;
    o.num_entities = 20;
    o.min_tuples = 3;
    o.max_tuples = 10;
    o.seed = 0xAB1;
    return GenerateNba(o);
  }
  if (kind == "career") {
    CareerOptions o;
    o.num_entities = 20;
    o.min_tuples = 3;
    o.max_tuples = 10;
    o.seed = 0xAB2;
    return GenerateCareer(o);
  }
  PersonOptions o;
  o.num_entities = 20;
  o.min_tuples = 4;
  o.max_tuples = 12;
  o.seed = 0xAB3;
  return GeneratePerson(o);
}

std::string ResolveCorpusToJson(const Dataset& ds,
                                const SolverOptions& solver) {
  ExperimentOptions eopts;
  eopts.max_rounds = 3;
  eopts.answers_per_round = 1;
  eopts.resolve.solver = solver;
  const ExperimentResult r = RunExperiment(ds, eopts);
  ResultJsonOptions jopts;
  jopts.include_timings = false;
  return ExperimentResultToJson(r, jopts);
}

// The determinism contract of local search: turning the seeding on (it
// is off by default) must not move a single byte of any resolution on any
// corpus.
TEST(SlsAblationEquivalenceTest, SlsOnOffResolvesIdentically) {
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = AblationCorpus(kind);
    const std::string baseline = ResolveCorpusToJson(ds, SolverOptions{});
    SolverOptions on;
    on.use_sls_seeding = true;
    EXPECT_EQ(ResolveCorpusToJson(ds, on), baseline) << kind << " sls on";
  }
}

sat::Cnf RandomCnf(Rng* rng, int n_vars, int n_clauses) {
  sat::Cnf cnf;
  cnf.EnsureVars(n_vars);
  for (int c = 0; c < n_clauses; ++c) {
    const int len = 1 + static_cast<int>(rng->Below(3));
    std::vector<Lit> clause;
    for (int k = 0; k < len; ++k) {
      clause.push_back(
          Lit(static_cast<Var>(rng->Below(n_vars)), rng->Chance(0.5)));
    }
    cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
  }
  return cnf;
}

bool SameWalkSatResult(const WalkSatResult& a, const WalkSatResult& b) {
  return a.satisfied == b.satisfied && a.best_unsat == b.best_unsat &&
         a.model == b.model;
}

// Same seed, same result — with or without pooled scratch, and across
// repeated runs. The RNG is keyed off options.seed alone; no wall-clock
// or global state may leak into the search.
// A solver that never searched has default phases (all true), which
// falsify every all-negative clause of a Horn formula. The pass starts
// from the least model under the assumptions instead: already a model,
// published with no flip.
TEST(SlsHornStartTest, ColdHornFormulaSeedsItsLeastModelWithoutFlips) {
  constexpr int kVars = 8;
  Solver s;
  for (int i = 0; i < kVars; ++i) s.NewVar();
  for (Var v = 0; v + 1 < kVars; ++v) {
    ASSERT_TRUE(s.AddClause({Lit::Neg(v), Lit::Neg(v + 1)}));
  }
  ASSERT_TRUE(s.AddClause({Lit::Neg(0), Lit::Pos(3)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(3), Lit::Pos(5)}));
  ASSERT_TRUE(s.ProblemIsHorn());

  const std::vector<Lit> assume = {Lit::Pos(0)};
  const sat::LocalSearchResult r = s.SeedFromLocalSearch(assume);
  ASSERT_TRUE(r.feasible);
  const std::vector<uint8_t> least = {1, 0, 0, 1, 0, 1, 0, 0};
  EXPECT_EQ(r.model, least);
  EXPECT_EQ(s.stats().sls_flips, 0);
  EXPECT_EQ(s.stats().sls_seeded_models, 1);
  EXPECT_EQ(s.SolveWithAssumptions(assume), SolveResult::kSat);
}

TEST(WalkSatDeterminismTest, SameSeedIsBitIdenticalOnCnf) {
  Rng rng(0x5EED'D00D);
  WalkSatScratch pooled;
  for (int round = 0; round < 20; ++round) {
    const sat::Cnf cnf = RandomCnf(&rng, 6 + round % 9, 10 + 3 * round);
    WalkSatOptions opts;
    opts.max_flips = 2000;
    opts.tries = 3;
    opts.seed = 0xABCD + round;
    const auto fresh1 = RunWalkSat(cnf, opts);
    const auto fresh2 = RunWalkSat(cnf, opts);
    const auto with_scratch = RunWalkSat(cnf, opts, &pooled);
    ASSERT_TRUE(fresh1.ok() && fresh2.ok() && with_scratch.ok());
    EXPECT_TRUE(SameWalkSatResult(*fresh1, *fresh2)) << "round " << round;
    EXPECT_TRUE(SameWalkSatResult(*fresh1, *with_scratch))
        << "round " << round << ": pooled scratch changed the result";
  }
}

}  // namespace
}  // namespace ccr
