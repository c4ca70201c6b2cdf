// Tests for the model-cache seed (Solver::SeedFromLocalSearch): the
// seeding on/off ablation (byte-identical ExperimentResults on all three
// corpora — a seed may only change time-to-verdict, never verdicts); the
// seed on Φ(Se) of corpus entities, which must push exactly the least
// model a propagation probe reads; a non-Horn formula, which seeds
// nothing; and same-seed determinism of the CNF-form WalkSAT.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
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
using sat::Lbool;
using sat::Lit;
using sat::SolveResult;
using sat::Solver;
using sat::SolverOptions;
using sat::SolverStats;
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

// SolverStats holds only int64_t counters.
bool SameStats(const SolverStats& a, const SolverStats& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// A solver that never searched has default phases (all true), which
// falsify every all-negative clause of a Horn formula. The seed pushes
// the least model under the assumptions instead, and the solve answers
// from it.
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
  ASSERT_TRUE(s.SeedFromLocalSearch(assume));
  EXPECT_EQ(s.stats().sls_seeded_models, 1);
  EXPECT_EQ(s.SolveWithAssumptions(assume), SolveResult::kSat);
  EXPECT_EQ(s.stats().model_cache_hits, 1);
  const std::vector<bool> least = {true,  false, false, true,
                                   false, true,  false, false};
  for (Var v = 0; v < kVars; ++v) EXPECT_EQ(s.ModelValue(v), least[v]) << v;
  // The cached model now answers the same seed at once.
  const SolverStats before = s.stats();
  EXPECT_TRUE(s.SeedFromLocalSearch(assume));
  EXPECT_TRUE(SameStats(s.stats(), before));
}

// A formula with a clause of two positive literals has no least model;
// the seed leaves the solver as it found it. So does an UNSAT solver.
TEST(SlsHornStartTest, NonHornFormulaSeedsNothing) {
  Solver s;
  for (int i = 0; i < 4; ++i) s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(0), Lit::Pos(1)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(1), Lit::Pos(2)}));
  ASSERT_FALSE(s.ProblemIsHorn());
  const SolverStats before = s.stats();
  const std::vector<Lit> assume = {Lit::Pos(3)};
  EXPECT_FALSE(s.SeedFromLocalSearch(assume));
  EXPECT_FALSE(s.SeedFromLocalSearch());
  EXPECT_TRUE(SameStats(s.stats(), before));

  Solver unsat;
  unsat.NewVar();
  ASSERT_TRUE(unsat.AddClause({Lit::Pos(0)}));
  ASSERT_FALSE(unsat.AddClause({Lit::Neg(0)}));
  const SolverStats unsat_before = unsat.stats();
  EXPECT_FALSE(unsat.SeedFromLocalSearch());
  EXPECT_TRUE(SameStats(unsat.stats(), unsat_before));
}

// --- the seed on Φ(Se) of corpus entities --------------------------------

Dataset SessionCorpus(const std::string& kind) {
  if (kind == "nba") {
    NbaOptions o;
    o.num_entities = 5;
    o.seed = 0x5EED;
    return GenerateNba(o);
  }
  if (kind == "career") {
    CareerOptions o;
    o.num_entities = 5;
    o.seed = 0x5EED;
    return GenerateCareer(o);
  }
  PersonOptions o;
  o.num_entities = 5;
  o.seed = 0x5EED;
  return GeneratePerson(o);
}

// A tuple of new values in every attribute: each applicable CFD's LHS
// attribute grows, so every guard retires.
PartialTemporalOrder FreshTupleDelta(const Specification& se, int k) {
  std::vector<Value> values;
  for (const Value& like : se.instance().tuple(0).values()) {
    switch (like.type()) {
      case ValueType::kInt:
        values.push_back(Value::Int(1000000 + k));
        break;
      case ValueType::kDouble:
        values.push_back(Value::Real(1e6 + k));
        break;
      default:
        values.push_back(Value::Str("fresh-" + std::to_string(k)));
    }
  }
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple(std::move(values)));
  return ot;
}

struct SeedCounts {
  int pushed = 0;   // a least model entered the ring
  int cached = 0;   // a cached model already satisfied the literals
  int refuted = 0;  // the probe refuted the literals
};

// Seeds `s` under `lits` and checks what the seed left. A push is the
// probe's assignment with every open variable false: the next assumption
// solve answers from the cache (one more hit, no conflict) with a model
// that a BeginProbe on the same literals reads variable for variable. A
// seed answered by a cached model changes no counter; a refuted one
// pushes nothing.
void ExpectSeedIsTheProbe(Solver* s, const std::vector<Lit>& lits,
                          const std::string& where, SeedCounts* counts) {
  const SolverStats before = s->stats();
  const bool seeded = s->SeedFromLocalSearch(lits);
  const int64_t pushed =
      s->stats().sls_seeded_models - before.sls_seeded_models;
  if (!seeded) {
    EXPECT_EQ(pushed, 0) << where;
    EXPECT_FALSE(s->BeginProbe(lits)) << where;
    ++counts->refuted;
    return;
  }
  ASSERT_LE(pushed, 1) << where;
  if (pushed == 0) {
    EXPECT_TRUE(SameStats(s->stats(), before)) << where;
    ++counts->cached;
  } else {
    ++counts->pushed;
  }
  const SolverStats seeded_stats = s->stats();
  ASSERT_EQ(s->SolveWithAssumptions(lits), SolveResult::kSat) << where;
  EXPECT_EQ(s->stats().model_cache_hits, seeded_stats.model_cache_hits + 1)
      << where;
  EXPECT_EQ(s->stats().conflicts, seeded_stats.conflicts) << where;
  if (pushed == 0) return;
  ASSERT_TRUE(s->BeginProbe(lits)) << where;
  for (Var v = 0; v < s->num_vars(); ++v) {
    if (s->ModelValue(v) != (s->ProbeValue(v) == Lbool::kTrue)) {
      ADD_FAILURE() << where << ": variable " << v
                    << " differs from the least model";
      break;
    }
  }
  s->EndProbe();
}

// The seed on the session solver of person, NBA and career entities,
// after Create and after each of three extensions — two oracle answers,
// then a tuple of new values that retires guards — under the live guards
// and under the guards plus random order atoms.
TEST(SlsHornStartTest, SeedOnPhiPushesTheProbesLeastModel) {
  Rng rng(0x5EED);
  SeedCounts counts;
  int rounds = 0;
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = SessionCorpus(kind);
    for (int e = 0; e < static_cast<int>(ds.entities.size()); ++e) {
      Result<ResolutionSession> s = ResolutionSession::Create(ds.MakeSpec(e));
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      TruthOracle oracle(ds.entities[e].truth, /*answers_per_round=*/1);
      for (int round = 0; round <= 3; ++round) {
        const std::string where =
            kind + " entity " + std::to_string(e) + " round " +
            std::to_string(round);
        const Instantiation& inst = s->instantiation();
        Solver* solver = s->mutable_solver();
        ASSERT_TRUE(solver->ProblemIsHorn()) << where;
        const std::vector<Lit>& guards = inst.guard_assumptions();
        ExpectSeedIsTheProbe(solver, guards, where + " guards", &counts);
        std::vector<Var> atoms;
        for (Var v = 0; v < inst.varmap.num_vars(); ++v) {
          if (inst.varmap.IsOrderVar(v)) atoms.push_back(v);
        }
        for (int k = 0; k < 4 && !atoms.empty(); ++k) {
          std::vector<Lit> lits = guards;
          const int n = 1 + static_cast<int>(rng.Below(3));
          for (int i = 0; i < n; ++i) {
            lits.push_back(Lit::Pos(atoms[rng.Below(atoms.size())]));
          }
          ExpectSeedIsTheProbe(solver, lits,
                               where + " atoms " + std::to_string(k),
                               &counts);
        }
        ++rounds;
        if (round == 3) break;
        PartialTemporalOrder ot = FreshTupleDelta(s->spec(), round);
        const SessionRound r = s->RunRound(/*want_suggestion=*/true);
        if (round < 2 && r.suggestion.has_value()) {
          const std::vector<UserOracle::Answer> answers =
              oracle.Provide(s->spec(), *r.suggestion, inst.varmap);
          if (!answers.empty()) {
            Result<PartialTemporalOrder> delta =
                MakeAnswerDelta(s->spec(), answers);
            ASSERT_TRUE(delta.ok()) << delta.status().ToString();
            ot = std::move(delta).value();
          }
        }
        ASSERT_TRUE(s->ExtendWith(ot).ok()) << where;
      }
    }
  }
  EXPECT_EQ(rounds, 3 * 5 * 4);
  EXPECT_GT(counts.pushed, 150);
  EXPECT_GT(counts.refuted, 30);
  EXPECT_GT(counts.cached, 10);
}

// Same seed, same result — with or without pooled scratch, and across
// repeated runs. The RNG is keyed off options.seed alone; no wall-clock
// or global state may leak into the search.
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
