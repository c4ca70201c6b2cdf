// Tests for the stochastic-local-search warm starts: the SLS-on/off
// ablation (byte-identical ExperimentResults on all three corpora — SLS
// may only change time-to-verdict, never verdicts), same-seed WalkSAT
// determinism for both the CNF form and the solver form, and the
// IncrementalMaxSat upper-bound probe (probe-guided downward search must
// agree field-by-field with the plain linear climb on every instance,
// including repeat calls on one persistent solver).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ccr.h"
#include "src/common/rng.h"
#include "src/eval/result_io.h"
#include "src/maxsat/walksat.h"

namespace ccr {
namespace {

using maxsat::IncrementalMaxSat;
using maxsat::MaxSatResult;
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

// The determinism contract of local search: turning the seeding and the
// MaxSAT probing on (both are off by default) — together or separately —
// must not move a single byte of any resolution on any corpus.
TEST(SlsAblationEquivalenceTest, SlsOnOffResolvesIdentically) {
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = AblationCorpus(kind);
    const std::string baseline = ResolveCorpusToJson(ds, SolverOptions{});
    SolverOptions on;
    on.use_sls_seeding = true;
    on.use_sls_probing = true;
    EXPECT_EQ(ResolveCorpusToJson(ds, on), baseline) << kind << " sls on";
    SolverOptions no_seed = on;
    no_seed.use_sls_seeding = false;
    EXPECT_EQ(ResolveCorpusToJson(ds, no_seed), baseline)
        << kind << " seeding off, probing on";
    SolverOptions no_probe = on;
    no_probe.use_sls_probing = false;
    EXPECT_EQ(ResolveCorpusToJson(ds, no_probe), baseline)
        << kind << " probing off, seeding on";
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

// Random CNF with a planted satisfying assignment: every clause gets one
// literal made true under the plant, so the hard part is SAT by
// construction and the MaxSAT bound search actually runs.
sat::Cnf PlantedCnf(Rng* rng, int n_vars, int n_clauses,
                    std::vector<bool>* plant_out) {
  std::vector<bool> plant(n_vars);
  for (int v = 0; v < n_vars; ++v) plant[v] = rng->Chance(0.5);
  sat::Cnf cnf;
  cnf.EnsureVars(n_vars);
  for (int c = 0; c < n_clauses; ++c) {
    const int len = 2 + static_cast<int>(rng->Below(2));
    std::vector<Lit> clause;
    for (int k = 0; k < len; ++k) {
      const Var v = static_cast<Var>(rng->Below(n_vars));
      // k == 0: the planted literal, true under `plant`; rest random.
      clause.push_back(Lit(v, k == 0 ? !plant[v] : rng->Chance(0.5)));
    }
    cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
  }
  if (plant_out != nullptr) *plant_out = std::move(plant);
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

TEST(WalkSatDeterminismTest, SameSeedIsBitIdenticalOnSolver) {
  Rng rng(0x5EED'CDCE);
  for (int round = 0; round < 20; ++round) {
    const sat::Cnf cnf = RandomCnf(&rng, 6 + round % 9, 10 + 3 * round);
    WalkSatOptions opts;
    opts.max_flips = 2000;
    opts.tries = 3;
    opts.seed = 0xBEEF + round;
    Solver s1, s2;
    s1.AddCnf(cnf);
    s2.AddCnf(cnf);
    const auto r1 = RunWalkSat(&s1, opts);
    const auto r2 = RunWalkSat(&s2, opts);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_TRUE(SameWalkSatResult(*r1, *r2)) << "round " << round;
    // A satisfying SLS assignment is a genuine model of the formula the
    // solver holds: the follow-up Solve must agree it is satisfiable.
    if (r1->satisfied) {
      EXPECT_EQ(s1.Solve(), SolveResult::kSat) << "round " << round;
    }
  }
}

// The fields IncrementalMaxSat guarantees are a pure function of the
// conditioned formula: the optimum and the canonical kept set. The raw
// model is only unique where the pinned selectors/bound force it — like
// every other solver heuristic, the probe may legitimately surface a
// different witness for the same kept set, and no caller reads more.
bool SameMaxSatResult(const MaxSatResult& a, const MaxSatResult& b) {
  return a.hard_satisfiable == b.hard_satisfiable &&
         a.num_satisfied == b.num_satisfied &&
         a.soft_satisfied == b.soft_satisfied;
}

// Every soft reported satisfied must actually hold under the model.
bool ModelMatchesReport(const MaxSatResult& r,
                        const std::vector<std::vector<Lit>>& soft) {
  if (!r.hard_satisfiable) return true;
  for (size_t i = 0; i < soft.size(); ++i) {
    bool holds = false;
    for (Lit l : soft[i]) {
      if (r.model[l.var()] != l.negated()) {
        holds = true;
        break;
      }
    }
    if (holds != r.soft_satisfied[i]) return false;
  }
  return true;
}

// The probe gate of the tentpole: IncrementalMaxSat with the SLS
// upper-bound probe on must agree field-by-field with the plain linear
// climb — optimum, kept set, and model — on random soft sets over a
// shared hard formula, served back-to-back by one persistent solver per
// configuration (the session usage pattern).
TEST(IncrementalMaxSatProbeTest, ProbeMatchesClimbOverSixtySoftSets) {
  Rng rng(0x12345);
  SolverOptions probe_on;
  probe_on.use_sls_probing = true;  // off by default
  SolverOptions probe_off;
  probe_off.use_sls_probing = false;

  // One persistent solver per configuration, both fed the same hard
  // formula once; all 60 soft sets run as repeat calls on those two
  // solvers — scoped aux vars must leave no cross-call residue.
  const int n_vars = 12;
  const sat::Cnf hard = PlantedCnf(&rng, n_vars, 18, nullptr);
  Solver with_probe(probe_on), without_probe(probe_off);
  with_probe.AddCnf(hard);
  without_probe.AddCnf(hard);
  IncrementalMaxSat m_probe(&with_probe), m_climb(&without_probe);

  int nonzero_optima = 0;
  for (int round = 0; round < 60; ++round) {
    const int n_soft = 1 + static_cast<int>(rng.Below(8));
    std::vector<std::vector<Lit>> soft;
    for (int i = 0; i < n_soft; ++i) {
      const int len = 1 + static_cast<int>(rng.Below(2));
      std::vector<Lit> clause;
      for (int k = 0; k < len; ++k) {
        clause.push_back(
            Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)));
      }
      soft.push_back(std::move(clause));
    }
    const MaxSatResult a = m_probe.Solve(soft);
    const MaxSatResult b = m_climb.Solve(soft);
    EXPECT_TRUE(SameMaxSatResult(a, b)) << "round " << round;
    EXPECT_TRUE(ModelMatchesReport(a, soft)) << "round " << round;
    EXPECT_TRUE(ModelMatchesReport(b, soft)) << "round " << round;
    if (a.hard_satisfiable && a.num_satisfied < n_soft) ++nonzero_optima;
  }
  // The family must actually exercise the bound search (instances where
  // some softs are dropped), not just the k = 0 fast path.
  EXPECT_GT(nonzero_optima, 5);
  // The probing solver really probed.
  EXPECT_GT(with_probe.stats().sls_probes, 0);
  EXPECT_EQ(without_probe.stats().sls_probes, 0);
}

// Probing composes with extra assumptions (the session passes its guard
// literals): equivalence must hold under assumption-conditioned hard
// formulas too, including assumption sets that make the hard part UNSAT.
TEST(IncrementalMaxSatProbeTest, ProbeMatchesClimbUnderAssumptions) {
  Rng rng(0x67890);
  SolverOptions probe_on;
  probe_on.use_sls_probing = true;  // off by default
  SolverOptions probe_off;
  probe_off.use_sls_probing = false;
  const int n_vars = 10;
  const sat::Cnf hard = PlantedCnf(&rng, n_vars, 12, nullptr);
  Solver with_probe(probe_on), without_probe(probe_off);
  with_probe.AddCnf(hard);
  without_probe.AddCnf(hard);
  IncrementalMaxSat m_probe(&with_probe), m_climb(&without_probe);
  for (int round = 0; round < 20; ++round) {
    std::vector<Lit> assume;
    const int n_assume = static_cast<int>(rng.Below(4));
    for (int k = 0; k < n_assume; ++k) {
      assume.push_back(
          Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)));
    }
    std::vector<std::vector<Lit>> soft;
    const int n_soft = 1 + static_cast<int>(rng.Below(6));
    for (int i = 0; i < n_soft; ++i) {
      soft.push_back({Lit(static_cast<Var>(rng.Below(n_vars)),
                          rng.Chance(0.5))});
    }
    const MaxSatResult a = m_probe.Solve(
        soft, std::span<const Lit>(assume.data(), assume.size()));
    const MaxSatResult b = m_climb.Solve(
        soft, std::span<const Lit>(assume.data(), assume.size()));
    EXPECT_TRUE(SameMaxSatResult(a, b)) << "round " << round;
    EXPECT_TRUE(ModelMatchesReport(a, soft)) << "round " << round;
  }
}

}  // namespace
}  // namespace ccr
