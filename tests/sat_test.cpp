// Tests for the CDCL SAT solver, CNF container and DIMACS I/O.
//
// Correctness of the solver is load-bearing for everything above it
// (IsValid, NaiveDeduce, GetSug), so besides targeted cases the
// suite cross-checks against brute-force enumeration on hundreds of random
// small formulas, with every solver feature configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/sat/dimacs.h"
#include "src/sat/solver.h"

namespace ccr::sat {
namespace {

// Brute-force satisfiability for <= 20 variables.
bool BruteForceSat(const Cnf& cnf) {
  const int n = cnf.num_vars();
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    bool all = true;
    for (int c = 0; c < cnf.num_clauses() && all; ++c) {
      bool clause_sat = false;
      for (Lit l : cnf.clause(c)) {
        const bool val = (mask >> l.var()) & 1;
        if (val != l.negated()) {
          clause_sat = true;
          break;
        }
      }
      all = clause_sat;
    }
    if (all) return true;
  }
  return cnf.num_clauses() == 0 ? true : false;
}

// Checks a model satisfies the formula.
bool ModelSatisfies(const Cnf& cnf, const Solver& solver) {
  for (int c = 0; c < cnf.num_clauses(); ++c) {
    bool clause_sat = false;
    for (Lit l : cnf.clause(c)) {
      if (solver.ModelValue(l.var()) != l.negated()) {
        clause_sat = true;
        break;
      }
    }
    if (!clause_sat) return false;
  }
  return true;
}

TEST(LitTest, Encoding) {
  const Lit p = Lit::Pos(3);
  const Lit n = Lit::Neg(3);
  EXPECT_EQ(p.var(), 3);
  EXPECT_FALSE(p.negated());
  EXPECT_TRUE(n.negated());
  EXPECT_EQ(~p, n);
  EXPECT_EQ(~n, p);
  EXPECT_EQ(Lit::FromIndex(p.index()), p);
  EXPECT_EQ(p.ToString(), "v3");
  EXPECT_EQ(n.ToString(), "~v3");
}

TEST(CnfTest, BuildAndInspect) {
  Cnf cnf;
  const Var a = cnf.NewVar();
  const Var b = cnf.NewVar();
  cnf.AddBinary(Lit::Pos(a), Lit::Neg(b));
  cnf.AddUnit(Lit::Pos(b));
  EXPECT_EQ(cnf.num_vars(), 2);
  EXPECT_EQ(cnf.num_clauses(), 2);
  EXPECT_EQ(cnf.num_literals(), 3);
  EXPECT_EQ(cnf.clause(0).size(), 2u);
  EXPECT_EQ(cnf.clause(1)[0], Lit::Pos(b));
}

TEST(CnfTest, AddClauseGrowsVars) {
  Cnf cnf;
  cnf.AddUnit(Lit::Pos(9));
  EXPECT_EQ(cnf.num_vars(), 10);
}

TEST(SolverTest, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(SolverTest, UnitClauses) {
  Solver s;
  const Var a = s.NewVar();
  const Var b = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(b)}));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(a));
  EXPECT_FALSE(s.ModelValue(b));
}

TEST(SolverTest, ContradictoryUnitsAreUnsat) {
  Solver s;
  const Var a = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a)}));
  EXPECT_FALSE(s.AddClause({Lit::Neg(a)}));
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_TRUE(s.IsUnsatForever());
}

TEST(SolverTest, SimplePropagationChain) {
  // a, a->b, b->c  forces c.
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(a), Lit::Pos(b)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(b), Lit::Pos(c)}));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(c));
}

TEST(SolverTest, TautologyIgnored) {
  Solver s;
  const Var a = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Neg(a)}));
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(SolverTest, DuplicateLiteralsDeduplicated) {
  Solver s;
  const Var a = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(a)}));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(a));
}

// Pigeonhole principle PHP(n+1, n) is a classic hard UNSAT family.
Cnf Pigeonhole(int holes) {
  const int pigeons = holes + 1;
  Cnf cnf;
  auto var = [&](int p, int h) { return p * holes + h; };
  // Every pigeon in some hole.
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(Lit::Pos(var(p, h)));
    cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
  }
  // No two pigeons share a hole.
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.AddBinary(Lit::Neg(var(p1, h)), Lit::Neg(var(p2, h)));
      }
    }
  }
  return cnf;
}

TEST(SolverTest, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    Solver s;
    s.AddCnf(Pigeonhole(holes));
    EXPECT_EQ(s.Solve(), SolveResult::kUnsat) << "holes=" << holes;
  }
}

TEST(SolverTest, PigeonholeExactFitSat) {
  // n pigeons into n holes is satisfiable: adapt by dropping one pigeon's
  // clauses — simpler: build a fresh formula for n pigeons / n holes.
  const int n = 5;
  Cnf cnf;
  auto var = [&](int p, int h) { return p * n + h; };
  for (int p = 0; p < n; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < n; ++h) clause.push_back(Lit::Pos(var(p, h)));
    cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
  }
  for (int h = 0; h < n; ++h) {
    for (int p1 = 0; p1 < n; ++p1) {
      for (int p2 = p1 + 1; p2 < n; ++p2) {
        cnf.AddBinary(Lit::Neg(var(p1, h)), Lit::Neg(var(p2, h)));
      }
    }
  }
  Solver s;
  s.AddCnf(cnf);
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(ModelSatisfies(cnf, s));
}

TEST(SolverTest, IncrementalAddBetweenSolves) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b)}));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  ASSERT_TRUE(s.AddClause({Lit::Neg(a)}));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(b));
  s.AddClause({Lit::Neg(b)});
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(SolverTest, AssumptionsDoNotPersist) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b)}));
  EXPECT_EQ(s.SolveWithAssumptions({Lit::Neg(a)}), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(b));
  EXPECT_EQ(s.SolveWithAssumptions({Lit::Neg(b)}), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(a));
  EXPECT_EQ(s.SolveWithAssumptions({Lit::Neg(a), Lit::Neg(b)}),
            SolveResult::kUnsat);
  // And without assumptions everything is still satisfiable.
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_FALSE(s.IsUnsatForever());
}

TEST(SolverTest, FailedAssumptionsFormCore) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Neg(a), Lit::Neg(b)}));  // a & b impossible
  ASSERT_EQ(s.SolveWithAssumptions(
                {Lit::Pos(c), Lit::Pos(a), Lit::Pos(b)}),
            SolveResult::kUnsat);
  const auto& core = s.FailedAssumptions();
  EXPECT_FALSE(core.empty());
  // The core must not blame c (it is irrelevant to the conflict).
  for (Lit l : core) EXPECT_NE(l.var(), c);
}

TEST(SolverTest, ImplicationDetectionViaAssumptions) {
  // (¬a ∨ b), a  implies b: Φ ∧ ¬b must be UNSAT (Lemma 6 usage).
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Neg(a), Lit::Pos(b)}));
  ASSERT_TRUE(s.AddClause({Lit::Pos(a)}));
  EXPECT_EQ(s.SolveWithAssumptions({Lit::Neg(b)}), SolveResult::kUnsat);
  EXPECT_EQ(s.SolveWithAssumptions({Lit::Pos(b)}), SolveResult::kSat);
}

TEST(SolverTest, MinimizationStaleSeenRegression) {
  // Distilled from a random-3SAT failure: minimization dropped a literal
  // from a learnt clause, and the in-place compaction then cleared seen_
  // for the shifted tail instead of the dropped literal. The stale mark
  // made the next Analyze skip that variable entirely, learning a unit
  // the formula does not imply — and the solver answered UNSAT on these
  // satisfiable instances. The first was found with lowest-id decisions;
  // the second (a random search over 3-SAT instances with that clear
  // reintroduced) fails under VSIDS.
  constexpr const char* kDimacs[] = {
      "-7 0 12 -3 13 0 8 0 -10 5 0 -11 3 12 0 -15 -14 0 10 -13 0 -7 0 "
      "-10 -6 -14 0 -11 10 0 -5 10 0 -13 -15 0 12 6 0 3 2 0 8 0 6 11 0 "
      "14 -13 0 -15 -14 0 1 13 0 12 6 0 3 -15 0 -12 2 0 13 3 0 -3 16 0 "
      "-12 -16 -10 0 -12 -1 -14 0 11 -2 0\n",
      "-4 -5 0 2 4 0 1 4 0 5 3 -1 0 -5 2 0 -4 6 -1 0 1 4 0 -2 -6 4 0 "
      "-1 -1 2 0 3 1 -4 0 -4 3 3 0 3 -5 0 4 6 4 0 -6 -4 -1 0 -6 2 0 "
      "1 6 0 4 5 0 -3 6 -4 0 3 4 -6 0 -4 3 0\n"};
  for (const char* dimacs : kDimacs) {
    auto cnf = FromDimacs(dimacs);
    ASSERT_TRUE(cnf.ok());
    Solver s;
    s.AddCnf(*cnf);
    ASSERT_EQ(s.Solve(), SolveResult::kSat) << dimacs;
    EXPECT_TRUE(ModelSatisfies(*cnf, s)) << dimacs;
  }
}

// Random 3-SAT cross-checked against brute force under every feature
// configuration — inprocessing, eager arena GC, local-search seeding,
// and a mid-stream Simplify() variant that exercises the inprocessing
// passes on half-loaded formulas.
struct FuzzParams {
  const char* name = "Defaults";
  bool inprocessing = true;
  bool simplify_midway = false;  // feed half, Simplify (inprocess), rest
  bool eager_gc = false;         // gc_frac = 0: compact at every chance
  bool sls_seed = false;         // run SeedFromLocalSearch before Solve
};

// Names each instantiation in test listings.
void PrintTo(const FuzzParams& p, std::ostream* os) { *os << p.name; }

class SolverFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(SolverFuzzTest, MatchesBruteForce) {
  const FuzzParams p = GetParam();
  Rng rng(0xF00D + (p.inprocessing ? 1024 : 0) +
          (p.simplify_midway ? 512 : 0) + (p.eager_gc ? 2048 : 0) +
          (p.sls_seed ? 8192 : 0));
  int sat_count = 0, unsat_count = 0;
  for (int round = 0; round < 150; ++round) {
    const int n_vars = 3 + static_cast<int>(rng.Below(10));
    const int n_clauses = 2 + static_cast<int>(rng.Below(50));
    Cnf cnf;
    cnf.EnsureVars(n_vars);
    for (int c = 0; c < n_clauses; ++c) {
      const int len = 1 + static_cast<int>(rng.Below(3));
      std::vector<Lit> clause;
      for (int k = 0; k < len; ++k) {
        clause.push_back(Lit(static_cast<Var>(rng.Below(n_vars)),
                             rng.Chance(0.5)));
      }
      cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
    }
    SolverOptions opts;
    opts.use_inprocessing = p.inprocessing;
    if (p.eager_gc) opts.gc_frac = 0.0;
    Solver solver(opts);
    bool alive = true;
    if (p.simplify_midway) {
      // Half the clauses, a priming+inprocessing Simplify pair, then the
      // rest and one more Simplify over that "delta".
      const int half = cnf.num_clauses() / 2;
      std::vector<Lit> scratch;
      for (int c = 0; c < half; ++c) {
        auto span = cnf.clause(c);
        scratch.assign(span.begin(), span.end());
        alive = solver.AddClause(scratch) && alive;
      }
      if (alive) alive = solver.Simplify();
      for (int c = half; c < cnf.num_clauses(); ++c) {
        auto span = cnf.clause(c);
        scratch.assign(span.begin(), span.end());
        alive = solver.AddClause(scratch) && alive;
      }
      if (alive) alive = solver.Simplify();
    } else {
      solver.AddCnf(cnf);
    }
    if (p.sls_seed && alive) {
      // Local-search warm start: rewrites saved phases and may push a
      // witness into the model pool, but the verdict below must still
      // match brute force — SLS can only change time-to-verdict.
      const LocalSearchResult seeded = solver.SeedFromLocalSearch();
      if (seeded.feasible) {
        EXPECT_EQ(seeded.hard_unsat, 0);
      }
    }
    const bool expected = BruteForceSat(cnf);
    const SolveResult got = solver.Solve();
    ASSERT_EQ(got == SolveResult::kSat, expected) << "round " << round;
    if (expected) {
      ++sat_count;
      EXPECT_TRUE(ModelSatisfies(cnf, solver)) << "round " << round;
    } else {
      ++unsat_count;
    }
  }
  // The distribution must exercise both outcomes.
  EXPECT_GT(sat_count, 10);
  EXPECT_GT(unsat_count, 10);
}

INSTANTIATE_TEST_SUITE_P(
    FeatureMatrix, SolverFuzzTest,
    ::testing::Values(
        FuzzParams{},
        FuzzParams{.name = "SimplifyMidway", .simplify_midway = true},
        // Arena compaction at every opportunity, alone and on top of the
        // half-loaded inprocessing path.
        FuzzParams{.name = "EagerGc", .eager_gc = true},
        FuzzParams{.name = "SimplifyMidwayEagerGc", .simplify_midway = true,
                   .eager_gc = true},
        // SLS-seeded lanes: a local-search pass before every Solve, alone
        // and on the half-loaded inprocessing path.
        FuzzParams{.name = "SlsSeed", .sls_seed = true},
        FuzzParams{.name = "SimplifyMidwaySlsSeed", .simplify_midway = true,
                   .sls_seed = true},
        // Every switch off: the CDCL core alone.
        FuzzParams{.name = "AllOff", .inprocessing = false},
        // Inprocessing off plus mid-stream Simplify(): it then only sweeps
        // satisfied clauses.
        FuzzParams{.name = "SweepOnlyMidway", .inprocessing = false,
                   .simplify_midway = true}));

// Random Horn churn in the mid-stream pattern above: clauses arrive in
// rounds, each round ending in a top-level simplification, with probes
// and solves in between doing propagation work. One solver sweeps on
// MaybeSimplify's schedule, its twin runs the full Simplify() every
// round; both must answer every probe and every solve identically, and
// as brute force does.
TEST(SweepScheduleTest, HornChurnAnswersAsIfSweptEveryRound) {
  Rng rng(0x5EE9);
  int64_t scheduled_sweeps = 0, always_sweeps = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n_vars = 4 + static_cast<int>(rng.Below(9));
    Cnf cnf;
    cnf.EnsureVars(n_vars);
    Solver scheduled;
    Solver always;
    for (int v = 0; v < n_vars; ++v) {
      scheduled.NewVar();
      always.NewVar();
    }
    for (int round = 0; round < 10; ++round) {
      // Horn clauses: every literal negative but, usually, the first.
      const int n_new = 1 + static_cast<int>(rng.Below(6));
      bool alive_s = true, alive_a = true;
      for (int c = 0; c < n_new; ++c) {
        const int len = 1 + static_cast<int>(rng.Below(4));
        std::vector<Lit> clause;
        for (int k = 0; k < len; ++k) {
          clause.push_back(Lit::Neg(static_cast<Var>(rng.Below(n_vars))));
        }
        if (rng.Chance(0.75)) clause[0] = ~clause[0];
        cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
        alive_s = scheduled.AddClause(clause) && alive_s;
        alive_a = always.AddClause(clause) && alive_a;
      }
      if (alive_s) alive_s = scheduled.MaybeSimplify();
      if (alive_a) alive_a = always.Simplify();
      const bool expected = BruteForceSat(cnf);
      ASSERT_EQ(alive_s, alive_a) << "trial " << trial << " round " << round;
      if (!alive_s) {
        EXPECT_FALSE(expected) << "trial " << trial << " round " << round;
        break;
      }
      for (int q = 0; q < 4; ++q) {
        const Lit base[2] = {
            Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)),
            Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5))};
        const bool probe_s = scheduled.BeginProbe(base);
        ASSERT_EQ(probe_s, always.BeginProbe(base))
            << "trial " << trial << " round " << round;
        if (!probe_s) continue;
        for (Var v = 0; v < n_vars; ++v) {
          EXPECT_EQ(scheduled.ProbeValue(v), always.ProbeValue(v))
              << "trial " << trial << " round " << round << " var " << v;
        }
        scheduled.EndProbe();
        always.EndProbe();
      }
      const SolveResult got = scheduled.Solve();
      ASSERT_EQ(got, always.Solve())
          << "trial " << trial << " round " << round;
      ASSERT_EQ(got == SolveResult::kSat, expected)
          << "trial " << trial << " round " << round;
      if (expected) {
        EXPECT_TRUE(ModelSatisfies(cnf, scheduled));
      }
    }
    scheduled_sweeps += scheduled.stats().sweeps;
    always_sweeps += always.stats().sweeps;
  }
  // The schedule did sweep, just less often than every round.
  EXPECT_GT(scheduled_sweeps, 0);
  EXPECT_LT(scheduled_sweeps, always_sweeps);
}

TEST(DimacsTest, RoundTrip) {
  Cnf cnf;
  cnf.EnsureVars(3);
  cnf.AddBinary(Lit::Pos(0), Lit::Neg(2));
  cnf.AddUnit(Lit::Pos(1));
  const std::string text = ToDimacs(cnf);
  EXPECT_NE(text.find("p cnf 3 2"), std::string::npos);
  auto parsed = FromDimacs(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_vars(), 3);
  EXPECT_EQ(parsed->num_clauses(), 2);
  EXPECT_EQ(parsed->clause(0)[0], Lit::Pos(0));
  EXPECT_EQ(parsed->clause(0)[1], Lit::Neg(2));
}

TEST(DimacsTest, ParsesCommentsAndMissingHeader) {
  auto parsed = FromDimacs("c a comment\n1 -2 0\n2 0\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_clauses(), 2);
  EXPECT_EQ(parsed->num_vars(), 2);
}

TEST(DimacsTest, RejectsUnterminatedClause) {
  EXPECT_FALSE(FromDimacs("1 -2\n").ok());
}

TEST(SolverTest, StatsAccumulate) {
  Solver s;
  s.AddCnf(Pigeonhole(5));
  ASSERT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0);
  EXPECT_GT(s.stats().propagations, 0);
}

TEST(SolverTest, LubySequence) {
  // The first 15 terms, and (under UBSan) no shift by a negative count on
  // the way — the subsequence walk used to reach 1 << -1 at i = 3.
  const int64_t expected[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(Solver::Luby(i), expected[i]) << "term " << i;
  }
  // Term 2^k - 2 (0-based) closes a subsequence with 2^(k-1).
  EXPECT_EQ(Solver::Luby(30), 16);
  EXPECT_EQ(Solver::Luby(62), 32);
  EXPECT_EQ(Solver::Luby(63), 1);
}

TEST(SolverTest, ResetIsObservablyAFreshSolver) {
  // One long-lived solver Reset between formulas must be bit-compatible
  // with a brand-new solver on every formula: same answers, same models,
  // same search statistics. This is what lets SessionScratch recycle a
  // solver across entities without changing any result.
  Rng rng(0xBEEF);
  Solver recycled;
  for (int round = 0; round < 60; ++round) {
    const int n_vars = 3 + static_cast<int>(rng.Below(10));
    const int n_clauses = 2 + static_cast<int>(rng.Below(50));
    Cnf cnf;
    cnf.EnsureVars(n_vars);
    for (int c = 0; c < n_clauses; ++c) {
      const int len = 1 + static_cast<int>(rng.Below(3));
      std::vector<Lit> clause;
      for (int k = 0; k < len; ++k) {
        clause.push_back(
            Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)));
      }
      cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
    }

    recycled.Reset();
    EXPECT_EQ(recycled.num_vars(), 0) << "round " << round;
    recycled.AddCnf(cnf);
    Solver fresh;
    fresh.AddCnf(cnf);

    const SolveResult got_recycled = recycled.Solve();
    const SolveResult got_fresh = fresh.Solve();
    ASSERT_EQ(got_recycled, got_fresh) << "round " << round;
    EXPECT_EQ(recycled.stats().conflicts, fresh.stats().conflicts)
        << "round " << round;
    EXPECT_EQ(recycled.stats().decisions, fresh.stats().decisions)
        << "round " << round;
    EXPECT_EQ(recycled.stats().propagations, fresh.stats().propagations)
        << "round " << round;
    if (got_recycled == SolveResult::kSat) {
      for (Var v = 0; v < cnf.num_vars(); ++v) {
        EXPECT_EQ(recycled.ModelLbool(v), fresh.ModelLbool(v))
            << "round " << round << " var " << v;
      }
    }
  }
}

// A formula with every kind of state a session leaves in its solver:
// `blocks` order blocks of `size` values with asymmetry and totality
// binaries (the search must find total orders, conflicting through the
// blocks' transitivity axioms), level-0 units, and random binaries and
// long clauses over the order variables and `aux` auxiliary ones.
Cnf MixedFormula(Rng* rng, int blocks, int size, int aux, int n_clauses) {
  Cnf cnf;
  for (int b = 0; b < blocks; ++b) {
    cnf.AddOrderBlock();
    cnf.GrowOrderBlock(b, size, [&](int, int) { return cnf.NewVar(); });
    const OrderBlock& block = cnf.order_block(b);
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        cnf.AddBinary(Lit::Neg(block.at(i, j)), Lit::Neg(block.at(j, i)));
        cnf.AddBinary(Lit::Pos(block.at(i, j)), Lit::Pos(block.at(j, i)));
      }
    }
  }
  for (int k = 0; k < aux; ++k) cnf.NewVar();
  const int n = cnf.num_vars();
  for (int b = 0; b < blocks; ++b) {
    cnf.AddUnit(Lit::Pos(cnf.order_block(b).at(0, 1)));
  }
  cnf.AddUnit(Lit(static_cast<Var>(n - 1), rng->Chance(0.5)));
  std::vector<Lit> clause;
  for (int c = 0; c < n_clauses; ++c) {
    clause.clear();
    const int len = 2 + static_cast<int>(rng->Below(4));
    for (int k = 0; k < len; ++k) {
      clause.push_back(Lit(static_cast<Var>(rng->Below(n)), rng->Chance(0.5)));
    }
    cnf.AddClause(clause);
  }
  return cnf;
}

void ExpectSameSolverState(const Solver& got, const Solver& want,
                           const std::string& where) {
  EXPECT_EQ(got.num_vars(), want.num_vars()) << where;
  EXPECT_EQ(got.stats().decisions, want.stats().decisions) << where;
  EXPECT_EQ(got.stats().propagations, want.stats().propagations) << where;
  EXPECT_EQ(got.stats().binary_propagations,
            want.stats().binary_propagations)
      << where;
  EXPECT_EQ(got.stats().conflicts, want.stats().conflicts) << where;
  EXPECT_EQ(got.arena_words(), want.arena_words()) << where;
  EXPECT_EQ(got.materialized_axioms(), want.materialized_axioms()) << where;
}

TEST(SolverTest, RecycledSolverMatchesFreshAcrossSizes) {
  // One solver Reset between alternating large and small formulas, as a
  // pooled SessionScratch sees a big entity and then a median one. Reset
  // clears only the lists of the variables the last formula used, and
  // the universe regrows in one step: each formula must still run exactly
  // as on a fresh solver, through learning, sweeps and materialized axioms.
  Rng rng(0x5eed'0024);
  Solver recycled;
  int64_t conflicts = 0, materialized = 0, learnt = 0;
  for (int round = 0; round < 16; ++round) {
    const bool large = round % 2 == 0;
    SolverOptions options;
    options.use_inprocessing = round % 4 < 2;
    const Cnf cnf = large ? MixedFormula(&rng, 3, 10, 120, 700)
                          : MixedFormula(&rng, 1, 4, 6, 12);
    const std::string where =
        "round " + std::to_string(round) + (large ? " large" : " small");
    recycled.Reset(options);
    ASSERT_EQ(recycled.num_vars(), 0) << where;
    Solver fresh(options);
    for (Solver* s : {&recycled, &fresh}) s->AddCnf(cnf);
    ExpectSameSolverState(recycled, fresh, where + " fed");

    if (!large) {
      // The probe trail: the level-0 facts, then what the base implies.
      const std::vector<Lit> base = {Lit::Pos(cnf.order_block(0).at(1, 2))};
      const bool opened = recycled.BeginProbe(base);
      ASSERT_EQ(opened, fresh.BeginProbe(base)) << where;
      if (opened) {
        const std::span<const Lit> a = recycled.ProbeTrail();
        const std::span<const Lit> b = fresh.ProbeTrail();
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << where;
        recycled.EndProbe();
        fresh.EndProbe();
      }
    }

    // Searches under assumptions (they learn clauses), a sweep, and a
    // final solve whose model must match.
    for (int q = 0; q < 4; ++q) {
      std::vector<Lit> assume;
      for (int k = 0; k < 3; ++k) {
        assume.push_back(Lit(static_cast<Var>(rng.Below(cnf.num_vars())),
                             rng.Chance(0.5)));
      }
      const SolveResult r = recycled.SolveWithAssumptions(assume);
      ASSERT_EQ(r, fresh.SolveWithAssumptions(assume)) << where;
    }
    recycled.Simplify();
    fresh.Simplify();
    const SolveResult r = recycled.Solve();
    ASSERT_EQ(r, fresh.Solve()) << where;
    ExpectSameSolverState(recycled, fresh, where + " solved");
    if (r == SolveResult::kSat) {
      for (Var v = 0; v < cnf.num_vars(); ++v) {
        ASSERT_EQ(recycled.ModelLbool(v), fresh.ModelLbool(v))
            << where << " var " << v;
      }
    }
    conflicts += recycled.stats().conflicts;
    materialized += recycled.materialized_axioms();
    learnt += static_cast<int64_t>(recycled.LearntClauses().size());
  }
  // The searches really learnt, and reasons really got materialized.
  EXPECT_GT(conflicts, 0);
  EXPECT_GT(learnt, 0);
  EXPECT_GT(materialized, 0);
}

TEST(SolverTest, VariablesAppearingOneByOneMatchOneBatch) {
  // AddClause grows the universe as each clause names new variables;
  // AddCnfFrom grows it once for the whole formula. Both create the same
  // variables in the same heap order, so the searches are identical.
  Rng rng(0x0b1e);
  Solver recycled;
  for (int round = 0; round < 12; ++round) {
    const int n = round % 2 == 0 ? 400 : 20;
    Cnf cnf;
    cnf.EnsureVars(n);
    std::vector<Lit> clause;
    for (int c = 0; c < 4 * n; ++c) {
      clause.clear();
      // Clause c < n introduces variable c; each names only earlier ones.
      const int hi = std::min(c, n - 1);
      clause.push_back(Lit(static_cast<Var>(hi), rng.Chance(0.5)));
      const int len = 1 + static_cast<int>(rng.Below(3));
      for (int k = 0; k < len; ++k) {
        clause.push_back(
            Lit(static_cast<Var>(rng.Below(hi + 1)), rng.Chance(0.5)));
      }
      cnf.AddClause(clause);
    }
    const std::string where = "round " + std::to_string(round);
    recycled.Reset();
    Solver batch;
    batch.AddCnf(cnf);
    for (int c = 0; c < cnf.num_clauses(); ++c) {
      const std::span<const Lit> lits = cnf.clause(c);
      recycled.AddClause(std::vector<Lit>(lits.begin(), lits.end()));
    }
    const SolveResult r = recycled.Solve();
    ASSERT_EQ(r, batch.Solve()) << where;
    EXPECT_EQ(recycled.stats().decisions, batch.stats().decisions) << where;
    EXPECT_EQ(recycled.stats().conflicts, batch.stats().conflicts) << where;
    if (r == SolveResult::kSat) {
      for (Var v = 0; v < n; ++v) {
        ASSERT_EQ(recycled.ModelLbool(v), batch.ModelLbool(v))
            << where << " var " << v;
      }
    }
  }
}

TEST(SolverStatsTest, AssumptionSolvesAreCounted) {
  Solver solver;
  const Var x = solver.NewVar();
  EXPECT_EQ(solver.stats().assumption_solves, 0);
  solver.Solve();  // no assumptions: not counted
  EXPECT_EQ(solver.stats().assumption_solves, 0);
  solver.SolveWithAssumptions({Lit::Pos(x)});
  EXPECT_EQ(solver.stats().assumption_solves, 1);
  EXPECT_EQ(solver.last_call_stats().assumption_solves, 1);
  solver.Solve();
  EXPECT_EQ(solver.stats().assumption_solves, 1);
  EXPECT_EQ(solver.last_call_stats().assumption_solves, 0);
}

}  // namespace
}  // namespace ccr::sat
