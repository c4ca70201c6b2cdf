// Tests for the portfolio race (src/sat/portfolio.{h,cc}).
//
// The determinism contract is the headline guarantee: a portfolio solve
// may differ from a single-threaded solve in time and in which model it
// returns, but never in a verdict, a failed-assumption core's validity,
// or a MaxSAT optimum. The suite races with portfolio_defer_conflicts = 0
// so every solve (cache hits aside) actually spawns worker threads, and
// cross-checks against brute force and a single-threaded reference over
// the same randomized corpus the main solver suite uses.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/maxsat/maxsat.h"
#include "src/sat/portfolio.h"
#include "src/sat/solver.h"

namespace ccr::sat {
namespace {

// Brute-force satisfiability for <= 20 variables, under optional fixed
// assumption literals.
bool BruteForceSat(const Cnf& cnf, std::span<const Lit> assumptions = {}) {
  const int n = cnf.num_vars();
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    bool all = true;
    for (Lit a : assumptions) {
      const bool val = (mask >> a.var()) & 1;
      if (val == a.negated()) {
        all = false;
        break;
      }
    }
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
  return false;
}

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

Cnf RandomCnf(Rng& rng, int max_vars = 10, int max_clauses = 50) {
  const int n_vars = 3 + static_cast<int>(rng.Below(max_vars));
  const int n_clauses = 2 + static_cast<int>(rng.Below(max_clauses));
  Cnf cnf;
  cnf.EnsureVars(n_vars);
  std::vector<Lit> clause;
  for (int c = 0; c < n_clauses; ++c) {
    const int len = 1 + static_cast<int>(rng.Below(3));
    clause.clear();
    for (int k = 0; k < len; ++k) {
      clause.push_back(
          Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)));
    }
    cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
  }
  return cnf;
}

SolverOptions PortfolioOptions(int threads, int64_t defer = 0) {
  SolverOptions o;
  o.portfolio_threads = threads;
  o.portfolio_defer_conflicts = defer;
  return o;
}

// Pigeonhole principle PHP(n+1, n): hard UNSAT, enough conflicts that a
// race genuinely runs and shares clauses.
Cnf Pigeonhole(int holes) {
  Cnf cnf;
  const int pigeons = holes + 1;
  auto var = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  cnf.EnsureVars(pigeons * holes);
  std::vector<Lit> clause;
  for (int p = 0; p < pigeons; ++p) {
    clause.clear();
    for (int h = 0; h < holes; ++h) clause.push_back(Lit::Pos(var(p, h)));
    cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.AddBinary(Lit::Neg(var(p1, h)), Lit::Neg(var(p2, h)));
      }
    }
  }
  return cnf;
}

TEST(PortfolioTest, VerdictsMatchBruteForceOnRandomCorpus) {
  Rng rng(0xF01D);
  int sat_count = 0, unsat_count = 0;
  for (int round = 0; round < 80; ++round) {
    const Cnf cnf = RandomCnf(rng);
    Solver portfolio(PortfolioOptions(3));
    portfolio.AddCnf(cnf);
    const bool expected = BruteForceSat(cnf);
    const SolveResult got = portfolio.Solve();
    ASSERT_EQ(got == SolveResult::kSat, expected) << "round " << round;
    if (expected) {
      ++sat_count;
      EXPECT_TRUE(ModelSatisfies(cnf, portfolio)) << "round " << round;
    } else {
      ++unsat_count;
      EXPECT_TRUE(portfolio.IsUnsatForever());
    }
  }
  EXPECT_GT(sat_count, 5);
  EXPECT_GT(unsat_count, 5);
}

TEST(PortfolioTest, VerdictsMatchUnderAssumptions) {
  Rng rng(0xBEEF);
  for (int round = 0; round < 60; ++round) {
    const Cnf cnf = RandomCnf(rng);
    Solver single;
    single.AddCnf(cnf);
    Solver portfolio(PortfolioOptions(2));
    portfolio.AddCnf(cnf);
    // Several assumption solves per formula: the incremental reuse path.
    for (int q = 0; q < 4; ++q) {
      std::vector<Lit> assumptions;
      const int n_assume = static_cast<int>(rng.Below(3));
      for (int k = 0; k < n_assume; ++k) {
        assumptions.push_back(Lit(static_cast<Var>(rng.Below(cnf.num_vars())),
                                  rng.Chance(0.5)));
      }
      const SolveResult want = single.SolveWithAssumptions(assumptions);
      const SolveResult got = portfolio.SolveWithAssumptions(assumptions);
      ASSERT_EQ(got, want) << "round " << round << " query " << q;
      if (got == SolveResult::kUnsat && !portfolio.IsUnsatForever()) {
        // The failed-assumption core holds the NEGATIONS of a conflicting
        // assumption subset (AnalyzeFinal's learnt-clause convention);
        // asserting that subset must be inconsistent with the formula.
        std::vector<Lit> failed;
        for (Lit l : portfolio.FailedAssumptions()) failed.push_back(~l);
        EXPECT_FALSE(BruteForceSat(cnf, failed)) << "round " << round;
      }
    }
  }
}

TEST(PortfolioTest, MaxSatBoundSearchMatchesSingleThreaded) {
  Rng rng(0xCAFE);
  for (int round = 0; round < 25; ++round) {
    const Cnf hard = RandomCnf(rng, /*max_vars=*/8, /*max_clauses=*/20);
    std::vector<std::vector<Lit>> soft;
    const int n_soft = 1 + static_cast<int>(rng.Below(6));
    for (int i = 0; i < n_soft; ++i) {
      std::vector<Lit> s;
      const int len = 1 + static_cast<int>(rng.Below(2));
      for (int k = 0; k < len; ++k) {
        s.push_back(Lit(static_cast<Var>(rng.Below(hard.num_vars())),
                        rng.Chance(0.5)));
      }
      soft.push_back(std::move(s));
    }
    Solver single;
    single.AddCnf(hard);
    maxsat::IncrementalMaxSat ref(&single);
    const maxsat::MaxSatResult want = ref.Solve(soft);

    Solver portfolio(PortfolioOptions(2));
    portfolio.AddCnf(hard);
    maxsat::IncrementalMaxSat par(&portfolio);
    const maxsat::MaxSatResult got = par.Solve(soft);

    ASSERT_EQ(got.hard_satisfiable, want.hard_satisfiable)
        << "round " << round;
    if (want.hard_satisfiable) {
      // The optimum is unique; the canonical kept set is too (decided by
      // SAT verdicts alone — the determinism contract).
      EXPECT_EQ(got.num_satisfied, want.num_satisfied) << "round " << round;
      EXPECT_EQ(got.soft_satisfied, want.soft_satisfied) << "round " << round;
    }
  }
}

TEST(PortfolioTest, ImportRejectsUnknownVariable) {
  Solver s;
  const Var a = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Neg(a)}));
  // Var 7 does not exist in this solver.
  EXPECT_FALSE(s.ImportSharedClause(
      std::vector<Lit>{Lit::Pos(a), Lit::Pos(7)}, /*glue=*/1));
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(PortfolioTest, ImportRejectsEliminatedVariable) {
  // Eliminate b by BVE, then try to import a clause mentioning it: the
  // variable no longer exists in this solver's formula, so the import
  // must be rejected outright (its values only exist through model
  // reconstruction).
  SolverOptions bve;
  bve.use_bve = true;  // off by default
  Solver s(bve);
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(b), Lit::Pos(c)}));
  s.MarkEliminable(b);
  ASSERT_TRUE(s.Simplify());
  ASSERT_TRUE(s.VarEliminated(b));
  EXPECT_FALSE(s.ImportSharedClause(
      std::vector<Lit>{Lit::Pos(b), Lit::Pos(c)}, /*glue=*/1));
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(PortfolioTest, ImportRejectsScopeFrozenVariable) {
  Solver s;
  const Var a = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a)}));
  ScopedVars scope(&s);
  const Var t = scope.NewVar();
  ASSERT_TRUE(scope.AddClause({Lit::Pos(t)}));
  scope.Release();
  // t is frozen false; an imported unit (t) would be an empty clause and
  // a spurious UNSAT — the frozen check rejects it before evaluation.
  EXPECT_FALSE(s.ImportSharedClause(std::vector<Lit>{Lit::Pos(t)},
                                    /*glue=*/1));
  EXPECT_FALSE(s.IsUnsatForever());
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(PortfolioTest, ImportIntegratesAndPropagates) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a)}));  // a fixed true at level 0
  // (¬a ∨ b): the false literal ¬a is dropped, leaving the unit (b).
  EXPECT_TRUE(s.ImportSharedClause(
      std::vector<Lit>{Lit::Neg(a), Lit::Pos(b)}, /*glue=*/1));
  EXPECT_EQ(s.stats().imported_units, 1);
  // (a ∨ c) is satisfied at level 0: skipped, not integrated.
  EXPECT_FALSE(s.ImportSharedClause(
      std::vector<Lit>{Lit::Pos(a), Lit::Pos(c)}, /*glue=*/1));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(b));  // the imported unit is in force
}

TEST(PortfolioTest, ImportedEmptyClauseIsUnsatForever) {
  Solver s;
  const Var a = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a)}));
  // (¬a) contradicts the level-0 trail: the implied clause is empty.
  // Only sound if the exporter's formula implied it — the test simulates
  // a worker that proved UNSAT.
  EXPECT_FALSE(s.ImportSharedClause(std::vector<Lit>{Lit::Neg(a)},
                                    /*glue=*/1));
  EXPECT_TRUE(s.IsUnsatForever());
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(PortfolioTest, RaceActuallyRunsAndAttributesStats) {
  Solver s(PortfolioOptions(3));
  s.AddCnf(Pigeonhole(6));
  ASSERT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_GE(s.stats().portfolio_races, 1);
  // Sharing traffic and cancellations depend on thread timing; the
  // counters must at least be consistent (non-negative, and cancelled
  // workers bounded by the team size per race).
  EXPECT_GE(s.stats().imported_units, 0);
  EXPECT_LE(s.stats().cancelled_workers, 2 * s.stats().portfolio_races);
}

TEST(PortfolioTest, WinnerStateStaysReusableIncrementally) {
  // After a race (whoever wins), the master must keep functioning as the
  // session's incremental solver: more clauses, more solves, assumption
  // queries — all still exact against a single-threaded reference built
  // from the same final formula.
  Rng rng(0xD00D);
  for (int round = 0; round < 20; ++round) {
    Solver portfolio(PortfolioOptions(3));
    Cnf so_far;
    const int n_vars = 6 + static_cast<int>(rng.Below(6));
    so_far.EnsureVars(n_vars);
    std::vector<Lit> clause;
    bool gone_unsat = false;
    for (int batch = 0; batch < 4 && !gone_unsat; ++batch) {
      const int n_clauses = 2 + static_cast<int>(rng.Below(10));
      for (int c = 0; c < n_clauses; ++c) {
        const int len = 1 + static_cast<int>(rng.Below(3));
        clause.clear();
        for (int k = 0; k < len; ++k) {
          clause.push_back(
              Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)));
        }
        so_far.AddClause(std::span<const Lit>(clause.data(), clause.size()));
        while (portfolio.num_vars() < so_far.num_vars()) portfolio.NewVar();
        portfolio.AddClause(
            std::vector<Lit>(clause.begin(), clause.end()));
      }
      const bool expected = BruteForceSat(so_far);
      ASSERT_EQ(portfolio.Solve() == SolveResult::kSat, expected)
          << "round " << round << " batch " << batch;
      if (expected) {
        EXPECT_TRUE(ModelSatisfies(so_far, portfolio))
            << "round " << round << " batch " << batch;
      } else {
        gone_unsat = true;
      }
    }
  }
}

TEST(PortfolioTest, ResetTearsDownTheTeam) {
  Solver s(PortfolioOptions(2));
  s.AddCnf(Pigeonhole(5));
  ASSERT_EQ(s.Solve(), SolveResult::kUnsat);
  ASSERT_GE(s.stats().portfolio_races, 1);
  // A Reset solver is observably a fresh solver: same verdicts, zeroed
  // stats, and a fresh helper team mirroring only post-Reset clauses.
  s.Reset(PortfolioOptions(2));
  EXPECT_EQ(s.stats().portfolio_races, 0);
  const Var a = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a)}));
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(a));
}

TEST(PortfolioTest, DeferGateSkipsRacesOnEasySolves) {
  // With the default defer gate, a trivial solve must never spawn
  // threads.
  Solver s(PortfolioOptions(4, /*defer=*/512));
  const Var a = s.NewVar(), b = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b)}));
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_EQ(s.stats().portfolio_races, 0);
}

TEST(PortfolioTest, ExportBufPublishProtocol) {
  ClauseExportBuf buf;
  buf.Reset();
  EXPECT_EQ(buf.Published(), 0u);
  std::vector<Lit> bin{Lit::Pos(0), Lit::Neg(1)};
  EXPECT_TRUE(buf.TryPush(bin, /*glue=*/1));
  ASSERT_EQ(buf.Published(), 1u);
  const SharedClause& sc = buf.At(0);
  EXPECT_EQ(sc.size, 2);
  EXPECT_EQ(Lit::FromIndex(sc.lits[0]), Lit::Pos(0));
  EXPECT_EQ(Lit::FromIndex(sc.lits[1]), Lit::Neg(1));
  // Over-long clauses never enter the ring.
  std::vector<Lit> lits_long;
  for (Var v = 0; v < kShareMaxLits + 1; ++v) lits_long.push_back(Lit::Pos(v));
  EXPECT_FALSE(buf.TryPush(lits_long, /*glue=*/2));
  EXPECT_EQ(buf.Published(), 1u);
}

}  // namespace
}  // namespace ccr::sat
