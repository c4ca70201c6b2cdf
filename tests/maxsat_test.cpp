// Tests for WalkSAT local search: the engine the paper's GetSug runs
// (bench_ablation A3 compares it with CDCL) and the solver's SLS seeding.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/maxsat/walksat.h"
#include "src/sat/solver.h"

namespace ccr::maxsat {
namespace {

using sat::Cnf;
using sat::Lit;
using sat::SolveResult;
using sat::Var;

TEST(WalkSatTest, SolvesEasySatFormula) {
  Cnf cnf;
  const Var a = cnf.NewVar(), b = cnf.NewVar(), c = cnf.NewVar();
  cnf.AddTernary(Lit::Pos(a), Lit::Pos(b), Lit::Pos(c));
  cnf.AddBinary(Lit::Neg(a), Lit::Pos(b));
  cnf.AddUnit(Lit::Neg(c));
  WalkSatOptions opts;
  const auto r = RunWalkSat(cnf, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->satisfied);
  EXPECT_EQ(r->best_unsat, 0);
}

TEST(WalkSatTest, RejectsInvalidOptions) {
  Cnf cnf;
  cnf.AddUnit(Lit::Pos(cnf.NewVar()));
  WalkSatOptions opts;
  opts.max_flips = 0;
  EXPECT_EQ(RunWalkSat(cnf, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts = {};
  opts.tries = -1;
  EXPECT_EQ(RunWalkSat(cnf, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts = {};
  opts.noise = 1.5;
  EXPECT_EQ(RunWalkSat(cnf, opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WalkSatTest, ApproximatesMaxSatOnUnsatFormula) {
  // a and ¬a: exactly one clause must stay unsatisfied.
  Cnf cnf;
  const Var a = cnf.NewVar();
  cnf.AddUnit(Lit::Pos(a));
  cnf.AddUnit(Lit::Neg(a));
  const auto r = RunWalkSat(cnf, {});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->satisfied);
  EXPECT_EQ(r->best_unsat, 1);
}

TEST(WalkSatTest, DeterministicUnderSeed) {
  Cnf cnf;
  Rng rng(5);
  for (int c = 0; c < 40; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(
          Lit(static_cast<Var>(rng.Below(12)), rng.Chance(0.5)));
    }
    cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
  }
  WalkSatOptions opts;
  opts.seed = 77;
  const auto r1 = RunWalkSat(cnf, opts);
  const auto r2 = RunWalkSat(cnf, opts);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->best_unsat, r2->best_unsat);
  EXPECT_EQ(r1->model, r2->model);
}

TEST(WalkSatTest, AgreesWithCdclOnRandomFormulas) {
  Rng rng(0xBEEF);
  int checked = 0;
  for (int round = 0; round < 60; ++round) {
    const int n_vars = 4 + static_cast<int>(rng.Below(8));
    const int n_clauses = 4 + static_cast<int>(rng.Below(30));
    Cnf cnf;
    cnf.EnsureVars(n_vars);
    for (int c = 0; c < n_clauses; ++c) {
      std::vector<Lit> clause;
      const int len = 2 + static_cast<int>(rng.Below(2));
      for (int k = 0; k < len; ++k) {
        clause.push_back(
            Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)));
      }
      cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
    }
    sat::Solver solver;
    solver.AddCnf(cnf);
    const bool sat = solver.Solve() == SolveResult::kSat;
    WalkSatOptions opts;
    opts.seed = round;
    const auto r = RunWalkSat(cnf, opts);
    ASSERT_TRUE(r.ok());
    // WalkSAT is incomplete: it may miss a satisfying assignment but must
    // never claim satisfied on an UNSAT formula.
    if (!sat) {
      EXPECT_FALSE(r->satisfied) << "round " << round;
      ++checked;
    } else if (r->satisfied) {
      EXPECT_EQ(r->best_unsat, 0);
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

}  // namespace
}  // namespace ccr::maxsat
