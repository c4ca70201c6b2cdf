#include "src/maxsat/maxsat.h"

#include <algorithm>

#include "src/common/status.h"

namespace ccr::maxsat {

using sat::Cnf;
using sat::Lit;
using sat::ScopedVars;
using sat::SolveResult;
using sat::Solver;
using sat::Var;

void AddAtMostK(Cnf* cnf, const std::vector<Lit>& xs, int k) {
  const int n = static_cast<int>(xs.size());
  if (k >= n) return;
  if (k == 0) {
    for (Lit x : xs) cnf->AddUnit(~x);
    return;
  }
  // Sinz sequential counter: r[i][j] <=> at least j+1 of x_0..x_i true.
  std::vector<std::vector<Var>> r(n);
  for (int i = 0; i < n; ++i) {
    r[i].resize(k);
    for (int j = 0; j < k; ++j) r[i][j] = cnf->NewVar();
  }
  // x_0 -> r[0][0]
  cnf->AddBinary(~xs[0], Lit::Pos(r[0][0]));
  for (int j = 1; j < k; ++j) cnf->AddUnit(Lit::Neg(r[0][j]));
  for (int i = 1; i < n; ++i) {
    // x_i -> r[i][0]
    cnf->AddBinary(~xs[i], Lit::Pos(r[i][0]));
    // r[i-1][j] -> r[i][j]
    for (int j = 0; j < k; ++j) {
      cnf->AddBinary(Lit::Neg(r[i - 1][j]), Lit::Pos(r[i][j]));
    }
    // x_i & r[i-1][j-1] -> r[i][j]
    for (int j = 1; j < k; ++j) {
      cnf->AddTernary(~xs[i], Lit::Neg(r[i - 1][j - 1]),
                      Lit::Pos(r[i][j]));
    }
    // x_i & r[i-1][k-1] -> false  (would exceed k)
    cnf->AddBinary(~xs[i], Lit::Neg(r[i - 1][k - 1]));
  }
}

MaxSatResult IncrementalMaxSat::Solve(
    const std::vector<std::vector<Lit>>& soft,
    std::span<const Lit> extra_assumptions) {
  MaxSatResult result;
  const int n = static_cast<int>(soft.size());
  const int num_orig = solver_->num_vars();

  std::vector<Lit> base(extra_assumptions.begin(), extra_assumptions.end());
  // SLS upper-bound probe (use_sls_probing): one budgeted local-search
  // pass over hard+soft under the same assumptions, before anything is
  // encoded. A feasible pass missing u softs bounds the optimum from
  // above — the exact search below then verifies downward from u instead
  // of climbing from 0 — and its assignment is a genuine model that
  // pre-warms the solver's witness ring, usually turning the hard check
  // into a cache hit. Verdicts cannot change: every bound k is still
  // decided by the CDCL solver, and a misestimated u only changes which
  // k values get queried.
  sat::LocalSearchResult probe;
  if (solver_->options().use_sls_probing) {
    probe = solver_->SeedFromLocalSearch(
        std::span<const Lit>(base.data(), base.size()), soft);
    if (n > 0 && probe.feasible && probe.soft_unsat == 0) {
      // The probe's assignment is a genuine model (every live clause
      // verified) satisfying every soft: optimum 0 is witnessed exactly.
      // An exact witness cannot be improved or contradicted, so the
      // relaxation, counter, and every CDCL call are skipped outright.
      // The verdict is what the exact search would compute; only the
      // (non-canonical either way) model differs.
      solver_->RecordSlsProbe(true);
      result.hard_satisfiable = true;
      result.num_satisfied = n;
      result.soft_satisfied.assign(static_cast<size_t>(n), true);
      result.model.resize(static_cast<size_t>(num_orig));
      for (Var v = 0; v < num_orig; ++v) result.model[v] = probe.model[v] != 0;
      return result;
    }
  }
  if (solver_->SolveWithAssumptions(base) != SolveResult::kSat) {
    return result;
  }
  result.hard_satisfiable = true;
  if (n == 0) {
    result.model.resize(num_orig);
    for (Var v = 0; v < num_orig; ++v) result.model[v] = solver_->ModelValue(v);
    return result;
  }

  // Relaxation: selector si with (Ci ∨ ¬si); dropped literal di = ¬si.
  ScopedVars scope(solver_);
  base.push_back(scope.activation());
  std::vector<Var> sel(n);
  std::vector<Lit> dropped;
  dropped.reserve(n);
  for (int i = 0; i < n; ++i) {
    sel[i] = scope.NewVar();
    std::vector<Lit> clause = soft[i];
    clause.push_back(Lit::Neg(sel[i]));
    scope.AddClause(std::move(clause));
    dropped.push_back(Lit::Neg(sel[i]));
  }

  // Triangular Sinz counter over the dropped literals, encoded once:
  // count[i][j] <= "at least j+1 of d_0..d_i true", clauses only in the
  // counting direction, which is all an "at most k" bound needs. Row i
  // has width i+1 — "at least j+1 of the first i+1" is impossible past
  // that, so the square encoding's dead variables are never allocated.
  // Bound k is then a single assumption ¬count[n-1][k] — the linear
  // search and the canonicalization below reuse the same encoding for
  // every k.
  std::vector<std::vector<Var>> count(n);
  for (int i = 0; i < n; ++i) {
    count[i].resize(i + 1);
    for (int j = 0; j <= i; ++j) count[i][j] = scope.NewVar();
  }
  scope.AddClause({~dropped[0], Lit::Pos(count[0][0])});
  for (int i = 1; i < n; ++i) {
    scope.AddClause({~dropped[i], Lit::Pos(count[i][0])});
    for (int j = 0; j < i; ++j) {
      scope.AddClause({Lit::Neg(count[i - 1][j]), Lit::Pos(count[i][j])});
    }
    for (int j = 1; j <= i; ++j) {
      scope.AddClause({~dropped[i], Lit::Neg(count[i - 1][j - 1]),
                       Lit::Pos(count[i][j])});
    }
  }

  // Bound search. Without a probe: linear climb — the first satisfiable
  // k is the exact optimum (k = n never needs a bound; all softs dropped
  // is satisfiable by the hard check above). With a feasible probe of u
  // unsatisfied softs: verify SAT at u, then walk downward until UNSAT —
  // identical optimum, and when the probe is exact the whole search is
  // one SAT (at u) plus one UNSAT (at u-1) solve.
  int best_k = n;
  std::vector<Lit> assume = base;
  const auto sat_at = [&](int k) {
    assume.push_back(Lit::Neg(count[n - 1][k]));
    const SolveResult r = solver_->SolveWithAssumptions(assume);
    assume.pop_back();
    return r == SolveResult::kSat;
  };
  // A probe whose bound is u == n is trivially true and carries no
  // information — walking down from n would cost up to n solves where
  // the climb finds a low optimum in one. Treat it as no probe.
  const bool probed =
      probe.ran && probe.feasible && probe.soft_unsat < n;
  const int u = probed ? std::min(probe.soft_unsat, n) : n;
  if (!probed) {
    for (int k = 0; k < n; ++k) {
      if (sat_at(k)) {
        best_k = k;
        break;
      }
    }
  } else if (sat_at(u)) {
    best_k = u;
    while (best_k > 0 && sat_at(best_k - 1)) --best_k;
  } else {
    // The probe's bound was not achievable. A feasible probe is a
    // genuine model, so this never happens; should it, every k <= u is
    // UNSAT a fortiori, and the climb resumes above u.
    for (int k = u + 1; k < n; ++k) {
      if (sat_at(k)) {
        best_k = k;
        break;
      }
    }
  }
  if (solver_->options().use_sls_probing) {
    solver_->RecordSlsProbe(probed && best_k == u);
  }

  // Canonical extraction: fix selectors in soft-index order, keeping each
  // iff still satisfiable under the optimum bound. Under bound best_k any
  // model satisfies exactly the softs whose selectors are on (on ⊆
  // satisfied, |on| >= n-k, |satisfied| <= n-k), so this pins down the
  // lexicographically greatest optimal kept set — a semantic property,
  // independent of solver history.
  if (best_k < n) assume.push_back(Lit::Neg(count[n - 1][best_k]));
  for (int i = 0; i < n; ++i) {
    assume.push_back(Lit::Pos(sel[i]));
    if (solver_->SolveWithAssumptions(assume) != SolveResult::kSat) {
      assume.back() = Lit::Neg(sel[i]);
    }
  }
  const SolveResult final_r = solver_->SolveWithAssumptions(assume);
  CCR_CHECK(final_r == SolveResult::kSat);

  result.model.resize(num_orig);
  for (Var v = 0; v < num_orig; ++v) result.model[v] = solver_->ModelValue(v);
  result.soft_satisfied.assign(n, false);
  result.num_satisfied = 0;
  for (int i = 0; i < n; ++i) {
    // A soft counts as satisfied if its literals hold in the model
    // (selector choice aside, this is what callers care about).
    for (Lit l : soft[i]) {
      CCR_DCHECK(l.var() < num_orig);
      if (result.model[l.var()] != l.negated()) {
        result.soft_satisfied[i] = true;
        ++result.num_satisfied;
        break;
      }
    }
  }
  return result;
}

MaxSatResult SolveMaxSat(const Cnf& hard,
                         const std::vector<std::vector<Lit>>& soft,
                         const sat::SolverOptions& options) {
  Solver solver(options);
  solver.AddCnf(hard);
  IncrementalMaxSat inc(&solver);
  return inc.Solve(soft);
}

}  // namespace ccr::maxsat
