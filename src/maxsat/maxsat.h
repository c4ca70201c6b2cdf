// Partial MaxSAT: hard clauses that must hold plus unit-weight soft clauses
// to satisfy as many of as possible.
//
// The paper runs a Walksat-based MaxSat solver in GetSug (§V-C) to find
// the maximum subset of a clique of derivation rules that has no conflicts
// with the specification. On the Horn Φ(Se) GetSug needs no MaxSAT search:
// src/core/suggest.cc decides it by propagation probes. The exact engine
// here, IncrementalMaxSat, is GetSug's fallback (a non-Horn formula or an
// oversized clique) and the reference its differential test compares
// against: relaxation plus a Sinz sequential-counter linear search run
// *in place* on a caller-owned CDCL solver under assumptions, with every
// auxiliary variable confined to a released scope. SolveMaxSat is the
// one-shot convenience built on top of it; maxsat/walksat.h offers the
// paper-faithful stochastic local search alternative.

#ifndef CCR_MAXSAT_MAXSAT_H_
#define CCR_MAXSAT_MAXSAT_H_

#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/sat/cnf.h"
#include "src/sat/solver.h"

namespace ccr::maxsat {

/// Result of a MaxSAT call.
struct MaxSatResult {
  /// True if the hard clauses alone are satisfiable (otherwise the rest of
  /// the fields are meaningless).
  bool hard_satisfiable = false;
  /// Which soft clauses are satisfied in the optimal solution. Invariant:
  /// when hard_satisfiable, size() equals the number of soft clauses
  /// passed in — callers may index it positionally without bounds guards.
  std::vector<bool> soft_satisfied;
  /// Number of satisfied soft clauses.
  int num_satisfied = 0;
  /// Model over the original variables (those existing before the call).
  std::vector<bool> model;
};

/// \brief Exact partial MaxSAT run in place on a persistent solver.
///
/// The hard formula is whatever the solver already holds, conditioned on
/// `extra_assumptions` (e.g. a session's active CFD guards plus the
/// activation literal of a scope holding per-round rule clauses). Each
/// Solve call:
///   1. relaxes every soft Ci with a fresh selector si and clause
///      (Ci ∨ ¬si),
///   2. encodes a full-width Sinz sequential counter over the dropped
///      literals ¬si once, and linearly searches k = 0, 1, ... by assuming
///      the counter output "at most k dropped" until satisfiable — the
///      first such k is the exact optimum,
///   3. canonicalizes: selectors are fixed one at a time in soft-index
///      order, keeping each iff still satisfiable under the optimum bound
///      (the lexicographically greatest optimal kept set).
/// All auxiliary variables and clauses live in a ScopedVars scope released
/// before returning, so back-to-back calls on one solver cannot observe
/// each other. Because step 3 is decided by SAT verdicts alone, the result
/// is a pure function of the conditioned formula — bit-identical whether
/// the solver is freshly built or has served many prior rounds.
class IncrementalMaxSat {
 public:
  explicit IncrementalMaxSat(sat::Solver* solver) : solver_(solver) {}

  MaxSatResult Solve(const std::vector<std::vector<sat::Lit>>& soft,
                     std::span<const sat::Lit> extra_assumptions = {});

 private:
  sat::Solver* solver_;
};

/// \brief One-shot exact partial MaxSAT over an explicit hard formula.
///
/// Loads `hard` into a fresh solver and runs IncrementalMaxSat on it — the
/// same algorithm the ResolutionSession runs on its persistent solver, so
/// the two paths agree bit-for-bit on every instance.
MaxSatResult SolveMaxSat(const sat::Cnf& hard,
                         const std::vector<std::vector<sat::Lit>>& soft,
                         const sat::SolverOptions& options = {});

/// Appends clauses to `cnf` enforcing "at most k of `xs` are true" using
/// the Sinz sequential-counter encoding (auxiliary variables are drawn
/// from `cnf`). k >= xs.size() adds nothing; k == 0 forces all false.
void AddAtMostK(sat::Cnf* cnf, const std::vector<sat::Lit>& xs, int k);

}  // namespace ccr::maxsat

#endif  // CCR_MAXSAT_MAXSAT_H_
