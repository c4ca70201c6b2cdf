// IsValid: does a specification Se have a valid completion? (§V-A)
//
// Theorem 1 shows satisfiability of entity specifications is NP-complete,
// so IsValid reduces the question to SAT (Lemma 5: Se valid iff Φ(Se)
// satisfiable) and hands Φ(Se) to the CDCL solver. The formulas the
// encoder emits are Horn, for which satisfiability is linear-time unit
// propagation; IsValidShared decides those without search.

#ifndef CCR_CORE_ISVALID_H_
#define CCR_CORE_ISVALID_H_

#include <span>

#include "src/constraints/specification.h"
#include "src/encode/cnf_builder.h"
#include "src/encode/instantiation.h"
#include "src/sat/solver.h"

namespace ccr {

/// Outcome of a validity check, with encoding/solver size counters used by
/// the benchmark harnesses.
struct ValidityResult {
  bool valid = false;
  int num_vars = 0;
  /// Clauses of Φ(Se), the transitivity axioms its order blocks stand for
  /// included: the size of the materialized formula.
  int64_t num_clauses = 0;
  int64_t solver_conflicts = 0;
};

/// Checks validity of a pre-encoded specification. The same Φ(Se) can then
/// be reused by DeduceOrder (the framework of Fig. 4 shares the encoding
/// across steps).
ValidityResult IsValidCnf(const sat::Cnf& phi,
                          const sat::SolverOptions& options = {});

/// Validity via a caller-owned solver that already holds Φ(Se)'s clauses
/// (the ResolutionSession path — one solver across phases and rounds).
/// `assumptions` conditions the check (the session passes its active CFD
/// guard literals; a guarded clause binds only under its guard).
///
/// The check runs unit propagation first (Dowling–Gallier): it opens a
/// probe on `assumptions` and propagates to fixpoint, with no search.
///   * A conflict is a refutation: Φ ∧ assumptions is unsatisfiable, so
///     the answer is invalid.
///   * No conflict, and every live problem clause is Horn
///     (Solver::ProblemIsHorn): the answer is valid. At a conflict-free
///     fixpoint every clause is satisfied or keeps two open literals, at
///     least one of them negative in a Horn clause, so setting every open
///     variable false satisfies every clause — the least model.
///   * Otherwise (some live clause has two positive literals) the answer
///     comes from SolveWithAssumptions, as before.
/// Φ(Se) is Horn by construction (ResolutionSession checks it as each
/// clause batch enters the solver), guards and
/// retired guards are units, and the clauses of released Suggest scopes
/// are satisfied by their retired activation literals, so the session
/// path is decided by propagation alone: no assumption solve, no model.
///
/// The transitivity axioms are not clauses of the solver but order
/// blocks (sat::OrderBlock), and the argument still holds: each implicit
/// ternary ¬x_ij ∨ ¬x_jk ∨ x_ik is Horn, and the solver's closure
/// propagator applies exactly its unit rules, so a conflict-free fixpoint
/// leaves every ternary satisfied or with two open literals, one of them
/// negative. Setting the open variables false keeps every ternary true
/// (its open negative literal, or its true one), so the least model is a
/// model of the materialized Φ(Se) as well.
/// `solver_conflicts` reports this call's delta, not the cumulative count,
/// so per-phase attribution survives solver sharing (0 when propagation
/// decided). The size fields stay 0: the solver holds no formula to count
/// (the session's path).
ValidityResult IsValidShared(sat::Solver* solver,
                             std::span<const sat::Lit> assumptions = {});

/// IsValidShared, with the size fields filled from `phi`, the formula the
/// solver was loaded with.
ValidityResult IsValidShared(sat::Solver* solver, const sat::Cnf& phi,
                             std::span<const sat::Lit> assumptions = {});

/// One-shot convenience: grounds `se`, builds Φ(Se) and checks it.
Result<ValidityResult> IsValid(const Specification& se,
                               const sat::SolverOptions& options = {});

}  // namespace ccr

#endif  // CCR_CORE_ISVALID_H_
