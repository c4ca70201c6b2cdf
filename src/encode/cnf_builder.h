// ConvertToCNF: Φ(Se) from Ω(Se) (§V-A).
//
// Every materialized ground constraint (b1 ∧ ... ∧ bk → h) becomes
// the clause (¬b1 ∨ ... ∨ ¬bk ∨ h), and the asymmetry of each ≺^v_A
// becomes the binaries ¬x_ab ∨ ¬x_ba. Transitivity, the O(d³) part of
// the paper's encoding, is not written out: each attribute gets one
// implicit order block in the sat::Cnf (its d×d matrix of order
// variables), which the solver and DeduceOrder propagate directly and
// Cnf::Materialized spells out on demand. By Lemma 5 of the paper, Se
// is valid iff Φ(Se) is satisfiable (a consistent strict partial order
// always extends to a total order).
//
// Φ(Se) is Horn: every clause has at most one positive literal. Rules
// carry one positive head (none for a false head) behind negated body
// atoms and guards, asymmetry binaries have none, a retired guard is a
// negative unit, and the implicit ternaries ¬x_ij ∨ ¬x_jk ∨ x_ik have
// one. ResolutionSession checks it as each clause batch enters the
// solver (Solver::ProblemIsHorn).

#ifndef CCR_ENCODE_CNF_BUILDER_H_
#define CCR_ENCODE_CNF_BUILDER_H_

#include "src/encode/instantiation.h"
#include "src/sat/cnf.h"

namespace ccr {

/// Builds Φ(Se) over the variables of `inst.varmap`: one clause per
/// ground constraint, then per attribute a its asymmetry binaries and
/// order block a.
sat::Cnf BuildCnf(const Instantiation& inst);

/// Builds Φ(Se) into `*cnf` (cleared first, keeping its buffer capacity).
/// Identical output to BuildCnf; the out-parameter form lets a recycled
/// formula (SessionScratch) be refilled without fresh allocations.
void BuildCnfInto(const Instantiation& inst, sat::Cnf* cnf);

/// Appends to `cnf` exactly what Φ(Se ⊕ Ot) gains from an
/// Instantiation::ExtendWith call: one unit per retired CFD guard
/// (guarded grounding — deactivates the stale rule version), one clause
/// per new ground constraint, the asymmetry binaries for atom pairs that
/// touch a newly added domain value, and the new rows and columns of the
/// grown attributes' order blocks (existing entries keep their
/// variables). `cnf` must be the formula previously built (and possibly
/// already extended) from `inst`.
void ExtendCnf(const Instantiation& inst, const InstantiationDelta& delta,
               sat::Cnf* cnf);

}  // namespace ccr

#endif  // CCR_ENCODE_CNF_BUILDER_H_
