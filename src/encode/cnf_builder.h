// ConvertToCNF: Φ(Se) from Ω(Se) (§V-A).
//
// Every materialized ground constraint (b1 ∧ ... ∧ bk → h) becomes
// the clause (¬b1 ∨ ... ∨ ¬bk ∨ h), and the asymmetry of each ≺^v_A
// becomes the binaries ¬x_ab ∨ ¬x_ba. Transitivity, the O(d³) part of
// the paper's encoding, is not written out: each attribute gets one
// implicit order block (its d×d matrix of order variables), which the
// solver and DeduceOrder propagate directly and Cnf::Materialized spells
// out on demand. By Lemma 5 of the paper, Se is valid iff Φ(Se) is
// satisfiable (a consistent strict partial order always extends to a
// total order).
//
// These rules are written once, as one pass over the Instantiation that
// writes into a sink. LoadSolver/ExtendSolver run it straight into a
// solver: ResolutionSession loads and extends its solver that way and
// holds no sat::Cnf. BuildCnf/BuildCnfInto/ExtendCnf run it into a
// sat::Cnf for the consumers that read a materialized formula: the
// one-shot procedures (IsValid, NaiveDeduce, DeduceOrder and its
// fallback inside DeduceOrderShared), DIMACS export, the CNF-form
// WalkSAT of bench_ablation, perfbench's traced drive, and tests that
// check a solver against an independently built formula.
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
#include "src/sat/solver.h"

namespace ccr {

/// Builds Φ(Se) over the variables of `inst.varmap`: order block a for
/// each attribute a, one clause per ground constraint, then each
/// attribute's asymmetry binaries.
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

/// Loads Φ(Se) into `solver`, which holds nothing yet (fresh or Reset),
/// in one pass with no sat::Cnf in between: the solver ends in the state
/// AddCnf(BuildCnf(inst)) leaves — the same clauses through the same
/// Solver::FeedClauseFrom, in the same order, after the same order blocks.
void LoadSolver(const Instantiation& inst, sat::Solver* solver);

/// Feeds `solver`, loaded from `inst` before the Instantiation::ExtendWith
/// call that returned `delta`, what ExtendCnf would append — the state
/// AddCnfFrom leaves after that ExtendCnf.
void ExtendSolver(const Instantiation& inst, const InstantiationDelta& delta,
                  sat::Solver* solver);

}  // namespace ccr

#endif  // CCR_ENCODE_CNF_BUILDER_H_
