// ConvertToCNF: Φ(Se) from Ω(Se) (§V-A).
//
// A ground constraint of families (1a) and (2), (b1 ∧ ... ∧ bk → h),
// becomes the clause (¬b1 ∨ ... ∨ ¬bk ∨ h). Family (3) is written once
// per CFD guard version (CfdVersion), not once per rule: the version's
// definitional atom t gets the clause (¬g ∨ ¬ωX ∨ t), written with the
// version's first rule, and each rule ωX → x_b,rhs the binary
// (¬t ∨ x_b,rhs), so the body ωX is fed once however many values
// compete. t is derivable exactly when g and ωX hold, so the least model
// on order atoms is the one the rules' copied-body clauses would give.
// An unguarded version writes (¬ωX ∨ t). A retired version gets the
// units ¬g and ¬t.
//
// The structural axioms of each ≺^v_A, transitivity (the O(d³) part of
// the paper's encoding) and asymmetry (¬x_ab ∨ ¬x_ba), are not written
// out: each attribute gets one implicit order block (its d×d matrix of
// order variables), which the solver and DeduceOrder propagate directly
// and Cnf::Materialized spells out on demand. By Lemma 5 of the paper,
// Se is valid iff Φ(Se) is satisfiable (a consistent strict partial
// order always extends to a total order).
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
// atoms, a version's clause has t behind ¬g and ¬ωX, a rule's binary
// has x_b,rhs behind ¬t, a retired version's units are negative, and
// the implicit axioms have at most one (¬x_ij ∨ ¬x_jk ∨ x_ik, and
// ¬x_ij ∨ ¬x_ji). ResolutionSession checks it as each clause batch enters the
// solver (Solver::ProblemIsHorn).

#ifndef CCR_ENCODE_CNF_BUILDER_H_
#define CCR_ENCODE_CNF_BUILDER_H_

#include "src/encode/instantiation.h"
#include "src/sat/cnf.h"
#include "src/sat/solver.h"

namespace ccr {

/// Builds Φ(Se) over the variables of `inst.varmap`: order block a for
/// each attribute a, then one clause per ground constraint of families
/// (1a) and (2) and one binary per CFD rule, each CFD version's defining
/// clause just before its first rule's binary.
sat::Cnf BuildCnf(const Instantiation& inst);

/// Builds Φ(Se) into `*cnf` (cleared first, keeping its buffer capacity).
/// Identical output to BuildCnf; the out-parameter form lets a recycled
/// formula (SessionScratch) be refilled without fresh allocations.
void BuildCnfInto(const Instantiation& inst, sat::Cnf* cnf);

/// Appends to `cnf` exactly what Φ(Se ⊕ Ot) gains from an
/// Instantiation::ExtendWith call: the new rows and columns of the grown
/// attributes' order blocks (existing entries keep their variables), the
/// units ¬g and ¬t of each retired CFD version (guarded grounding —
/// deactivates the stale version), and the clauses of the new ground
/// constraints: a new version's defining clause with its first rule,
/// and one binary per new CFD rule, so a version that only gains
/// competing values gains only binaries. `cnf` must be the formula
/// previously built (and possibly already extended) from `inst`.
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
