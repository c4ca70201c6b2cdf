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
// Φ(Se) is Horn: every clause has at most one positive literal. Debug
// builds assert it over every explicit clause BuildCnfInto and ExtendCnf
// emit; the implicit ternaries ¬x_ij ∨ ¬x_jk ∨ x_ik are Horn by shape.

#ifndef CCR_ENCODE_CNF_BUILDER_H_
#define CCR_ENCODE_CNF_BUILDER_H_

#include "src/encode/instantiation.h"
#include "src/sat/cnf.h"

namespace ccr {

/// Φ(Se) construction knobs.
struct CnfBuildOptions {
  /// Include the transitivity axioms (one order block per attribute).
  /// Always on for semantic fidelity; exposed for the encoding
  /// micro-benchmarks and tests.
  bool transitivity = true;
  /// Include the asymmetry axioms (x_ab -> ¬x_ba).
  bool asymmetry = true;
};

/// Builds Φ(Se) over the variables of `inst.varmap`.
sat::Cnf BuildCnf(const Instantiation& inst,
                  const CnfBuildOptions& options = {});

/// Builds Φ(Se) into `*cnf` (cleared first, keeping its buffer capacity).
/// Identical output to BuildCnf; the out-parameter form lets a recycled
/// formula (SessionScratch) be refilled without fresh allocations.
void BuildCnfInto(const Instantiation& inst, sat::Cnf* cnf,
                  const CnfBuildOptions& options = {});

/// Appends to `cnf` exactly what Φ(Se ⊕ Ot) gains from an
/// Instantiation::ExtendWith call: one unit per retired CFD guard
/// (guarded grounding — deactivates the stale rule version), one clause
/// per new ground constraint, the asymmetry binaries for atom pairs that
/// touch a newly added domain value, and the new rows and columns of the
/// grown attributes' order blocks (existing entries keep their
/// variables). `cnf` must be the formula previously built (and possibly
/// already extended) from `inst`; `options` must match across all calls.
void ExtendCnf(const Instantiation& inst, const InstantiationDelta& delta,
               sat::Cnf* cnf, const CnfBuildOptions& options = {});

}  // namespace ccr

#endif  // CCR_ENCODE_CNF_BUILDER_H_
