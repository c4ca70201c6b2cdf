// Suggestion generation (Algorithm Suggest, §V-C.2, Fig. 7).
//
// The minimum suggestion problem is Σp2-complete (Corollary 7), so Suggest
// is a heuristic: derive rules (TrueDer), build the compatibility graph,
// take a maximum clique C, then find the largest subset C' of C with no
// conflicts with Se (GetSug). The suggestion asks the user for the
// attributes that are neither known nor derivable from C'.
//
// GetSug is a MaxSAT instance: Φ(Se) plus "selector → atom" clauses, with
// positive unit selectors as softs. Φ(Se) is Horn, so a rule set is
// feasible iff propagating the guards plus that set's atoms reaches no
// conflict (Dowling & Gallier 1984), and feasible sets are closed under
// subsets. GetSug is therefore an exact search over propagation probes on
// the caller's solver, for a clique of any size — no CDCL search, no new
// variable.

#ifndef CCR_CORE_SUGGEST_H_
#define CCR_CORE_SUGGEST_H_

#include <span>
#include <string>
#include <vector>

#include "src/core/derivation.h"
#include "src/sat/solver.h"

namespace ccr {

/// \brief A suggestion (A, V(A)): attributes whose true values the user
/// should provide, with complete candidate sets from the active domain.
struct Suggestion {
  /// A: attributes to ask the user about.
  std::vector<int> attrs;
  /// V(A): candidate value indices (into the VarMap domain) per attribute
  /// of `attrs`, positionally aligned.
  std::vector<std::vector<int>> candidates;
  /// A': attributes whose true values become derivable once A is
  /// validated (consequents of the conflict-free clique C').
  std::vector<int> derivable_attrs;
  /// Rules of the conflict-free clique C' (diagnostics / explanation).
  std::vector<DerivationRule> clique_rules;

  std::string ToString(const VarMap& vm, const Schema& schema) const;
};

/// Suggest knobs.
struct SuggestOptions {
  /// Exact branch-and-bound clique vs. greedy heuristic (ablation).
  bool exact_clique = true;
};

/// Computes a suggestion for `se` from its encoding and deduced state.
/// `known_true` is the per-attribute true value index (-1 if unknown).
/// One-shot form: loads Φ(Se) into a fresh solver (no CNF copy) and runs
/// the shared implementation below.
Suggestion Suggest(const Instantiation& inst, const sat::Cnf& phi,
                   const std::vector<std::vector<int>>& candidates,
                   const std::vector<int>& known_true,
                   const SuggestOptions& options = {});

/// Suggest against a caller-owned solver that already holds Φ(Se)'s
/// clauses — the ResolutionSession path. GetSug runs on `solver` (see
/// GetSug); nothing is copied and the call adds no clause or variable.
/// `assumptions` conditions every query (the session's active CFD
/// guards). The kept-rule set is canonical, so this and the one-shot form
/// agree bit-for-bit on equal specifications.
Suggestion SuggestOnSolver(const Instantiation& inst, sat::Solver* solver,
                           std::span<const sat::Lit> assumptions,
                           const std::vector<std::vector<int>>& candidates,
                           const std::vector<int>& known_true,
                           const SuggestOptions& options = {});

/// GetSug (Fig. 7, line 4) on a solver holding the Horn Φ(Se) (checked).
/// `rule_atoms[i]` are the literals clique rule i asserts (each premise
/// and the consequent dominating every other value of its attribute);
/// `assumptions` are the guards. Returns, per rule, whether it is in the
/// kept set: the largest set whose atoms are jointly consistent with
/// Φ(Se) under the guards, lexicographically greatest in rule order among
/// the largest (all false when the guards alone are inconsistent). One
/// probe on the whole clique decides a feasible clique. Otherwise a
/// depth-first search decides the rules in order, keep before drop, on
/// one propagation probe extended rule by rule and reopened only after a
/// refutation or to drop a kept rule; a branch that cannot beat the best
/// set found is pruned. The probes opened are recorded in the solver's
/// stats (RecordSuggest).
std::vector<bool> GetSug(sat::Solver* solver,
                         std::span<const sat::Lit> assumptions,
                         const std::vector<std::vector<sat::Lit>>& rule_atoms);

}  // namespace ccr

#endif  // CCR_CORE_SUGGEST_H_
