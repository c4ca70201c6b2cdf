// The implication and true-value problems of §IV, decided exactly.
//
// Implication (Theorem 2, coNP-complete): Se |= Ot iff every valid
// completion of Se includes Ot. Decided per Lemma 6 one atom at a time:
// Se |= (a1 ≺_A a2) iff Φ(Se) ∧ ¬x^A_{a1 a2} is unsatisfiable.
//
// True value existence (Theorem 3, coNP-complete): T(Se) exists iff every
// attribute has a value that is the most current one in *all* valid
// completions — equivalently (for non-empty domains), a value that
// dominates its whole domain under the implied orders. The exact check
// therefore runs NaiveDeduce (complete for implied orders) and tests
// domination, unlike the linear-time heuristic DeduceOrder pass used
// inside the resolver loop.
//
// Semantics note: both checks decide implication at the Φ(Se) level of
// Lemma 6, which does not assume value-level totality. DeduceOrder in its
// default (paper) mode additionally applies the Fig. 5 reversed-order
// rule, justified by the totality of completions, and can therefore
// determine values these analyses leave open.

#ifndef CCR_CORE_IMPLICATION_H_
#define CCR_CORE_IMPLICATION_H_

#include <vector>

#include "src/core/deduce.h"

namespace ccr {

/// Outcome of an implication check.
struct ImplicationResult {
  /// True iff every order pair of Ot holds in every valid completion.
  bool implied = false;
  /// The first pair (attr, t_less, t_more) that is not implied, if any.
  int witness_attr = -1;
  int witness_less = -1;
  int witness_more = -1;
  /// Number of SAT calls performed (trivial pairs are filtered first).
  int sat_calls = 0;
};

/// Decides Se |= Ot for a partial temporal order over Se's own tuples
/// (Ot may not introduce new tuples — implication is about completions
/// of the existing instance, §IV). Fails with InvalidArgument on new
/// tuples or out-of-range indices, and with InvalidSpec when Se itself is
/// invalid (implication over an invalid Se is vacuous and almost always a
/// caller bug).
Result<ImplicationResult> Implies(const Specification& se,
                                  const PartialTemporalOrder& ot,
                                  const sat::SolverOptions& options = {});

/// Outcome of the exact true-value analysis.
struct TrueValueAnalysis {
  /// True iff T(Se) exists: every attribute with at least one non-null
  /// value has a unique most-current value across all valid completions.
  bool exists = false;
  /// Per-attribute true value index into the VarMap domain, or -1.
  std::vector<int> true_value_index;
  /// The implied orders (complete, per Lemma 6).
  DeducedOrders implied_orders;
};

/// Decides the true value problem exactly (NaiveDeduce-based: one
/// propagation probe on the Horn Φ(Se)). Fails with InvalidSpec when Se
/// is invalid.
Result<TrueValueAnalysis> AnalyzeTrueValue(
    const Specification& se, const sat::SolverOptions& options = {});

}  // namespace ccr

#endif  // CCR_CORE_IMPLICATION_H_
