// The traditional Pick baseline (§VI).
//
// Conflict resolution surveys resolve attribute conflicts by picking a
// value (max/min/any) [4]. The paper compares against a *favored* Pick:
// it may use the comparison-only currency constraints (bodies without
// order predicates, e.g. ϕ1–ϕ3 of the NBA set) to discard values that are
// provably less current, then picks uniformly among the remaining ones.

#ifndef CCR_EVAL_PICK_H_
#define CCR_EVAL_PICK_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/constraints/specification.h"

namespace ccr {

/// Result of the Pick baseline on one entity.
struct PickResult {
  std::vector<Value> values;   // per attribute; null if no value available
  std::vector<bool> resolved;  // false only for all-null attributes
};

/// The rules favored Pick grounds for specifications with `rules`: the
/// comparison-only constraints of Σ, and no Γ (matching the paper's
/// setup). Make it once per corpus.
std::shared_ptr<const RuleSet> FavoredPickRules(const RuleSet& rules);

/// Runs favored Pick on `se`. `favored` must be FavoredPickRules(*se.rules),
/// made once by the caller and shared by every entity of the corpus.
/// InvalidArgument when grounding `favored` on `se` fails — a rule set
/// that names an attribute past `se`'s schema.
Result<PickResult> PickBaseline(const Specification& se, Rng* rng,
                                const std::shared_ptr<const RuleSet>& favored);

}  // namespace ccr

#endif  // CCR_EVAL_PICK_H_
