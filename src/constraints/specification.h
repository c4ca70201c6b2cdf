// Entity specifications Se = (It, Σ, Γ) — the input to conflict resolution
// (§II-C) — and the extension Se ⊕ Ot.

#ifndef CCR_CONSTRAINTS_SPECIFICATION_H_
#define CCR_CONSTRAINTS_SPECIFICATION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/constraints/rule_set.h"
#include "src/order/temporal_instance.h"

namespace ccr {

/// \brief A temporal instance plus currency constraints Σ and constant
/// CFDs Γ. Se is *valid* if some completion of its currency orders
/// satisfies both Σ and Γ (decided by IsValid, §V-A).
///
/// Σ and Γ live in one immutable RuleSet that every specification of a
/// corpus, each extension Se ⊕ Ot and each session share; copying a
/// specification copies the temporal instance and a pointer.
struct Specification {
  TemporalInstance temporal;  // It = (Ie, ⪯A1, ..., ⪯An)
  /// Σ and Γ; never null. Grounding fails with InvalidArgument when the
  /// schema has no attribute max_attr().
  std::shared_ptr<const RuleSet> rules = RuleSet::Empty();

  const std::vector<CurrencyConstraint>& sigma() const {
    return rules->sigma();
  }
  const std::vector<ConstantCfd>& gamma() const { return rules->gamma(); }

  const Schema& schema() const { return temporal.schema(); }
  const EntityInstance& instance() const { return temporal.instance(); }

  /// Replaces Σ and Γ by a rule set made for this specification's schema
  /// (RuleSet::Make); on error the rules are left unchanged.
  Status SetRules(std::vector<CurrencyConstraint> sigma,
                  std::vector<ConstantCfd> gamma);

  /// Renders a human-readable summary (sizes plus constraints).
  std::string ToString() const;
};

/// Computes Se ⊕ Ot: the same rule set, extended temporal instance (§II-C).
Result<Specification> Extend(const Specification& base,
                             const PartialTemporalOrder& delta);

}  // namespace ccr

#endif  // CCR_CONSTRAINTS_SPECIFICATION_H_
