#include "src/eval/pick.h"

#include <utility>

#include "src/common/status.h"
#include "src/core/deduce.h"
#include "src/encode/instantiation.h"

namespace ccr {

std::shared_ptr<const RuleSet> FavoredPickRules(const RuleSet& rules) {
  std::vector<CurrencyConstraint> comparison_only;
  for (const CurrencyConstraint& phi : rules.sigma()) {
    if (phi.IsComparisonOnly()) comparison_only.push_back(phi);
  }
  // A subset of a rule set fits every schema the rule set fits.
  auto made = RuleSet::Make(rules.max_attr() + 1, std::move(comparison_only),
                            {});
  CCR_CHECK(made.ok());
  return std::move(made).value();
}

Result<PickResult> PickBaseline(
    const Specification& se, Rng* rng,
    const std::shared_ptr<const RuleSet>& favored) {
  // Keep only comparison-only currency constraints and drop Γ, then let
  // grounding produce the unconditional value orders they imply.
  Specification favored_se;
  favored_se.temporal = se.temporal;
  favored_se.rules = favored;

  CCR_ASSIGN_OR_RETURN(const Instantiation inst,
                       Instantiation::Build(favored_se));
  const VarMap& vm = inst.varmap;

  // Unconditional ground heads give the known currency orders.
  DeducedOrders od;
  for (int a = 0; a < vm.num_attrs(); ++a) {
    od.per_attr.emplace_back(static_cast<int>(vm.domain(a).size()));
  }
  for (const GroundConstraint& gc : inst.constraints) {
    if (gc.has_body() || gc.head_kind != GroundHead::kAtom) continue;
    (void)od.per_attr[gc.head.attr].Add(gc.head.less, gc.head.more);
  }

  PickResult out;
  const int n = se.schema().size();
  out.values.assign(n, Value::Null());
  out.resolved.assign(n, false);
  for (int a = 0; a < n; ++a) {
    const std::vector<int> maximal = od.per_attr[a].Maximal();
    if (vm.domain(a).empty()) continue;
    // Pick a value that is not less current than any other value.
    const int idx =
        maximal.empty()
            ? static_cast<int>(rng->Below(vm.domain(a).size()))
            : maximal[static_cast<size_t>(rng->Below(maximal.size()))];
    out.values[a] = vm.domain(a)[idx];
    out.resolved[a] = true;
  }
  return out;
}

}  // namespace ccr
