#include "src/constraints/specification.h"

namespace ccr {

std::string Specification::ToString() const {
  std::string out = instance().ToString();
  out += "currency orders: " + std::to_string(temporal.TotalOrderPairs()) +
         " pairs\n";
  for (const auto& c : sigma()) out += "  " + c.ToString(schema()) + "\n";
  for (const auto& c : gamma()) out += "  " + c.ToString(schema()) + "\n";
  return out;
}

Status Specification::SetRules(std::vector<CurrencyConstraint> sigma,
                               std::vector<ConstantCfd> gamma) {
  CCR_ASSIGN_OR_RETURN(rules, RuleSet::Make(schema().size(), std::move(sigma),
                                            std::move(gamma)));
  return Status::OK();
}

Result<Specification> Extend(const Specification& base,
                             const PartialTemporalOrder& delta) {
  Specification out;
  CCR_ASSIGN_OR_RETURN(out.temporal, Extend(base.temporal, delta));
  out.rules = base.rules;
  return out;
}

}  // namespace ccr
