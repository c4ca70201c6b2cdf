// RuleSet: Σ and Γ, checked once and shared by every specification that
// uses them.
//
// Σ and Γ are the same for every entity of a corpus (Person: 983 currency
// constraints and 1,000 CFD patterns). A RuleSet holds them immutable
// behind a shared_ptr, so a specification, its extensions Se ⊕ Ot and a
// session refer to one copy instead of copying both vectors per entity.
// It also keeps what grounding derives from the rules alone, computed
// once when the set is made:
//   * each Σ constraint's mentioned-attribute set, grouped into the
//     projection tables Instantiation fills per entity, and the column of
//     every predicate in its table (SigmaPlan);
//   * a dense id per distinct (attribute, constant) of Σ's constant
//     predicates, so grounding resolves constants against an entity's
//     domain once per domain value instead of once per constraint;
//   * a Γ index from (LHS attribute, constant) to the CFDs naming it, with
//     one entry per LHS pair, which drives the reachability fixpoint from
//     an entity's domain values instead of scanning all of Γ.
// Grounding, encoding and solving stay per entity.

#ifndef CCR_CONSTRAINTS_RULE_SET_H_
#define CCR_CONSTRAINTS_RULE_SET_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/constraints/cfd.h"
#include "src/constraints/currency_constraint.h"

namespace ccr {

class RuleSet {
 public:
  /// Where a Σ constraint reads its projection table: the column of each
  /// predicate's attribute in the table's rows, in the constraint's
  /// predicate order. The spans view one array of the rule set.
  struct SigmaPlan {
    int table = -1;
    int head = -1;
    std::span<const int> order;     // order_predicates()
    std::span<const int> compare;   // compare_predicates()
    std::span<const int> constant;  // constant_predicates()
    /// sigma_constant id per constant predicate; -1 for a null constant.
    std::span<const int> constant_id;
  };

  // Plans view plan_columns_, so a rule set stays where it was made.
  RuleSet(const RuleSet&) = delete;
  RuleSet& operator=(const RuleSet&) = delete;

  /// Makes the rule set for schemas of `num_attrs` attributes. Every
  /// attribute index Σ and Γ mention is checked here, once:
  /// InvalidArgument when one is negative or not below `num_attrs`.
  static Result<std::shared_ptr<const RuleSet>> Make(
      int num_attrs, std::vector<CurrencyConstraint> sigma,
      std::vector<ConstantCfd> gamma);

  /// The rule set with no constraints (a default Specification's).
  static const std::shared_ptr<const RuleSet>& Empty();

  const std::vector<CurrencyConstraint>& sigma() const { return sigma_; }
  const std::vector<ConstantCfd>& gamma() const { return gamma_; }

  /// Largest attribute index any rule mentions; -1 when there is none. A
  /// schema fits the rule set iff it has more attributes than this.
  int max_attr() const { return max_attr_; }

  // --- Σ: projection tables and plans ------------------------------------

  /// Projection tables: one per distinct mentioned-attribute set, ordered
  /// by that set.
  int num_tables() const { return static_cast<int>(table_attrs_.size()); }
  /// The sorted attribute set of table `t`: the attributes each Σ
  /// constraint reading it mentions (body and head).
  const std::vector<int>& table_attrs(int t) const { return table_attrs_[t]; }
  const SigmaPlan& sigma_plan(int ci) const { return sigma_plans_[ci]; }

  /// Distinct non-null (attribute, constant) pairs of Σ's constant
  /// predicates; ids are dense in [0, num_sigma_constants()).
  int num_sigma_constants() const { return num_sigma_constants_; }
  /// Id of the constant `v` of attribute `attr`, or -1 when no constant
  /// predicate of Σ names it.
  int SigmaConstantId(int attr, const Value& v) const;
  /// True when some constant predicate of Σ reads `attr`.
  bool HasSigmaConstants(int attr) const {
    return attr < static_cast<int>(sigma_constants_.size()) &&
           !sigma_constants_[attr].empty();
  }

  // --- Γ index --------------------------------------------------------------

  /// CFDs whose LHS names (attr, v), ascending, one entry per LHS pair: a
  /// CFD that repeats the pair is listed once per repetition, so counting
  /// entries counts LHS pairs.
  std::span<const int> CfdsWithLhs(int attr, const Value& v) const;
  /// Number of LHS pairs of CFD `gi`, repetitions included.
  int CfdLhsSize(int gi) const {
    return static_cast<int>(gamma_[gi].lhs().size());
  }
  /// CFDs with at least one LHS pair on `attr`, ascending, each once.
  std::span<const int> CfdsWithLhsAttr(int attr) const;
  /// True when some CFD's LHS reads `attr`.
  bool IsCfdLhsAttr(int attr) const { return !CfdsWithLhsAttr(attr).empty(); }
  /// CFDs with an empty LHS, ascending: applicable on every entity.
  const std::vector<int>& empty_lhs_cfds() const { return empty_lhs_cfds_; }

 private:
  RuleSet() = default;

  std::vector<CurrencyConstraint> sigma_;
  std::vector<ConstantCfd> gamma_;
  int max_attr_ = -1;

  std::vector<std::vector<int>> table_attrs_;
  std::vector<SigmaPlan> sigma_plans_;
  std::vector<int> plan_columns_;  // every plan's spans, back to back
  // Per attribute: Σ constant -> dense id.
  std::vector<std::unordered_map<Value, int, ValueHash>> sigma_constants_;
  int num_sigma_constants_ = 0;

  // Per attribute: LHS constant -> key; key k's CFDs are
  // lhs_cfds_[lhs_begin_[k], lhs_begin_[k + 1]).
  std::vector<std::unordered_map<Value, int, ValueHash>> lhs_keys_;
  std::vector<int> lhs_begin_;
  std::vector<int> lhs_cfds_;
  // Per attribute a: attr_cfds_[attr_begin_[a], attr_begin_[a + 1]).
  std::vector<int> attr_begin_;
  std::vector<int> attr_cfds_;
  std::vector<int> empty_lhs_cfds_;
};

}  // namespace ccr

#endif  // CCR_CONSTRAINTS_RULE_SET_H_
