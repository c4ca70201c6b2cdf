#include "src/encode/varmap.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "src/common/status.h"

namespace ccr {

Result<VarMap> VarMap::Build(const Specification& se) {
  VarMap vm;
  CCR_RETURN_NOT_OK(vm.BuildFrom(se));
  return vm;
}

void CfdReach::Start(const RuleSet& rules, bool seed_empty_lhs) {
  for (const int gi : touched_) met_[gi] = kUntouched;
  touched_.clear();
  met_.resize(rules.gamma().size(), kUntouched);
  rules_ = &rules;
  pass_ = {};
  next_pass_.clear();
  cursor_ = -1;
  if (seed_empty_lhs) {
    for (const int gi : rules.empty_lhs_cfds()) {
      touched_.push_back(gi);
      Ready(gi);
    }
  }
}

void CfdReach::Ready(int gi) {
  met_[gi] = kDone;
  if (gi > cursor_) {
    pass_.push(gi);
  } else {
    next_pass_.push_back(gi);
  }
}

int CfdReach::Next() {
  if (pass_.empty()) {
    // A new pass: the scan restarts at index 0.
    for (const int gi : next_pass_) pass_.push(gi);
    next_pass_.clear();
    if (pass_.empty()) return -1;
  }
  cursor_ = pass_.top();
  pass_.pop();
  return cursor_;
}

Status VarMap::BuildFrom(const Specification& se) {
  VarMap& vm = *this;
  const Schema& schema = se.schema();
  const EntityInstance& inst = se.instance();
  const RuleSet& rules = *se.rules;
  const int n_attrs = schema.size();
  if (rules.max_attr() >= n_attrs) {
    return Status::InvalidArgument(
        "rule set names attribute " + std::to_string(rules.max_attr()) +
        " of a schema with " + std::to_string(n_attrs) + " attributes");
  }
  if (n_attrs > kMaxAttrs || inst.size() > kMaxTuples) {
    return Status::ResourceExhausted(
        "the entity exceeds the formula size limits: " +
        std::to_string(inst.size()) + " tuples of " +
        std::to_string(n_attrs) + " attributes (at most " +
        std::to_string(kMaxTuples) + " and " + std::to_string(kMaxAttrs) +
        ")");
  }

  // Clear-in-place: inner vectors keep their buffers so a recycled VarMap
  // (SessionScratch's Instantiation arena) refills warm, and every table
  // is cleared at this entity's size: the value indexes are re-sized from
  // its tuple count, whatever an earlier entity grew them to.
  vm.domains_.resize(n_attrs);
  vm.index_.resize(n_attrs);
  vm.ext_base_.resize(n_attrs);
  vm.adom_sizes_.resize(n_attrs);
  for (int a = 0; a < n_attrs; ++a) {
    vm.domains_[a].clear();
    vm.ResetIndex(a, inst.size());
    vm.ext_base_[a].clear();
  }
  vm.applicable_cfds_.clear();
  vm.ext_atoms_.clear();
  vm.num_vars_ = 0;
  vm.dense_num_vars_ = 0;

  // Active domains in first-occurrence order, as EntityInstance::
  // ActiveDomain lists them (nulls excluded; they rank lowest and are
  // never candidate current values), writing each tuple's code row.
  vm.codes_.resize(static_cast<size_t>(inst.size()) * n_attrs);
  for (int a = 0; a < n_attrs; ++a) {
    for (int t = 0; t < inst.size(); ++t) {
      const Value& v = inst.tuple(t).at(a);
      vm.codes_[static_cast<size_t>(t) * n_attrs + a] =
          v.is_null() ? -1 : vm.InsertValue(a, v).first;
    }
    vm.adom_sizes_[a] = static_cast<int>(vm.domains_[a].size());
  }

  // Reachability fixpoint over CFD constants: applicable CFDs contribute
  // their RHS constant as a possible (repaired) current value.
  CfdReach& reach = vm.reach_;
  reach.Start(rules, /*seed_empty_lhs=*/true);
  auto none_before = [](int) { return 0; };
  for (int a = 0; a < n_attrs; ++a) {
    if (!rules.IsCfdLhsAttr(a)) continue;
    for (const Value& v : vm.domains_[a]) reach.AddValue(a, v, none_before);
  }
  for (int gi = reach.Next(); gi >= 0; gi = reach.Next()) {
    vm.applicable_cfds_.push_back(gi);
    const ConstantCfd& cfd = rules.gamma()[gi];
    if (vm.InsertValue(cfd.rhs_attr(), cfd.rhs_value()).second) {
      reach.AddValue(cfd.rhs_attr(), cfd.rhs_value(), none_before);
    }
  }
  std::sort(vm.applicable_cfds_.begin(), vm.applicable_cfds_.end());

  // d² slots per attribute (diagonal unused, but decode stays O(1)),
  // summed wide: one attribute of 46,341 values already overflows int.
  int64_t total = 0;
  for (int a = 0; a < n_attrs; ++a) {
    const int64_t d = static_cast<int64_t>(vm.domains_[a].size());
    total += d * d;
    if (total > kMaxOrderVars) {
      return Status::ResourceExhausted(
          "order variables exceed the formula size limit of " +
          std::to_string(kMaxOrderVars) + ": attribute " + schema.name(a) +
          " brings the sum of squared domain sizes to " +
          std::to_string(total));
    }
  }
  vm.offsets_.resize(n_attrs);
  vm.dense_sizes_.resize(n_attrs);
  int next = 0;
  for (int a = 0; a < n_attrs; ++a) {
    vm.offsets_[a] = next;
    const int d = static_cast<int>(vm.domains_[a].size());
    vm.dense_sizes_[a] = d;
    next += d * d;
  }
  vm.num_vars_ = next;
  vm.dense_num_vars_ = next;
  return Status::OK();
}

sat::Var VarMap::NewAuxVar(VarKind kind) {
  // Hold an ext slot so Decode's dense/ext split stays index-aligned; the
  // sentinel attr marks the slot as "no atom" for IsOrderVar and names
  // its kind.
  CCR_CHECK(kind != VarKind::kOrder && num_vars_ < sat::kMaxVars);
  const int slot =
      kind == VarKind::kGuard ? kGuardSlot : kDefinitionalSlot;
  ext_atoms_.push_back(OrderAtom{slot, -1, -1});
  return num_vars_++;
}

int VarMap::AddDomainValue(int attr, const Value& v, bool active) {
  const auto [idx, inserted] = InsertValue(attr, v);
  if (!inserted) return idx;
  if (active) ++adom_sizes_[attr];
  CCR_CHECK(num_vars_ <= sat::kMaxVars - 2 * idx);
  CCR_DCHECK(idx - dense_sizes_[attr] ==
             static_cast<int>(ext_base_[attr].size()));
  ext_base_[attr].push_back(num_vars_);
  for (int other = 0; other < idx; ++other) {
    ext_atoms_.push_back(OrderAtom{attr, other, idx});
    ext_atoms_.push_back(OrderAtom{attr, idx, other});
  }
  num_vars_ += 2 * idx;
  return idx;
}

void VarMap::MarkCfdApplicable(int gi) {
  auto pos = std::lower_bound(applicable_cfds_.begin(),
                              applicable_cfds_.end(), gi);
  if (pos != applicable_cfds_.end() && *pos == gi) return;
  applicable_cfds_.insert(pos, gi);
}

uint32_t VarMap::SlotHash(const Value& v) {
  // The high half of a product depends on every bit of the hash below
  // it; the slot is then picked by its low bits.
  const uint64_t h = ValueHash{}(v) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<uint32_t>(h >> 32);
}

void VarMap::ResetIndex(int attr, int expected) {
  ValueTable& table = index_[attr];
  table.slots.assign(std::bit_ceil(std::max<size_t>(
                         8, static_cast<size_t>(expected))),
                     ValueSlot{});
  table.size = 0;
}

std::pair<int, bool> VarMap::InsertValue(int attr, const Value& v) {
  ValueTable& table = index_[attr];
  std::vector<Value>& dom = domains_[attr];
  const uint32_t h = SlotHash(v);
  const size_t mask = table.slots.size() - 1;
  size_t i = h & mask;
  for (; table.slots[i].index >= 0; i = (i + 1) & mask) {
    const ValueSlot& slot = table.slots[i];
    if (slot.hash == h && dom[slot.index] == v) return {slot.index, false};
  }
  const int idx = static_cast<int>(dom.size());
  dom.push_back(v);
  table.slots[i] = ValueSlot{idx, h};
  if (2 * static_cast<size_t>(++table.size) > table.slots.size()) {
    GrowIndex(&table);
  }
  return {idx, true};
}

void VarMap::GrowIndex(ValueTable* table) {
  // Doubles the table, re-placing each entry by its kept hash; entries
  // are distinct, so no value is compared.
  regrow_.assign(table->slots.begin(), table->slots.end());
  table->slots.assign(2 * regrow_.size(), ValueSlot{});
  const size_t mask = table->slots.size() - 1;
  for (const ValueSlot& slot : regrow_) {
    if (slot.index < 0) continue;
    size_t i = slot.hash & mask;
    while (table->slots[i].index >= 0) i = (i + 1) & mask;
    table->slots[i] = slot;
  }
}

int VarMap::ValueIndex(int attr, const Value& v) const {
  const ValueTable& table = index_[attr];
  const uint32_t h = SlotHash(v);
  const size_t mask = table.slots.size() - 1;
  for (size_t i = h & mask; table.slots[i].index >= 0; i = (i + 1) & mask) {
    const ValueSlot& slot = table.slots[i];
    if (slot.hash == h && domains_[attr][slot.index] == v) return slot.index;
  }
  return -1;
}

std::string VarMap::AtomToString(const OrderAtom& atom,
                                 const Schema& schema) const {
  return schema.name(atom.attr) + ": " +
         domains_[atom.attr][atom.less].ToString() + " < " +
         domains_[atom.attr][atom.more].ToString();
}

}  // namespace ccr
