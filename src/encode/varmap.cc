#include "src/encode/varmap.h"

#include <algorithm>
#include <string>

#include "src/common/status.h"

namespace ccr {

Result<VarMap> VarMap::Build(const Specification& se) {
  VarMap vm;
  CCR_RETURN_NOT_OK(vm.BuildFrom(se));
  return vm;
}

Status VarMap::BuildFrom(const Specification& se) {
  VarMap& vm = *this;
  const Schema& schema = se.schema();
  const EntityInstance& inst = se.instance();
  const int n_attrs = schema.size();

  // Clear-in-place: inner vectors and hash tables keep their buffers so a
  // recycled VarMap (SessionScratch's Instantiation arena) refills warm.
  vm.domains_.resize(n_attrs);
  vm.index_.resize(n_attrs);
  vm.adom_sizes_.resize(n_attrs);
  for (int a = 0; a < n_attrs; ++a) {
    vm.domains_[a].clear();
    vm.index_[a].clear();
  }
  vm.applicable_cfds_.clear();
  vm.ext_vars_.clear();
  vm.ext_atoms_.clear();
  vm.num_vars_ = 0;
  vm.dense_num_vars_ = 0;

  auto add_value = [&vm](int attr, const Value& v) {
    if (vm.index_[attr]
            .try_emplace(v, static_cast<int>(vm.domains_[attr].size()))
            .second) {
      vm.domains_[attr].push_back(v);
    }
  };

  // Active domains in first-occurrence order, as EntityInstance::
  // ActiveDomain lists them (nulls excluded; they rank lowest and are
  // never candidate current values).
  for (int a = 0; a < n_attrs; ++a) {
    for (int t = 0; t < inst.size(); ++t) {
      const Value& v = inst.tuple(t).at(a);
      if (!v.is_null()) add_value(a, v);
    }
    vm.adom_sizes_[a] = static_cast<int>(vm.domains_[a].size());
  }

  // Reachability fixpoint over CFD constants: applicable CFDs contribute
  // their RHS constant as a possible (repaired) current value.
  std::vector<bool> applicable(se.gamma.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < se.gamma.size(); ++i) {
      if (applicable[i]) continue;
      const ConstantCfd& cfd = se.gamma[i];
      bool lhs_reachable = true;
      for (const auto& [attr, c] : cfd.lhs()) {
        if (vm.ValueIndex(attr, c) < 0) {
          lhs_reachable = false;
          break;
        }
      }
      if (!lhs_reachable) continue;
      applicable[i] = true;
      changed = true;
      add_value(cfd.rhs_attr(), cfd.rhs_value());
    }
  }
  for (size_t i = 0; i < se.gamma.size(); ++i) {
    if (applicable[i]) vm.applicable_cfds_.push_back(static_cast<int>(i));
  }

  // d² slots per attribute (diagonal unused, but decode stays O(1)),
  // summed wide: one attribute of 46,341 values already overflows int.
  // The bound is sat::kMaxVars, not INT32_MAX: a literal packs 2*var+sign
  // into an int32_t, so 32,768 values of one attribute are too many.
  int64_t total = 0;
  for (int a = 0; a < n_attrs; ++a) {
    const int64_t d = static_cast<int64_t>(vm.domains_[a].size());
    total += d * d;
    if (total > sat::kMaxVars) {
      return Status::ResourceExhausted(
          "order variables exceed the solver's range: attribute " +
          schema.name(a) + " brings the total to " + std::to_string(total) +
          " (sum of squared domain sizes)");
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

sat::Var VarMap::NewAuxVar() {
  // Hold an ext slot so Decode's dense/ext split stays index-aligned; the
  // sentinel attr marks the slot as "no atom" for IsOrderVar.
  CCR_CHECK(num_vars_ < sat::kMaxVars);
  ext_atoms_.push_back(OrderAtom{-1, -1, -1});
  return num_vars_++;
}

int VarMap::AddDomainValue(int attr, const Value& v, bool active) {
  auto [it, inserted] =
      index_[attr].emplace(v, static_cast<int>(domains_[attr].size()));
  if (!inserted) return it->second;
  const int idx = it->second;
  domains_[attr].push_back(v);
  if (active) ++adom_sizes_[attr];
  CCR_CHECK(num_vars_ <= sat::kMaxVars - 2 * idx);
  for (int other = 0; other < idx; ++other) {
    ext_vars_.emplace(PackAtom(attr, other, idx), num_vars_++);
    ext_atoms_.push_back(OrderAtom{attr, other, idx});
    ext_vars_.emplace(PackAtom(attr, idx, other), num_vars_++);
    ext_atoms_.push_back(OrderAtom{attr, idx, other});
  }
  return idx;
}

void VarMap::MarkCfdApplicable(int gi) {
  auto pos = std::lower_bound(applicable_cfds_.begin(),
                              applicable_cfds_.end(), gi);
  if (pos != applicable_cfds_.end() && *pos == gi) return;
  applicable_cfds_.insert(pos, gi);
}

int VarMap::ValueIndex(int attr, const Value& v) const {
  const auto& idx = index_[attr];
  auto it = idx.find(v);
  return it == idx.end() ? -1 : it->second;
}

sat::Var VarMap::VarOf(int attr, int less, int more) const {
  CCR_DCHECK(less >= 0 && more >= 0 &&
             less < static_cast<int>(domains_[attr].size()) &&
             more < static_cast<int>(domains_[attr].size()));
  CCR_DCHECK(less != more);
  const int d = dense_sizes_[attr];
  if (less < d && more < d) return offsets_[attr] + less * d + more;
  auto it = ext_vars_.find(PackAtom(attr, less, more));
  CCR_DCHECK(it != ext_vars_.end());
  return it->second;
}

OrderAtom VarMap::Decode(sat::Var v) const {
  if (v >= dense_num_vars_) return ext_atoms_[v - dense_num_vars_];
  int attr = num_attrs() - 1;
  while (attr > 0 && offsets_[attr] > v) --attr;
  const int d = dense_sizes_[attr];
  const int rel = v - offsets_[attr];
  return OrderAtom{attr, rel / d, rel % d};
}

std::string VarMap::AtomToString(const OrderAtom& atom,
                                 const Schema& schema) const {
  return schema.name(atom.attr) + ": " +
         domains_[atom.attr][atom.less].ToString() + " < " +
         domains_[atom.attr][atom.more].ToString();
}

}  // namespace ccr
