#include "src/constraints/rule_set.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

namespace ccr {

namespace {

// Appends the attributes a currency constraint mentions (body and head),
// sorted and deduplicated, to `out`.
void AppendMentionedAttrs(const CurrencyConstraint& phi,
                          std::vector<int>* out) {
  const size_t begin = out->size();
  for (const auto& p : phi.order_predicates()) out->push_back(p.attr);
  for (const auto& p : phi.compare_predicates()) out->push_back(p.attr);
  for (const auto& p : phi.constant_predicates()) out->push_back(p.attr);
  out->push_back(phi.head_attr());
  std::sort(out->begin() + begin, out->end());
  out->erase(std::unique(out->begin() + begin, out->end()), out->end());
}

// Stable counting sort of (key, item) pairs into CSR form: begin[k] is
// the first item of key k, items keep their input order within a key.
void BuildCsr(int num_keys, const std::vector<std::pair<int, int>>& pairs,
              std::vector<int>* begin, std::vector<int>* items) {
  begin->assign(num_keys + 1, 0);
  for (const auto& [key, item] : pairs) ++(*begin)[key + 1];
  std::partial_sum(begin->begin(), begin->end(), begin->begin());
  items->resize(pairs.size());
  std::vector<int> fill(begin->begin(), begin->end() - 1);
  for (const auto& [key, item] : pairs) (*items)[fill[key]++] = item;
}

}  // namespace

Result<std::shared_ptr<const RuleSet>> RuleSet::Make(
    int num_attrs, std::vector<CurrencyConstraint> sigma,
    std::vector<ConstantCfd> gamma) {
  std::shared_ptr<RuleSet> rs(new RuleSet());
  int max_attr = -1;
  auto check = [&](int attr, const char* what) -> Status {
    if (attr < 0 || attr >= num_attrs) {
      return Status::InvalidArgument(std::string(what) + " attribute " +
                                     std::to_string(attr) + " out of range");
    }
    max_attr = std::max(max_attr, attr);
    return Status::OK();
  };
  for (const CurrencyConstraint& phi : sigma) {
    CCR_RETURN_NOT_OK(check(phi.head_attr(), "currency constraint head"));
    for (const auto& p : phi.order_predicates()) {
      CCR_RETURN_NOT_OK(check(p.attr, "currency constraint order"));
    }
    for (const auto& p : phi.compare_predicates()) {
      CCR_RETURN_NOT_OK(check(p.attr, "currency constraint compare"));
    }
    for (const auto& p : phi.constant_predicates()) {
      CCR_RETURN_NOT_OK(check(p.attr, "currency constraint constant"));
    }
  }
  for (const ConstantCfd& cfd : gamma) {
    CCR_RETURN_NOT_OK(check(cfd.rhs_attr(), "CFD RHS"));
    for (const auto& [attr, c] : cfd.lhs()) {
      CCR_RETURN_NOT_OK(check(attr, "CFD LHS"));
    }
  }
  rs->max_attr_ = max_attr;
  const int width = max_attr + 1;

  // Σ: constraints that mention the same attribute set share one table.
  // Sorting by attribute set puts them next to each other.
  const int n_sigma = static_cast<int>(sigma.size());
  std::vector<int> mentioned;  // constraint ci's set: [begin[ci], begin[ci+1])
  std::vector<int> mentioned_begin(n_sigma + 1, 0);
  size_t num_columns = 0;
  for (int ci = 0; ci < n_sigma; ++ci) {
    const CurrencyConstraint& phi = sigma[ci];
    AppendMentionedAttrs(phi, &mentioned);
    mentioned_begin[ci + 1] = static_cast<int>(mentioned.size());
    num_columns += phi.order_predicates().size() +
                   phi.compare_predicates().size() +
                   2 * phi.constant_predicates().size();
  }
  auto attrs_of = [&](int ci) {
    return std::span<const int>(mentioned.data() + mentioned_begin[ci],
                                mentioned.data() + mentioned_begin[ci + 1]);
  };
  std::vector<int> by_attrs(n_sigma);
  std::iota(by_attrs.begin(), by_attrs.end(), 0);
  std::sort(by_attrs.begin(), by_attrs.end(), [&](int x, int y) {
    const std::span<const int> ax = attrs_of(x), ay = attrs_of(y);
    return std::lexicographical_compare(ax.begin(), ax.end(), ay.begin(),
                                        ay.end());
  });
  rs->sigma_constants_.resize(width);
  rs->sigma_plans_.resize(n_sigma);
  // Reserved in full, so the plans' spans stay valid while it fills.
  std::vector<int>& columns = rs->plan_columns_;
  columns.reserve(num_columns);
  auto span_from = [&columns](size_t begin) {
    return std::span<const int>(columns.data() + begin,
                                columns.data() + columns.size());
  };
  for (int k = 0; k < n_sigma; ++k) {
    const int ci = by_attrs[k];
    const std::span<const int> set = attrs_of(ci);
    if (k == 0 || !std::ranges::equal(set, attrs_of(by_attrs[k - 1]))) {
      rs->table_attrs_.emplace_back(set.begin(), set.end());
    }
    const std::vector<int>& attrs = rs->table_attrs_.back();
    auto column = [&](int attr) {
      return static_cast<int>(
          std::lower_bound(attrs.begin(), attrs.end(), attr) - attrs.begin());
    };
    const CurrencyConstraint& phi = sigma[ci];
    SigmaPlan& plan = rs->sigma_plans_[ci];
    plan.table = rs->num_tables() - 1;
    plan.head = column(phi.head_attr());
    size_t begin = columns.size();
    for (const auto& p : phi.order_predicates()) {
      columns.push_back(column(p.attr));
    }
    plan.order = span_from(begin);
    begin = columns.size();
    for (const auto& p : phi.compare_predicates()) {
      columns.push_back(column(p.attr));
    }
    plan.compare = span_from(begin);
    begin = columns.size();
    for (const auto& p : phi.constant_predicates()) {
      columns.push_back(column(p.attr));
    }
    plan.constant = span_from(begin);
    begin = columns.size();
    for (const auto& p : phi.constant_predicates()) {
      int id = -1;
      if (!p.constant.is_null()) {
        id = rs->sigma_constants_[p.attr]
                 .try_emplace(p.constant, rs->num_sigma_constants_)
                 .first->second;
        if (id == rs->num_sigma_constants_) ++rs->num_sigma_constants_;
      }
      columns.push_back(id);
    }
    plan.constant_id = span_from(begin);
  }

  // Γ index: one (key, CFD) entry per LHS pair, CFDs ascending per key,
  // and per attribute the CFDs reading it.
  const int n_gamma = static_cast<int>(gamma.size());
  rs->lhs_keys_.resize(width);
  int num_keys = 0;
  std::vector<std::pair<int, int>> key_entries;
  std::vector<std::pair<int, int>> attr_entries;
  std::vector<int> attrs;
  for (int gi = 0; gi < n_gamma; ++gi) {
    const auto& lhs = gamma[gi].lhs();
    if (lhs.empty()) rs->empty_lhs_cfds_.push_back(gi);
    attrs.clear();
    for (const auto& [attr, c] : lhs) {
      const int key =
          rs->lhs_keys_[attr].try_emplace(c, num_keys).first->second;
      if (key == num_keys) ++num_keys;
      key_entries.emplace_back(key, gi);
      attrs.push_back(attr);
    }
    std::sort(attrs.begin(), attrs.end());
    attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
    for (int attr : attrs) attr_entries.emplace_back(attr, gi);
  }
  BuildCsr(num_keys, key_entries, &rs->lhs_begin_, &rs->lhs_cfds_);
  BuildCsr(width, attr_entries, &rs->attr_begin_, &rs->attr_cfds_);

  rs->sigma_ = std::move(sigma);
  rs->gamma_ = std::move(gamma);
  return std::shared_ptr<const RuleSet>(std::move(rs));
}

const std::shared_ptr<const RuleSet>& RuleSet::Empty() {
  static const std::shared_ptr<const RuleSet> empty =
      std::move(Make(0, {}, {})).value();
  return empty;
}

int RuleSet::SigmaConstantId(int attr, const Value& v) const {
  if (attr >= static_cast<int>(sigma_constants_.size())) return -1;
  const auto& ids = sigma_constants_[attr];
  const auto it = ids.find(v);
  return it == ids.end() ? -1 : it->second;
}

std::span<const int> RuleSet::CfdsWithLhs(int attr, const Value& v) const {
  if (attr >= static_cast<int>(lhs_keys_.size())) return {};
  const auto& keys = lhs_keys_[attr];
  if (keys.empty()) return {};
  const auto it = keys.find(v);
  if (it == keys.end()) return {};
  return std::span<const int>(lhs_cfds_.data() + lhs_begin_[it->second],
                              lhs_cfds_.data() + lhs_begin_[it->second + 1]);
}

std::span<const int> RuleSet::CfdsWithLhsAttr(int attr) const {
  if (attr >= max_attr_ + 1) return {};
  return std::span<const int>(attr_cfds_.data() + attr_begin_[attr],
                              attr_cfds_.data() + attr_begin_[attr + 1]);
}

}  // namespace ccr
