#include "src/core/derivation.h"

#include <algorithm>
#include <span>

#include "src/common/status.h"

namespace ccr {

std::string DerivationRule::ToString(const VarMap& vm,
                                     const Schema& schema) const {
  std::string out = "({";
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.name(lhs[i].first) + "=" +
           vm.domain(lhs[i].first)[lhs[i].second].ToString();
  }
  out += "}) -> (" + schema.name(rhs_attr) + ", " +
         vm.domain(rhs_attr)[rhs_value].ToString() + ")";
  return out;
}

namespace {

// Admissibility of (attr, value index) pairs as assumed true values, as one
// flat table over all domains built per call. A value is admissible when it
// matches the attribute's known true value or, with none known, is one of
// its candidates (non-dominated values). For an unknown attribute the
// entry is the value's position in candidates[attr], which keys the head
// index below; a known attribute's true value reads 0; -1 is inadmissible.
class AdmissibleTable {
 public:
  AdmissibleTable(const VarMap& vm,
                  const std::vector<std::vector<int>>& candidates,
                  const std::vector<int>& known_true) {
    const int n = vm.num_attrs();
    offset_.resize(n);
    int total = 0;
    for (int a = 0; a < n; ++a) {
      offset_[a] = total;
      total += static_cast<int>(vm.domain(a).size());
    }
    position_.assign(total, -1);
    for (int a = 0; a < n; ++a) {
      if (known_true[a] >= 0) {
        position_[offset_[a] + known_true[a]] = 0;
        continue;
      }
      const std::vector<int>& cands = candidates[a];
      for (int i = 0; i < static_cast<int>(cands.size()); ++i) {
        position_[offset_[a] + cands[i]] = i;
      }
    }
  }

  int Position(int attr, int v) const { return position_[offset_[attr] + v]; }
  bool Admissible(int attr, int v) const { return Position(attr, v) >= 0; }

 private:
  std::vector<int> offset_;    // per attribute, into position_
  std::vector<int> position_;  // per (attr, value index)
};

// The Σ atom-head constraints TrueDer can consult, grouped by head. A
// lookup is always a head (bi ≺ b) with b and bi two candidates of an
// attribute whose true value is unknown, so only those heads are indexed:
// an unknown attribute with k ≥ 2 candidates owns a k×k block of buckets,
// keyed by the candidates' positions, and every other constraint is
// dropped on sight. Buckets are filled by a counting sort, which keeps
// emission order within a bucket.
class HeadIndex {
 public:
  HeadIndex(const std::vector<std::vector<int>>& candidates,
            const std::vector<int>& known_true, const AdmissibleTable& adm)
      : candidates_(candidates), adm_(adm) {
    const int n = static_cast<int>(candidates.size());
    base_.assign(n, -1);
    int total = 0;
    for (int a = 0; a < n; ++a) {
      const int k = static_cast<int>(candidates[a].size());
      if (known_true[a] >= 0 || k <= 1) continue;  // no rule targets it
      base_[a] = total;
      total += k * k;
    }
    begin_.assign(total + 1, 0);
  }

  // Files `gc` under its head, unless no lookup can ask for that head.
  void Add(const GroundConstraint* gc) {
    const int slot = Slot(gc->head);
    if (slot < 0) return;
    pending_.emplace_back(slot, gc);
    ++begin_[slot + 1];
  }

  // Places the added constraints into their buckets. The first compatible
  // constraint in a bucket wins, so bucket order must not depend on
  // whether Ω(Se) was built at once or extended round by round: it is the
  // canonical emission rank `seq`. Emission order already is, except where
  // ExtendWith appended a constraint that ranks before an earlier one of
  // the same head, or Build, which groups Σ constraints by attribute set,
  // grounded a later one first; only such a bucket is re-sorted.
  void Finish() {
    for (size_t s = 1; s < begin_.size(); ++s) begin_[s] += begin_[s - 1];
    entries_.resize(pending_.size());
    std::vector<int> fill(begin_.begin(), begin_.end() - 1);
    for (const auto& [slot, gc] : pending_) entries_[fill[slot]++] = gc;
    auto by_seq = [](const GroundConstraint* a, const GroundConstraint* b) {
      return a->seq < b->seq;
    };
    for (size_t s = 0; s + 1 < begin_.size(); ++s) {
      const auto first = entries_.begin() + begin_[s];
      const auto last = entries_.begin() + begin_[s + 1];
      if (!std::is_sorted(first, last, by_seq)) {
        std::stable_sort(first, last, by_seq);
      }
    }
  }

  // Whether rules can target `attr` (unknown, at least two candidates).
  bool Indexed(int attr) const { return base_[attr] >= 0; }

  // The constraints with head (less ≺ more) of an indexed attribute, in
  // `seq` order; both values must be candidates of it.
  std::span<const GroundConstraint* const> Bucket(int attr, int less,
                                                  int more) const {
    const int slot = Slot(OrderAtom{attr, less, more});
    return {entries_.data() + begin_[slot], entries_.data() + begin_[slot + 1]};
  }

 private:
  // Bucket of `head`, or -1 when no lookup can ask for it.
  int Slot(const OrderAtom& head) const {
    const int base = base_[head.attr];
    if (base < 0) return -1;
    const int less = adm_.Position(head.attr, head.less);
    const int more = adm_.Position(head.attr, head.more);
    if (less < 0 || more < 0) return -1;
    const int k = static_cast<int>(candidates_[head.attr].size());
    return base + less * k + more;
  }

  const std::vector<std::vector<int>>& candidates_;
  const AdmissibleTable& adm_;
  std::vector<int> base_;   // per attribute: first bucket, or -1
  std::vector<int> begin_;  // per bucket: first entry; one past the last
  std::vector<std::pair<int, const GroundConstraint*>> pending_;
  std::vector<const GroundConstraint*> entries_;
};

// The premises P[X] a rule under construction has accumulated: the
// assumed true value per attribute, valid where the attribute's stamp is
// the current rule's. Merging a constraint records the attributes it newly
// assumes, so a merge that turns out incompatible is undone in place.
class Premises {
 public:
  explicit Premises(int num_attrs)
      : stamp_(num_attrs, 0), value_(num_attrs, -1) {}

  // Starts an empty premise set for a new consequent (B, b).
  void Reset() {
    ++epoch_;
    attrs_.clear();
  }

  // Merges a constraint's body, read as "each atom's more-current value
  // is true", if it is admissible, does not assume another value for B
  // than b, and agrees with the premises so far. Leaves the premises
  // unchanged and returns false otherwise.
  bool TryMerge(std::span<const OrderAtom> body, int b_attr, int b,
                const AdmissibleTable& adm) {
    const size_t mark = attrs_.size();
    for (const OrderAtom& atom : body) {
      const int attr = atom.attr;
      const int assumed = atom.more;
      bool ok = (attr != b_attr || assumed == b) &&
                adm.Admissible(attr, assumed);
      if (ok && stamp_[attr] == epoch_) {
        ok = value_[attr] == assumed;
      } else if (ok) {
        stamp_[attr] = epoch_;
        value_[attr] = assumed;
        attrs_.push_back(attr);
      }
      if (!ok) {
        for (size_t i = mark; i < attrs_.size(); ++i) stamp_[attrs_[i]] = 0;
        attrs_.resize(mark);
        return false;
      }
    }
    return true;
  }

  // The premises as (attr, value) pairs sorted by attribute, without the
  // consequent's own attribute.
  std::vector<std::pair<int, int>> Lhs(int b_attr) {
    std::sort(attrs_.begin(), attrs_.end());
    std::vector<std::pair<int, int>> lhs;
    lhs.reserve(attrs_.size());
    for (int attr : attrs_) {
      if (attr != b_attr) lhs.emplace_back(attr, value_[attr]);
    }
    return lhs;
  }

 private:
  std::vector<int> stamp_;
  std::vector<int> value_;
  std::vector<int> attrs_;  // attributes assumed under the current stamp
  int epoch_ = 0;
};

// Candidate indices reordered by the values they denote (the library-wide
// total Value order). Domain *positions* are an artifact of encoding
// history — an incrementally extended VarMap appends new values after
// CFD constants, a rebuild interleaves them — so iterating candidates by
// position would make rule enumeration depend on which path produced the
// encoding. Value order is identical for both.
std::vector<int> SortedByValue(const VarMap& vm, int attr,
                               const std::vector<int>& cands) {
  std::vector<int> out = cands;
  std::sort(out.begin(), out.end(), [&](int a, int b) {
    return vm.domain(attr)[a].Compare(vm.domain(attr)[b]) < 0;
  });
  return out;
}

}  // namespace

std::vector<DerivationRule> TrueDer(
    const Instantiation& inst,
    const std::vector<std::vector<int>>& candidates,
    const std::vector<int>& known_true) {
  const VarMap& vm = inst.varmap;
  const AdmissibleTable adm(vm, candidates, known_true);
  std::vector<DerivationRule> rules;

  // One pass over Ω(Se) keeps what the two rule families read: the first
  // ground constraint of each CFD, and the Σ constraints a lookup can ask
  // for. Everything else costs one test.
  std::vector<const GroundConstraint*> first_of_cfd;  // gamma index -> gc
  HeadIndex by_head(candidates, known_true, adm);
  for (const GroundConstraint& gc : inst.constraints) {
    if (gc.source == GroundSource::kCfd) {
      if (gc.source_index >= static_cast<int>(first_of_cfd.size())) {
        first_of_cfd.resize(gc.source_index + 1, nullptr);
      }
      if (first_of_cfd[gc.source_index] == nullptr) {
        first_of_cfd[gc.source_index] = &gc;
      }
    } else if (gc.source == GroundSource::kCurrencyConstraint &&
               gc.head_kind == GroundHead::kAtom &&
               gc.has_body()) {  // unconditional: already in Od
      by_head.Add(&gc);
    }
  }
  by_head.Finish();

  // (1) Rules from applicable constant CFDs: (X, tp[X]) -> (B, tp[B]),
  // provided the pattern does not clash with validated values and its
  // premises are admissible. The pattern is reconstructed from the CFD's
  // ground constraints so tests can cross-check rule origins against
  // Ω(Se). Rules are emitted in gamma-index order regardless of where a
  // CFD's constraints sit in Ω(Se) — a CFD that became applicable in a
  // later round has its constraints appended at the end, while a rebuild
  // grounds it in place.
  std::vector<std::pair<int, int>> pattern;  // (attr, pattern value index)
  for (const GroundConstraint* gc : first_of_cfd) {
    if (gc == nullptr) continue;
    const int rhs_attr = gc->head.attr;
    const int rhs_value = gc->head.more;
    if (known_true[rhs_attr] >= 0) continue;  // already settled
    if (!adm.Admissible(rhs_attr, rhs_value)) continue;
    // Reconstruct the pattern from the body: each LHS attribute Aj has
    // domination atoms (other ≺ cj); head is (b ≺ tp[B]). An attribute
    // with two different cj makes no pattern.
    pattern.clear();
    for (const OrderAtom& atom : inst.body(*gc)) {
      pattern.emplace_back(atom.attr, atom.more);
    }
    std::sort(pattern.begin(), pattern.end());
    pattern.erase(std::unique(pattern.begin(), pattern.end()), pattern.end());
    bool ok = true;
    for (size_t i = 0; ok && i < pattern.size(); ++i) {
      ok = (i == 0 || pattern[i - 1].first != pattern[i].first) &&
           adm.Admissible(pattern[i].first, pattern[i].second);
    }
    if (!ok) continue;
    DerivationRule& rule = rules.emplace_back();
    rule.origin = GroundSource::kCfd;
    rule.source_index = gc->source_index;
    rule.rhs_attr = rhs_attr;
    rule.rhs_value = rhs_value;
    rule.lhs = pattern;
  }

  // (2) Rules from currency-constraint instance constraints: for each
  // unknown attribute B and candidate b, cover every competing candidate
  // bi with the first compatible constraint of head (bi ≺ b), accumulating
  // a consistent premise instantiation P[X].
  Premises premises(vm.num_attrs());
  for (int b_attr = 0; b_attr < vm.num_attrs(); ++b_attr) {
    if (!by_head.Indexed(b_attr)) continue;  // known, or nothing to derive
    const std::vector<int> ordered_cands =
        SortedByValue(vm, b_attr, candidates[b_attr]);
    for (int b : ordered_cands) {
      premises.Reset();
      bool rule_ok = true;
      for (int bi : ordered_cands) {
        if (bi == b) continue;
        bool covered = false;
        for (const GroundConstraint* gc : by_head.Bucket(b_attr, bi, b)) {
          if (premises.TryMerge(inst.body(*gc), b_attr, b, adm)) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          rule_ok = false;
          break;
        }
      }
      if (!rule_ok) continue;
      std::vector<std::pair<int, int>> lhs = premises.Lhs(b_attr);
      if (lhs.empty()) continue;  // would already be in Od
      DerivationRule& rule = rules.emplace_back();
      rule.origin = GroundSource::kCurrencyConstraint;
      rule.rhs_attr = b_attr;
      rule.rhs_value = b;
      rule.lhs = std::move(lhs);
    }
  }
  return rules;
}

graph::Graph CompGraph(const std::vector<DerivationRule>& rules) {
  const int n = static_cast<int>(rules.size());
  graph::Graph g(n);
  // Attribute→value map per rule (premises plus consequent), as one
  // attribute-sorted run per rule in a flat array.
  std::vector<std::pair<int, int>> maps;
  std::vector<int> begin(n + 1, 0);
  for (int i = 0; i < n; ++i) {
    const DerivationRule& rule = rules[i];
    const auto first = maps.insert(maps.end(), rule.lhs.begin(), rule.lhs.end());
    const auto at = std::lower_bound(
        first, maps.end(), rule.rhs_attr,
        [](const std::pair<int, int>& p, int attr) { return p.first < attr; });
    if (at != maps.end() && at->first == rule.rhs_attr) {
      at->second = rule.rhs_value;
    } else {
      maps.insert(at, {rule.rhs_attr, rule.rhs_value});
    }
    begin[i + 1] = static_cast<int>(maps.size());
  }
  for (int x = 0; x < n; ++x) {
    for (int y = x + 1; y < n; ++y) {
      if (rules[x].rhs_attr == rules[y].rhs_attr) continue;
      // Merge the two sorted runs; they must agree on shared attributes.
      int i = begin[x];
      int j = begin[y];
      bool agree = true;
      while (agree && i < begin[x + 1] && j < begin[y + 1]) {
        if (maps[i].first < maps[j].first) {
          ++i;
        } else if (maps[j].first < maps[i].first) {
          ++j;
        } else {
          agree = maps[i++].second == maps[j++].second;
        }
      }
      if (agree) g.AddEdge(x, y);
    }
  }
  return g;
}

}  // namespace ccr
