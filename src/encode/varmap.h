// Mapping between value-level currency-order atoms a1 ≺^v_A a2 and SAT
// variables x^A_{a1 a2} (§V-A).
//
// The order domain of attribute A is adom(Ie.A) plus the constants that
// constant CFDs can introduce as repaired current values. CFD constants
// are added by a reachability fixpoint (CfdReach):
// a CFD is *applicable* when every LHS constant is already in its
// attribute's domain, and an applicable CFD adds its RHS constant. CFDs
// that can never fire on this entity are dropped, which keeps the domain —
// and with it the d×d order block of each attribute (d² variables that
// stand for d³ transitivity axioms) — proportional to the entity instead
// of to |Γ| (the paper's 1000-pattern CFD sets would otherwise blow up
// the encoding).

#ifndef CCR_ENCODE_VARMAP_H_
#define CCR_ENCODE_VARMAP_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/constraints/specification.h"
#include "src/sat/literal.h"

namespace ccr {

struct Instantiation;

/// \brief A value-level currency-order atom: value `less` is less current
/// than value `more` in attribute `attr` (indices into VarMap domains).
struct OrderAtom {
  int attr = -1;
  int less = -1;
  int more = -1;

  bool operator==(const OrderAtom& o) const {
    return attr == o.attr && less == o.less && more == o.more;
  }
};

/// \brief Γ's reachability fixpoint, driven by the domain values an entity
/// gains instead of by scans over Γ.
///
/// A CFD applies once all its LHS pairs are in their attributes' domains.
/// CfdReach counts, per CFD, the LHS pairs met so far, walking the rule
/// set's Γ index from each new domain value, and hands out ready CFDs in
/// the order repeated ascending scans over Γ would apply them: within a
/// pass, ascending from a cursor at the CFD applied last; a CFD that
/// becomes ready behind the cursor waits for the next pass. Domain order
/// (RHS constants are appended as CFDs apply) and with it every variable
/// id therefore equal the scan's.
class CfdReach {
 public:
  /// Starts a fixpoint over `rules`' Γ, which must outlive it. A fresh
  /// build passes `seed_empty_lhs` to queue the CFDs with an empty LHS; an
  /// extension has applied them already.
  void Start(const RuleSet& rules, bool seed_empty_lhs);

  /// Counts (attr, v), a value new to attr's domain, as met by every CFD
  /// whose LHS names it. `met_before(gi)` is called at a CFD's first hit:
  /// the number of its LHS pairs met before this fixpoint started, or -1
  /// to leave the CFD out (it is applicable already).
  template <class MetBefore>
  void AddValue(int attr, const Value& v, MetBefore&& met_before) {
    for (const int gi : rules_->CfdsWithLhs(attr, v)) {
      int& met = met_[gi];
      if (met == kUntouched) {
        touched_.push_back(gi);
        met = met_before(gi);
        if (met < 0) met = kDone;
      }
      if (met == kDone) continue;
      if (++met == rules_->CfdLhsSize(gi)) Ready(gi);
    }
  }

  /// The next CFD to apply, or -1 at the fixpoint. The caller applies it
  /// (and AddValue()s its RHS constant if new) before calling again.
  int Next();

 private:
  static constexpr int kUntouched = -1;
  static constexpr int kDone = -2;  // queued, applied or left out

  void Ready(int gi);

  const RuleSet* rules_ = nullptr;
  std::vector<int> met_;      // per gamma index: LHS pairs met, or a state
  std::vector<int> touched_;  // entries of met_ to reset at Start
  std::priority_queue<int, std::vector<int>, std::greater<int>> pass_;
  std::vector<int> next_pass_;
  int cursor_ = -1;
};

/// \brief Per-attribute value domains and the dense atom ↔ variable map.
///
/// Supports incremental growth: values appended after Build (new user
/// values, newly reachable CFD constants) keep every existing variable id
/// stable — atoms over the build-time domains live in dense per-attribute
/// blocks, atoms touching an appended value get fresh ids past the dense
/// region (two per earlier value, from a base id kept per appended
/// value). This is what lets the ResolutionSession append CNF clauses
/// across rounds instead of re-encoding.
///
/// Every table is flat and sized by the entity at BuildFrom, so a VarMap
/// recycled after a larger entity rebuilds at this entity's cost.
class VarMap {
 public:
  /// Builds domains from `se` and selects the applicable CFDs. Fails
  /// like BuildFrom.
  static Result<VarMap> Build(const Specification& se);

  /// In-place equivalent of `*this = Build(se)` that keeps the heap
  /// allocations (domain vectors, value indexes, extension bases)
  /// already grown — the Instantiation arena recycles one VarMap across
  /// back-to-back entities. Observably identical to a fresh Build.
  /// Fails closed with ResourceExhausted when the order variables, Σ d²
  /// over the attributes' domains, exceed sat::kMaxVars (the most whose
  /// literals fit an int32_t); nothing sized by d² has been allocated
  /// then.
  Status BuildFrom(const Specification& se);

  int num_attrs() const { return static_cast<int>(domains_.size()); }

  /// Ordered value domain of `attr` (active domain first, then reachable
  /// CFD constants).
  const std::vector<Value>& domain(int attr) const { return domains_[attr]; }

  /// Number of values of `attr` that come from the active domain; the
  /// rest were introduced by CFDs. At Build time the active values are a
  /// prefix of domain(attr); incremental extension appends new active
  /// values after any CFD constants, so this is a count, not a prefix
  /// length. (Diagnostics only — a value introduced as a CFD constant and
  /// later also observed in a tuple stays counted as a constant.)
  int active_domain_size(int attr) const { return adom_sizes_[attr]; }

  /// Index of `v` in domain(attr), or -1.
  int ValueIndex(int attr, const Value& v) const;

  /// The code row of tuple `t` of the instance BuildFrom read: per
  /// attribute, the value's index in domain(attr), or -1 for null.
  /// Written while the domains are assigned, so grounding never hashes a
  /// tuple value again. Covers the tuples BuildFrom saw, then those
  /// appended by AddTupleCodes.
  const int* tuple_codes(int t) const {
    return codes_.data() + static_cast<size_t>(t) * domains_.size();
  }

  /// Appends the code row of the next tuple (num_attrs() codes), for a
  /// tuple grounded after BuildFrom whose values are in the domains.
  void AddTupleCodes(std::span<const int> row) {
    codes_.insert(codes_.end(), row.begin(), row.end());
  }

  /// Indices into Specification::gamma of CFDs that can fire on this
  /// entity (reachability fixpoint).
  const std::vector<int>& applicable_cfds() const { return applicable_cfds_; }

  /// Total number of SAT variables.
  int num_vars() const { return num_vars_; }

  /// Variable for the atom less ≺^v more on attr. Precondition:
  /// 0 <= less, more < |domain(attr)| and less != more.
  sat::Var VarOf(int attr, int less, int more) const;
  sat::Var VarOf(const OrderAtom& atom) const {
    return VarOf(atom.attr, atom.less, atom.more);
  }

  /// Inverse of VarOf.
  OrderAtom Decode(sat::Var v) const {
    if (v >= dense_num_vars_) return ext_atoms_[v - dense_num_vars_];
    // The last attribute whose block starts at or before v (an empty
    // block shares the next one's offset). Counting instead of searching
    // keeps the loop free of data-dependent branches: Deduce decodes
    // every order literal of a probe's trail.
    int attr = -1;
    for (const int offset : offsets_) attr += offset <= v ? 1 : 0;
    const int d = dense_sizes_[attr];
    const int rel = v - offsets_[attr];
    return OrderAtom{attr, rel / d, rel % d};
  }

  /// Renders an atom like "city: NY < LA" for diagnostics.
  std::string AtomToString(const OrderAtom& atom, const Schema& schema) const;

  // --- incremental extension (ResolutionSession fast path) ---------------

  /// Appends `v` to domain(attr) and allocates variables for every order
  /// atom pairing it with the existing values (ids appended after
  /// num_vars(); all prior ids stay valid). `active` says whether the
  /// value comes from the (extended) active domain, as opposed to being a
  /// CFD-introduced constant. Returns the value's index — the existing
  /// one if `v` was already in the domain.
  int AddDomainValue(int attr, const Value& v, bool active);

  /// Records gamma index `gi` as applicable, keeping applicable_cfds()
  /// sorted (Build emits it sorted; incremental discovery must match).
  void MarkCfdApplicable(int gi);

  /// Allocates an auxiliary SAT variable that denotes no order atom (CFD
  /// guard selectors). Decode must not be called on it; IsOrderVar
  /// answers false. Ids share the one universe with atom variables so the
  /// CNF, the solver and the deduction pass all agree on var counts.
  sat::Var NewAuxVar();

  /// True iff `v` encodes an order atom (false for NewAuxVar ids).
  bool IsOrderVar(sat::Var v) const {
    return v < dense_num_vars_ || ext_atoms_[v - dense_num_vars_].attr >= 0;
  }

 private:
  friend struct Instantiation;  // ExtendWith reuses reach_

  // One attribute's value index: an open-addressing table (linear
  // probing, a power-of-two number of slots, at most half full) of
  // indices into domains_[attr]. Each slot also keeps 32 bits of its
  // value's hash, so a probe compares values only on a hash match and
  // regrowth never rehashes a value. Values compare by Value::operator==
  // through the domain, so the index dedups exactly as an
  // unordered_map<Value, int, ValueHash> would: Int(1) and Real(1.0)
  // share an entry, so do 0.0 and -0.0, and a NaN (unequal to itself) is
  // never found, so each occurrence appends a new domain value.
  struct ValueSlot {
    int32_t index = -1;  // -1: free
    uint32_t hash = 0;
  };
  struct ValueTable {
    std::vector<ValueSlot> slots;
    int size = 0;
  };
  static uint32_t SlotHash(const Value& v);
  // Empties attr's index with room for `expected` values.
  void ResetIndex(int attr, int expected);
  // v's index in domain(attr), appending (and indexing) it when it is
  // new; `second` says whether it was.
  std::pair<int, bool> InsertValue(int attr, const Value& v);
  void GrowIndex(ValueTable* table);

  std::vector<std::vector<Value>> domains_;
  std::vector<int> adom_sizes_;
  std::vector<ValueTable> index_;
  std::vector<ValueSlot> regrow_;  // GrowIndex's copy of the old slots
  std::vector<int> offsets_;      // var id base per attribute (dense region)
  std::vector<int> dense_sizes_;  // domain size covered by the dense block
  std::vector<int> applicable_cfds_;
  std::vector<int> codes_;  // tuple-major code rows (tuple_codes)
  // The Γ fixpoint's scratch, for BuildFrom and for the ExtendWith of the
  // Instantiation that owns this VarMap; the two never run at once.
  CfdReach reach_;
  int num_vars_ = 0;
  int dense_num_vars_ = 0;
  // Atoms touching post-Build values. AddDomainValue gives value
  // idx >= dense_sizes_[attr] the ids base, base+1, ... for (other, idx),
  // (idx, other) over every other < idx; ext_base_[attr][idx - dense
  // size] is that base. ext_atoms_ is the inverse, from dense_num_vars_.
  std::vector<std::vector<sat::Var>> ext_base_;
  std::vector<OrderAtom> ext_atoms_;
};

}  // namespace ccr

#endif  // CCR_ENCODE_VARMAP_H_
