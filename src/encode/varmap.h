// Mapping between value-level currency-order atoms a1 ≺^v_A a2 and SAT
// variables x^A_{a1 a2} (§V-A).
//
// The order domain of attribute A is adom(Ie.A) plus the constants that
// constant CFDs can introduce as repaired current values. CFD constants
// are added by a reachability fixpoint:
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
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/constraints/specification.h"
#include "src/sat/literal.h"

namespace ccr {

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

/// \brief Per-attribute value domains and the dense atom ↔ variable map.
///
/// Supports incremental growth: values appended after Build (new user
/// values, newly reachable CFD constants) keep every existing variable id
/// stable — atoms over the build-time domains live in dense per-attribute
/// blocks, atoms touching an appended value get fresh ids past the dense
/// region (hash-mapped). This is what lets the ResolutionSession append
/// CNF clauses across rounds instead of re-encoding.
class VarMap {
 public:
  /// Builds domains from `se` and selects the applicable CFDs. Fails
  /// like BuildFrom.
  static Result<VarMap> Build(const Specification& se);

  /// In-place equivalent of `*this = Build(se)` that keeps the heap
  /// allocations (domain vectors, value-index hash tables, extension maps)
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
  static uint64_t PackAtom(int attr, int less, int more) {
    return (static_cast<uint64_t>(attr) << 42) |
           (static_cast<uint64_t>(less) << 21) | static_cast<uint64_t>(more);
  }

  std::vector<std::vector<Value>> domains_;
  std::vector<int> adom_sizes_;
  std::vector<std::unordered_map<Value, int, ValueHash>> index_;
  std::vector<int> offsets_;      // var id base per attribute (dense region)
  std::vector<int> dense_sizes_;  // domain size covered by the dense block
  std::vector<int> applicable_cfds_;
  int num_vars_ = 0;
  int dense_num_vars_ = 0;
  // Atoms touching post-Build values: packed atom -> var, and the inverse.
  std::unordered_map<uint64_t, sat::Var> ext_vars_;
  std::vector<OrderAtom> ext_atoms_;
};

}  // namespace ccr

#endif  // CCR_ENCODE_VARMAP_H_
