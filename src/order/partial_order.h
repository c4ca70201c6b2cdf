// Strict partial orders over a fixed universe of elements.
//
// Used for the deduced value-level currency orders Od (§V-B) and the Pick
// baseline's known value orders. (Cycles among user-supplied temporal
// orders are left to validity checking, not detected here.)
//
// The relation is one row-major bit matrix in a single word array: row u
// holds {v : u ≺ v}, ceil(n / 64) words per row. It is kept transitively
// closed and acyclic, so Less() is one bit test, an element is maximal iff
// its row is empty, and cycle detection happens eagerly on insertion. Add
// closes the relation itself (O(n · n/64) per new pair); SetPair is for a
// caller whose pairs are already closed — Deduce's trail, on which the
// solver propagated transitivity — and costs one bit.

#ifndef CCR_ORDER_PARTIAL_ORDER_H_
#define CCR_ORDER_PARTIAL_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace ccr {

/// \brief Strict partial order ≺ on elements {0, ..., n-1}, closed under
/// transitivity.
class PartialOrder {
 public:
  explicit PartialOrder(int num_elements = 0);

  /// Empties the relation and sets the universe to {0, ..., n-1}, keeping
  /// the row storage: equal to `PartialOrder(num_elements)`, and
  /// allocation-free once the storage has held that many rows.
  void Reset(int num_elements);

  int num_elements() const { return n_; }

  /// Records u ≺ v (and all transitive consequences). Fails with
  /// InvalidArgument if v ≺ u already holds (a cycle) or u == v
  /// (irreflexivity).
  Status Add(int u, int v);

  /// Sets u ≺ v alone, computing no consequence: the caller guarantees
  /// that the pairs it sets form a transitively closed relation once all
  /// are set. Returns false, setting nothing, when v ≺ u already holds. On
  /// a closed relation every cycle holds such a reversed pair, so a cycle
  /// among the pairs is always rejected. Requires u != v, both in range.
  bool SetPair(int u, int v) {
    if (Less(v, u)) return false;
    rows_[Row(u) + (v >> 6)] |= uint64_t{1} << (v & 63);
    return true;
  }

  /// True iff u ≺ v in the closure.
  bool Less(int u, int v) const {
    return (rows_[Row(u) + (v >> 6)] >> (v & 63)) & 1;
  }

  /// True iff neither u ≺ v nor v ≺ u (and u != v).
  bool Incomparable(int u, int v) const {
    return u != v && !Less(u, v) && !Less(v, u);
  }

  /// Elements with no element above them (candidates for "most current"),
  /// ascending: the elements whose row is empty.
  std::vector<int> Maximal() const;
  /// Maximal() written over `out`, reusing its storage.
  void MaximalInto(std::vector<int>* out) const;

  /// True iff `top` dominates every other element: for all w != top,
  /// w ≺ top. Such an element is the unique most-current value (§V-B).
  bool DominatesAll(int top) const { return Top() == top; }

  /// The element that dominates every other one, or -1 when none does
  /// (or the universe is empty). Every element of a finite strict partial
  /// order lies at or below a maximal one, so this is the only maximal
  /// element, if there is only one: one scan for empty rows.
  int Top() const;

  /// All pairs (u, v) with u ≺ v, including transitive ones.
  std::vector<std::pair<int, int>> Pairs() const;

  /// Number of ordered pairs in the closure.
  int CountPairs() const;

  /// True iff u ≺ v ≺ w implies u ≺ w for all u, v, w: the invariant
  /// SetPair's callers promise, for their Debug-build checks.
  bool IsTransitivelyClosed() const;

 private:
  size_t Row(int u) const { return static_cast<size_t>(u) * words_; }
  bool RowEmpty(int u) const;

  int n_ = 0;
  int words_ = 0;               // words per row: ceil(n_ / 64)
  std::vector<uint64_t> rows_;  // n_ rows; bit v of row u <=> u ≺ v
};

}  // namespace ccr

#endif  // CCR_ORDER_PARTIAL_ORDER_H_
