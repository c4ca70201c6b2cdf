// Temporal instances It = (Ie, ⪯A1, ..., ⪯An) and partial temporal orders
// Ot, with the extension operator Se ⊕ Ot (§II-A, §II-C).
//
// Currency orders are stored at tuple level, exactly as in the paper: a pair
// (i, j) in attribute A's order means tuple j's A-value is at least as
// current as tuple i's. Pairs between tuples with equal A-values are
// implicit and never stored; stored pairs with distinct values denote the
// strict order t_i ≺_A t_j.

#ifndef CCR_ORDER_TEMPORAL_INSTANCE_H_
#define CCR_ORDER_TEMPORAL_INSTANCE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/relational/entity_instance.h"

namespace ccr {

struct PartialTemporalOrder;

/// \brief An entity instance plus one (possibly empty) currency order per
/// attribute: the paper's temporal instance It.
class TemporalInstance {
 public:
  TemporalInstance() = default;

  /// Wraps `instance` with empty currency orders.
  explicit TemporalInstance(EntityInstance instance);

  const EntityInstance& instance() const { return instance_; }
  const Schema& schema() const { return instance_.schema(); }

  /// Records t_less ≺_attr t_more (available temporal information).
  /// Pairs whose two tuples carry the same value for `attr` are accepted
  /// and dropped (they are trivially true).
  Status AddOrder(int attr, int t_less, int t_more);

  /// Stored strict-order pairs for `attr`, as (less, more) tuple indices.
  const std::vector<std::pair<int, int>>& orders(int attr) const {
    return orders_[attr];
  }

  /// Total number of stored order pairs across attributes.
  int TotalOrderPairs() const;

  /// Appends a tuple (used when materializing user input as a new tuple
  /// t_o, §III Remark (1)).
  Status AddTuple(Tuple t);

  /// It ← It ⊕ Ot in place: appends Ot's tuples, then merges its order
  /// pairs, each through AddTuple / AddOrder. The first tuple or pair
  /// those reject truncates away whatever this call appended, so a
  /// rejected delta leaves the instance unchanged. Cycle detection is
  /// left to validity checking, as in Extend.
  Status Append(const PartialTemporalOrder& delta);

  /// How much of the instance exists at one moment: the tuple count and
  /// the stored pairs per attribute. TruncateTo(mark) drops whatever was
  /// appended after mark() — how a session undoes an Append whose
  /// grounding it then rejects.
  struct Mark {
    int tuples = 0;
    std::vector<size_t> orders;  // per attribute
  };
  Mark mark() const;
  void TruncateTo(const Mark& mark);

 private:
  EntityInstance instance_;
  std::vector<std::vector<std::pair<int, int>>> orders_;
};

/// \brief Additional currency information Ot = (I, ≺'A1, ..., ≺'An)
/// solicited from users; applied to a specification with Extend (Se ⊕ Ot).
struct PartialTemporalOrder {
  /// Tuples to append to the entity instance (e.g., the synthetic tuple t_o
  /// holding the user-validated values). Indices of these tuples, as
  /// referenced by `orders`, start at the current instance size.
  std::vector<Tuple> new_tuples;

  /// Order pairs (attr, less_tuple, more_tuple) over the extended instance.
  std::vector<std::tuple<int, int, int>> orders;

  /// |Ot|: the amount of currency information added (§II-C).
  int size() const { return static_cast<int>(orders.size()); }

  bool empty() const { return new_tuples.empty() && orders.empty(); }
};

/// Computes It ⊕ Ot on a copy of `base` (TemporalInstance::Append):
/// appends Ot's tuples and merges its currency orders. Fails if a tuple's
/// arity or an order pair is out of range; cycle detection is left to
/// validity checking (IsValid), as in the framework of Fig. 4.
Result<TemporalInstance> Extend(const TemporalInstance& base,
                                const PartialTemporalOrder& delta);

}  // namespace ccr

#endif  // CCR_ORDER_TEMPORAL_INSTANCE_H_
