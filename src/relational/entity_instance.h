// Entity instances: sets of tuples pertaining to one real-world entity
// (§II-A). These are the unit of work for conflict resolution — typically
// much smaller than a full database, produced upstream by record linkage.

#ifndef CCR_RELATIONAL_ENTITY_INSTANCE_H_
#define CCR_RELATIONAL_ENTITY_INSTANCE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"

namespace ccr {

/// \brief A named entity and its (possibly conflicting) tuples.
class EntityInstance {
 public:
  EntityInstance() = default;
  EntityInstance(Schema schema, std::string entity_id)
      : schema_(std::move(schema)), entity_id_(std::move(entity_id)) {}

  const Schema& schema() const { return schema_; }
  const std::string& entity_id() const { return entity_id_; }

  int size() const { return static_cast<int>(tuples_.size()); }
  bool empty() const { return tuples_.empty(); }

  const Tuple& tuple(int i) const { return tuples_[i]; }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Appends a tuple; its arity must match the schema.
  Status Add(Tuple t);

  /// Drops every tuple past the first `n` (n <= size()).
  void Truncate(int n);

  /// Active domain adom(Ie.A): the distinct non-null values of attribute
  /// `attr` across all tuples, in first-occurrence order (§II-A).
  ///
  /// Nulls are excluded: a null marks the absence of a value and ranks
  /// lowest in every currency order, so it is never a candidate true value.
  std::vector<Value> ActiveDomain(int attr) const;

  /// True if attribute `attr` holds more than one distinct non-null value,
  /// i.e., the tuples conflict on it (used by the evaluation metrics).
  bool HasConflict(int attr) const;

  /// Number of attributes with conflicts.
  int CountConflictAttributes() const;

  /// Renders all tuples, one per line, for diagnostics.
  std::string ToString() const;

 private:
  Schema schema_;
  std::string entity_id_;
  std::vector<Tuple> tuples_;
};

}  // namespace ccr

#endif  // CCR_RELATIONAL_ENTITY_INSTANCE_H_
