#include "src/relational/entity_instance.h"

#include <unordered_set>

namespace ccr {

Status EntityInstance::Add(Tuple t) {
  if (t.size() != schema_.size()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(t.size()) +
        " does not match schema arity " + std::to_string(schema_.size()));
  }
  tuples_.push_back(std::move(t));
  return Status::OK();
}

void EntityInstance::Truncate(int n) {
  CCR_CHECK(n >= 0 && n <= size());
  tuples_.erase(tuples_.begin() + n, tuples_.end());
}

std::vector<Value> EntityInstance::ActiveDomain(int attr) const {
  std::vector<Value> out;
  std::unordered_set<Value, ValueHash> seen;
  for (const Tuple& t : tuples_) {
    const Value& v = t.at(attr);
    if (v.is_null()) continue;
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

bool EntityInstance::HasConflict(int attr) const {
  // Stops at the second distinct non-null value; no set is built.
  const Value* first = nullptr;
  for (const Tuple& t : tuples_) {
    const Value& v = t.at(attr);
    if (v.is_null()) continue;
    if (first == nullptr) {
      first = &v;
    } else if (!(v == *first)) {
      return true;
    }
  }
  return false;
}

int EntityInstance::CountConflictAttributes() const {
  int n = 0;
  for (int a = 0; a < schema_.size(); ++a) {
    if (HasConflict(a)) ++n;
  }
  return n;
}

std::string EntityInstance::ToString() const {
  std::string out = "entity '" + entity_id_ + "' (" +
                    std::to_string(size()) + " tuples)\n";
  for (const Tuple& t : tuples_) {
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

}  // namespace ccr
