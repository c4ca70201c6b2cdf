#include "src/order/temporal_instance.h"

namespace ccr {

TemporalInstance::TemporalInstance(EntityInstance instance)
    : instance_(std::move(instance)) {
  orders_.resize(instance_.schema().size());
}

Status TemporalInstance::AddOrder(int attr, int t_less, int t_more) {
  if (attr < 0 || attr >= schema().size()) {
    return Status::InvalidArgument("attribute index out of range");
  }
  if (t_less < 0 || t_more < 0 || t_less >= instance_.size() ||
      t_more >= instance_.size()) {
    return Status::InvalidArgument("tuple index out of range in order pair");
  }
  if (t_less == t_more) return Status::OK();
  const Value& a = instance_.tuple(t_less).at(attr);
  const Value& b = instance_.tuple(t_more).at(attr);
  if (a == b) return Status::OK();  // trivially ordered, nothing to record
  orders_[attr].emplace_back(t_less, t_more);
  return Status::OK();
}

int TemporalInstance::TotalOrderPairs() const {
  int total = 0;
  for (const auto& per_attr : orders_) {
    total += static_cast<int>(per_attr.size());
  }
  return total;
}

Status TemporalInstance::AddTuple(Tuple t) {
  return instance_.Add(std::move(t));
}

Status TemporalInstance::Append(const PartialTemporalOrder& delta) {
  const Mark before = mark();
  auto append = [&]() -> Status {
    for (const Tuple& t : delta.new_tuples) CCR_RETURN_NOT_OK(AddTuple(t));
    for (const auto& [attr, less, more] : delta.orders) {
      CCR_RETURN_NOT_OK(AddOrder(attr, less, more));
    }
    return Status::OK();
  };
  Status st = append();
  if (!st.ok()) TruncateTo(before);
  return st;
}

TemporalInstance::Mark TemporalInstance::mark() const {
  Mark m;
  m.tuples = instance_.size();
  m.orders.reserve(orders_.size());
  for (const auto& per_attr : orders_) m.orders.push_back(per_attr.size());
  return m;
}

void TemporalInstance::TruncateTo(const Mark& mark) {
  CCR_CHECK(mark.orders.size() == orders_.size());
  instance_.Truncate(mark.tuples);
  for (size_t a = 0; a < orders_.size(); ++a) {
    CCR_CHECK(mark.orders[a] <= orders_[a].size());
    orders_[a].resize(mark.orders[a]);
  }
}

Result<TemporalInstance> Extend(const TemporalInstance& base,
                                const PartialTemporalOrder& delta) {
  TemporalInstance out = base;
  CCR_RETURN_NOT_OK(out.Append(delta));
  return out;
}

}  // namespace ccr
