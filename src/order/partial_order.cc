#include "src/order/partial_order.h"

#include <string>

namespace ccr {

PartialOrder::PartialOrder(int num_elements)
    : n_(num_elements),
      words_((num_elements + 63) / 64),
      rows_(static_cast<size_t>(num_elements) * words_, 0) {}

Status PartialOrder::Add(int u, int v) {
  if (u < 0 || v < 0 || u >= n_ || v >= n_) {
    return Status::InvalidArgument("partial order element out of range");
  }
  if (u == v) {
    return Status::InvalidArgument(
        "irreflexivity violated: element ordered before itself");
  }
  if (Less(v, u)) {
    return Status::InvalidArgument("cycle: adding " + std::to_string(u) +
                                   " < " + std::to_string(v) +
                                   " but the reverse already holds");
  }
  if (Less(u, v)) return Status::OK();
  // Everything at or below u now reaches v and everything v reaches. No
  // such x is v itself (v ≺ u does not hold), so row x never aliases v's.
  const uint64_t* row_v = &rows_[Row(v)];
  for (int x = 0; x < n_; ++x) {
    if (x != u && !Less(x, u)) continue;
    uint64_t* row_x = &rows_[Row(x)];
    row_x[v >> 6] |= uint64_t{1} << (v & 63);
    for (int w = 0; w < words_; ++w) row_x[w] |= row_v[w];
  }
  return Status::OK();
}

bool PartialOrder::RowEmpty(int u) const {
  const uint64_t* row = &rows_[Row(u)];
  uint64_t any = 0;
  for (int w = 0; w < words_; ++w) any |= row[w];
  return any == 0;
}

std::vector<int> PartialOrder::Maximal() const {
  std::vector<int> out;
  for (int v = 0; v < n_; ++v) {
    if (RowEmpty(v)) out.push_back(v);
  }
  return out;
}

int PartialOrder::Top() const {
  int top = -1;
  for (int v = 0; v < n_; ++v) {
    if (!RowEmpty(v)) continue;
    if (top >= 0) return -1;  // a second maximal element
    top = v;
  }
  return top;
}

std::vector<std::pair<int, int>> PartialOrder::Pairs() const {
  std::vector<std::pair<int, int>> out;
  for (int u = 0; u < n_; ++u) {
    for (int v = 0; v < n_; ++v) {
      if (Less(u, v)) out.emplace_back(u, v);
    }
  }
  return out;
}

int PartialOrder::CountPairs() const {
  int total = 0;
  for (const uint64_t w : rows_) total += __builtin_popcountll(w);
  return total;
}

bool PartialOrder::IsTransitivelyClosed() const {
  for (int u = 0; u < n_; ++u) {
    const uint64_t* row_u = &rows_[Row(u)];
    for (int v = 0; v < n_; ++v) {
      if (!Less(u, v)) continue;
      const uint64_t* row_v = &rows_[Row(v)];
      for (int w = 0; w < words_; ++w) {
        if ((row_v[w] & ~row_u[w]) != 0) return false;
      }
    }
  }
  return true;
}

}  // namespace ccr
