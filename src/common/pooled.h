// Resizing vectors whose elements own heap storage (vectors of vectors,
// of rules) without freeing that storage.
//
// A round of the framework refills the same containers every time, but
// with varying element counts. Shrinking a std::vector destroys its tail
// elements, and with them the buffers they grew. PooledResize and
// PooledAppend park removed elements on a spare stack instead and take
// them back on growth. With one spare stack per vector, each position
// gets back the very element it held before, so the storage behind a
// position only grows, and a sequence of sizes seen once repeats
// without allocating.

#ifndef CCR_COMMON_POOLED_H_
#define CCR_COMMON_POOLED_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace ccr {

/// Appends an element to `v`: the one most recently parked on `spare`,
/// or a default-constructed one. A recycled element keeps its old
/// contents; the caller overwrites them.
template <typename T>
T& PooledAppend(std::vector<T>* v, std::vector<T>* spare) {
  if (spare->empty()) return v->emplace_back();
  v->push_back(std::move(spare->back()));
  spare->pop_back();
  return v->back();
}

/// Resizes `v` to `n` elements, parking the removed ones on `spare` and
/// appending with PooledAppend.
template <typename T>
void PooledResize(std::vector<T>* v, size_t n, std::vector<T>* spare) {
  while (v->size() > n) {
    spare->push_back(std::move(v->back()));
    v->pop_back();
  }
  while (v->size() < n) PooledAppend(v, spare);
}

}  // namespace ccr

#endif  // CCR_COMMON_POOLED_H_
