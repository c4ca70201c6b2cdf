// Shared utilities for the Fig. 8 reproduction benches.
//
// Each bench binary prints the same series the corresponding figure plots.
// Scale is controlled by CCR_BENCH_SCALE (default 1): entity counts are
// multiplied by it, so `CCR_BENCH_SCALE=8 ./bench_validity` approaches the
// paper's corpus sizes while the default finishes in seconds.

#ifndef CCR_BENCH_BENCH_UTIL_H_
#define CCR_BENCH_BENCH_UTIL_H_

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/ccr.h"
#include "src/common/strings.h"

namespace ccr::bench {

/// Reads `text`, the value of the flag or environment variable `name`, as
/// a whole decimal integer in [1, hi]; `fallback` when `text` is null (an
/// unset variable). A malformed or out-of-range value ("12abc", "0", an
/// overflowing one) ends the bench with a message and exit status 2.
inline int BenchInt(const char* name, const char* text, int fallback,
                    int hi = INT_MAX) {
  if (text == nullptr) return fallback;
  int64_t v = 0;
  if (!ParseInt64(text, &v) || v < 1 || v > hi) {
    std::fprintf(stderr, "%s wants an integer in [1, %d], got '%s'\n", name,
                 hi, text);
    std::exit(2);
  }
  return static_cast<int>(v);
}

inline int BenchScale() {
  return BenchInt("CCR_BENCH_SCALE", std::getenv("CCR_BENCH_SCALE"), 1);
}

/// One size bucket of entity instances (by tuple count), as on the x-axes
/// of Fig. 8(a)-(d).
struct Bucket {
  int lo;
  int hi;
  std::string Label() const {
    return "[" + std::to_string(lo) + "," + std::to_string(hi) + "]";
  }
};

/// The paper's NBA buckets: [1,27], [28,54], [55,81], [82,108], [109,135].
inline std::vector<Bucket> NbaBuckets() {
  return {{1, 27}, {28, 54}, {55, 81}, {82, 108}, {109, 135}};
}

/// The paper's Person buckets: [1,2000] ... [8001,10000].
inline std::vector<Bucket> PersonBuckets() {
  return {{1, 2000}, {2001, 4000}, {4001, 6000}, {6001, 8000},
          {8001, 10000}};
}

/// NBA-like corpus with entity sizes spanning the buckets. `per_bucket`
/// entities land in each bucket (uniform size within it).
inline Dataset NbaBucketed(int per_bucket) {
  Dataset all;
  bool first = true;
  for (const Bucket& b : NbaBuckets()) {
    NbaOptions opts;
    opts.num_entities = per_bucket;
    opts.min_tuples = std::max(2, b.lo);
    opts.max_tuples = b.hi;
    opts.mean_tuples = 0.5 * (b.lo + b.hi);
    opts.seed = 7000 + b.lo;
    Dataset ds = GenerateNba(opts);
    if (first) {
      all = std::move(ds);
      first = false;
    } else {
      for (auto& e : ds.entities) all.entities.push_back(std::move(e));
    }
  }
  return all;
}

/// Person corpus with entity sizes spanning the paper's buckets.
inline Dataset PersonBucketed(int per_bucket) {
  Dataset all;
  bool first = true;
  for (const Bucket& b : PersonBuckets()) {
    PersonOptions opts;
    opts.num_entities = per_bucket;
    opts.min_tuples = std::max(4, b.lo);
    opts.max_tuples = b.hi;
    opts.seed = 40000 + b.lo;
    Dataset ds = GeneratePerson(opts);
    if (first) {
      all = std::move(ds);
      first = false;
    } else {
      for (auto& e : ds.entities) all.entities.push_back(std::move(e));
    }
  }
  return all;
}

/// Entity indices of `ds` whose instance size falls in `b`.
inline std::vector<int> EntitiesInBucket(const Dataset& ds,
                                         const Bucket& b) {
  std::vector<int> out;
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    const int n = ds.entities[i].instance.size();
    if (n >= b.lo && n <= b.hi) out.push_back(static_cast<int>(i));
  }
  return out;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace ccr::bench

#endif  // CCR_BENCH_BENCH_UTIL_H_
