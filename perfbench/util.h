// Shared pieces of the benchmark: the in-memory span tracer, latency
// samples with honest percentiles, output digests, correctness scoring and
// the metric table every workload fills.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/ccr.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start);

/// Lowers `*best` to `ms` when `ms` is smaller.
inline void KeepBest(double* best, double ms) {
  if (ms < *best) *best = ms;
}

/// \brief Moves the calling thread through the CPUs it may run on, one at a
/// time, and gives it back the whole set when destroyed.
///
/// On a virtual machine whose host is shared, one vCPU at a time runs
/// slower for seconds while its neighbours keep their speed. The guest
/// scheduler cannot see that, so a thread that stays on one vCPU is slowed
/// for as long as it lasts. Rotating, and keeping each operation's best
/// time over the rotations, measures the program rather than that vCPU.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the next CPU of the set, wrapping around.
  void PinNext();

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing. Spans live in memory and are written out once, at the end.
// ---------------------------------------------------------------------------

/// One timed call. `parent` indexes the enclosing span of the same tracer
/// (-1 for a root); `owner` names the entity or session the call served.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  std::string owner;
};

/// \brief Single-threaded span recorder; one per driving thread, merged
/// with Append after the threads join.
class Tracer {
 public:
  int Begin(const char* name, const std::string& owner);
  void End(int id);
  /// Moves `other`'s spans in after this tracer's, re-basing parents.
  void Append(const Tracer& other);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const std::string& owner)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, owner) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Per span name: total self time in ms (duration minus the time its direct
/// children cover) and the number of spans.
struct SelfTime {
  double ms = 0;
  int64_t count = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// Writes one JSON object per span (name, start_us, end_us, id, parent,
/// owner), start times relative to the first span.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Samples, digests, scoring, metrics.
// ---------------------------------------------------------------------------

/// Latency samples in ms.
class Samples {
 public:
  void Add(double ms) { v_.push_back(ms); }
  /// Nearest-rank percentile, p in (0, 1). Sets `*enough` false when fewer
  /// than `min_beyond` samples lie above the percentile.
  double Percentile(double p, int min_beyond, bool* enough) const;

 private:
  std::vector<double> v_;
};

/// 64-bit FNV-1a, chained through `h`.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ULL);
std::string Hex64(uint64_t h);
/// One digest for a run: the per-entity (or per-session) digests chained in
/// corpus order.
uint64_t ChainDigests(const std::vector<uint64_t>& parts);

double Median(std::vector<double> v);

/// Canonical bytes of one value: type tag plus rendering.
void AppendValue(const ccr::Value& v, std::string* out);

/// Resolved values that differ from the generator's hidden truth.
int WrongValues(const std::vector<ccr::Value>& values,
                const std::vector<bool>& resolved,
                const std::vector<ccr::Value>& truth);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// \brief Named metrics with units, in insertion-independent name order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    values_[name] = {value, unit};
  }
  /// Single-line JSON object {"name": {"value": v, "unit": u}, ...}.
  std::string ToJson() const;

 private:
  struct Entry {
    double value;
    const char* unit;
  };
  std::map<std::string, Entry> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
