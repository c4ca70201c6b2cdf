#include "perfbench/util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void CpuRotation::PinNext() {
  if (cpus_.empty()) return;  // the set is unknown: stay where we are
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(one), &one);
}

int Tracer::Begin(const char* name, const std::string& owner) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.owner = owner;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan lifetimes nest).
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Append(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = out[spans[i].name];
    t.ms += static_cast<double>(self[i]) / 1e6;
    ++t.count;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::string owner;
    ccr::json::AppendEscaped(s.owner, &owner);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"id\": %zu, \"parent\": %d, \"owner\": \"",
                  s.name, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - t0) / 1e3, i, s.parent);
    out << line << owner << "\"}\n";
  }
  return static_cast<bool>(out);
}

double Samples::Percentile(double p, int min_beyond, bool* enough) const {
  if (v_.empty()) {
    *enough = false;
    return 0;
  }
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  *enough = n - rank >= static_cast<size_t>(min_beyond);
  return sorted[rank - 1];
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex64(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

uint64_t ChainDigests(const std::vector<uint64_t>& parts) {
  uint64_t h = Fnv1a("");
  for (const uint64_t d : parts) h = Fnv1a(Hex64(d), h);
  return h;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void AppendValue(const ccr::Value& v, std::string* out) {
  out->push_back(static_cast<char>('0' + static_cast<int>(v.type())));
  out->append(v.ToString());
  out->push_back('\x1f');
}

int WrongValues(const std::vector<ccr::Value>& values,
                const std::vector<bool>& resolved,
                const std::vector<ccr::Value>& truth) {
  int wrong = 0;
  for (size_t a = 0; a < values.size(); ++a) {
    if (resolved[a] && !(values[a] == truth[a])) ++wrong;
  }
  return wrong;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, e] : values_) {
    if (!first) out += ", ";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", e.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
