// ccr_perfbench: the repository benchmark. Drives libccr from outside, on
// one of three seeded workloads, and prints one JSON line of results.
//
//   ccr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans FILE]
//
// --trace 0 measures the end-to-end metrics for S seconds; --trace 1 runs
// the traced passes and reports the per-layer metrics (spans go to FILE).
// perfbench/run.py builds this program and formats its result; see
// perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/batch.h"

namespace perfbench {
namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

// Corpora are large enough that the quality metrics of one pass hold
// steady across seeds and every p90 has ten samples beyond it, and small
// enough that the kMinPasses passes of a timed run take seconds, not
// minutes. README.md says why each workload exists.
const Workload kWorkloads[] = {
    {"person-batch", {CorpusKind::kPerson, 100, 250, 300}, false, 48, 2},
    {"nba-rounds", {CorpusKind::kNba, 760, 2, 136}, false, 760, 6},
    {"nba-naive", {CorpusKind::kNba, 760, 2, 136}, true, 760, 6},
};

int Usage() {
  std::fprintf(stderr,
               "usage: ccr_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, spans_path;
  long long seed = -1;
  int seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "ccr_perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return Usage();
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "ccr_perfbench: built without NDEBUG (%s); refusing to time "
               "a debug build\n",
               PERFBENCH_FLAGS);
  return 3;
#endif
  std::printf(
      "perfbench: workload=%s seed=%lld seconds=%d trace=%d nproc=%u "
      "compiler=\"%s\" build=%s flags=\"%s\"\n",
      w->name, seed, seconds, trace, std::thread::hardware_concurrency(),
      kCompiler, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS);
  std::fflush(stdout);

  const uint64_t useed = static_cast<uint64_t>(seed);
  Outcome out = RunBatch(*w, useed, seconds, trace == 1);
  out.metrics.Set("failed_frac",
                  out.attempted > 0 ? static_cast<double>(out.failed) /
                                          static_cast<double>(out.attempted)
                                    : 1.0,
                  "ratio");
  if (trace == 1 && !spans_path.empty() &&
      !WriteSpans(spans_path, out.spans.spans())) {
    std::fprintf(stderr, "ccr_perfbench: cannot write %s\n",
                 spans_path.c_str());
    ++out.failed;
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %lld, \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %lld, \"failed\": %lld, \"digest\": \"%s\", "
      "\"metrics\": %s}\n",
      w->name, seed, trace, out.failed == 0 ? "true" : "false",
      static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), out.digest.c_str(),
      out.metrics.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
