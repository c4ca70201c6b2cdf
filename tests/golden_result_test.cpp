// Golden byte-identity check for the evaluation pipeline.
//
// The repository's contract is that `ccr_experiment --no-timings` output
// is a pure function of the corpus and the options: engine internals
// (encoding layout, solver propagation, deduce engine) may change time,
// never bytes. This suite pins that contract to recorded digests: each
// case resolves a small generated corpus, serializes the ExperimentResult
// with timings zeroed, and compares the FNV-1a hash of the JSON text with
// the value recorded before the last change to the solver and encoder.
// A mismatch means a change moved a verdict somewhere in the pipeline
// (the failure message prints the new digest and the JSON). Every
// configuration must reproduce the same digests: a build type, sanitizer
// or platform that disagrees exposes a determinism bug.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "src/data/career_generator.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/eval/experiment.h"
#include "src/eval/result_io.h"

namespace ccr {
namespace {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr int kEntities = 24;

Dataset MakeCorpus(const std::string& name) {
  if (name == "nba") {
    NbaOptions o;
    o.num_entities = kEntities;
    return GenerateNba(o);
  }
  if (name == "career") {
    CareerOptions o;
    o.num_entities = kEntities;
    return GenerateCareer(o);
  }
  PersonOptions o;
  o.num_entities = kEntities;
  return GeneratePerson(o);
}

std::string ResultJson(const std::string& corpus, bool naive) {
  const Dataset ds = MakeCorpus(corpus);
  ExperimentOptions opts;
  opts.answers_per_round = 2;
  opts.resolve.naive_deduce = naive;
  const ExperimentResult r = RunExperiment(ds, opts);
  ResultJsonOptions jopts;
  jopts.include_timings = false;
  return ExperimentResultToJson(r, jopts);
}

struct GoldenCase {
  const char* corpus;
  bool naive;
  uint64_t digest;
};

// Names each case in test listings. Without it GoogleTest dumps the raw
// struct bytes, whose corpus pointer and padding differ from run to run.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.corpus << (c.naive ? "/naive" : "/fast");
}

class GoldenResultTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenResultTest, JsonDigestMatchesRecording) {
  const GoldenCase& c = GetParam();
  const std::string json = ResultJson(c.corpus, c.naive);
  const uint64_t got = Fnv1a64(json);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64, got);
  EXPECT_EQ(got, c.digest) << c.corpus << (c.naive ? "/naive" : "/fast")
                           << " digest is " << hex << "; JSON:\n"
                           << json;
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, GoldenResultTest,
    ::testing::Values(GoldenCase{"person", false, 0x4b772eba1e0cafa3ULL},
                      GoldenCase{"person", true, 0xaa095eba7ad812f1ULL},
                      GoldenCase{"nba", false, 0x650ba5719a8ac80fULL},
                      GoldenCase{"nba", true, 0x650ba5719a8ac80fULL},
                      GoldenCase{"career", false, 0xb2ea27d583f6d091ULL},
                      GoldenCase{"career", true, 0xb2ea27d583f6d091ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.corpus) +
             (info.param.naive ? "Naive" : "Fast");
    });

}  // namespace
}  // namespace ccr
