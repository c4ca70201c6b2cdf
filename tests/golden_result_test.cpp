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
//
// The ExperimentResult JSON holds only pooled per-round accuracy counts,
// so a change to which rules, cliques or questions Suggest produces can
// reach the same answers and leave it unchanged. SuggestionDigestTest
// therefore also hashes every Suggestion the framework loop hands the
// user — attributes, candidates, derivable attributes and the kept clique
// rules — over several one-answer rounds per entity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/resolver.h"
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

// `person_min_tuples`/`person_max_tuples` of 0 keep the generator's sizes.
Dataset MakeCorpus(const std::string& name, int entities = kEntities,
                   int person_min_tuples = 0, int person_max_tuples = 0) {
  if (name == "nba") {
    NbaOptions o;
    o.num_entities = entities;
    return GenerateNba(o);
  }
  if (name == "career") {
    CareerOptions o;
    o.num_entities = entities;
    return GenerateCareer(o);
  }
  PersonOptions o;
  o.num_entities = entities;
  if (person_max_tuples > 0) {
    o.min_tuples = person_min_tuples;
    o.max_tuples = person_max_tuples;
  }
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

// Hashes every suggestion it is shown, in order, then answers like a
// TruthOracle allowed one value per round.
class HashingOracle : public UserOracle {
 public:
  HashingOracle(std::vector<Value> truth, uint64_t* hash, int* suggestions)
      : truth_(std::move(truth), /*answers_per_round=*/1),
        hash_(hash),
        suggestions_(suggestions) {}

  std::vector<Answer> Provide(const Specification& se,
                              const Suggestion& suggestion,
                              const VarMap& vm) override {
    ++*suggestions_;
    Mix(-1);  // separates suggestions
    MixList(suggestion.attrs);
    Mix(static_cast<int64_t>(suggestion.candidates.size()));
    for (const std::vector<int>& c : suggestion.candidates) MixList(c);
    MixList(suggestion.derivable_attrs);
    Mix(static_cast<int64_t>(suggestion.clique_rules.size()));
    for (const DerivationRule& r : suggestion.clique_rules) {
      Mix(static_cast<int64_t>(r.lhs.size()));
      for (const auto& [attr, v] : r.lhs) {
        Mix(attr);
        Mix(v);
      }
      Mix(r.rhs_attr);
      Mix(r.rhs_value);
      Mix(static_cast<int64_t>(r.origin));
      Mix(r.source_index);
    }
    return truth_.Provide(se, suggestion, vm);
  }

 private:
  void Mix(int64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      *hash_ ^= static_cast<uint64_t>(x >> (8 * byte)) & 0xffu;
      *hash_ *= 0x100000001b3ULL;
    }
  }
  void MixList(const std::vector<int>& xs) {
    Mix(static_cast<int64_t>(xs.size()));
    for (const int x : xs) Mix(x);
  }

  TruthOracle truth_;
  uint64_t* hash_;
  int* suggestions_;
};

// Up to four one-answer rounds per entity: the oracle answers rounds 0-3,
// so an entity that never resolves sees four suggestions. Person entities
// of 40-80 tuples need a third answer on some entity; at the generator's
// default sizes none goes past the second.
constexpr int kSuggestRounds = 4;
constexpr int kSuggestEntities = 48;

class SuggestionDigestTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SuggestionDigestTest, EveryRoundsSuggestionMatchesRecording) {
  const GoldenCase& c = GetParam();
  const Dataset ds = MakeCorpus(c.corpus, kSuggestEntities,
                                /*person_min_tuples=*/40,
                                /*person_max_tuples=*/80);
  ResolveOptions opts;
  opts.max_rounds = kSuggestRounds;
  opts.naive_deduce = c.naive;
  uint64_t got = 0xcbf29ce484222325ULL;
  int suggestions = 0;
  int deepest_round = 0;
  for (size_t e = 0; e < ds.entities.size(); ++e) {
    HashingOracle oracle(ds.entities[e].truth, &got, &suggestions);
    auto r = Resolve(ds.MakeSpec(static_cast<int>(e)), &oracle, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    deepest_round = std::max(deepest_round, r->rounds_used);
  }
  // The digest covers suggestions made after two extensions; Career's
  // generator caps it at two answer rounds (Fig. 8(i)).
  const int want_depth = std::string(c.corpus) == "career" ? 2 : 3;
  EXPECT_GE(deepest_round, want_depth) << c.corpus;
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64, got);
  EXPECT_EQ(got, c.digest) << c.corpus << (c.naive ? "/naive" : "/fast")
                           << " suggestion digest is " << hex << " over "
                           << suggestions << " suggestions";
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, SuggestionDigestTest,
    ::testing::Values(GoldenCase{"person", false, 0x4431f4e19d749dfbULL},
                      GoldenCase{"person", true, 0xc6aa24c78b523e85ULL},
                      GoldenCase{"nba", false, 0xecea1d28d482f0b8ULL},
                      GoldenCase{"nba", true, 0xecea1d28d482f0b8ULL},
                      GoldenCase{"career", false, 0xa95176ab37f3b1fcULL},
                      GoldenCase{"career", true, 0xa95176ab37f3b1fcULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.corpus) +
             (info.param.naive ? "Naive" : "Fast");
    });

}  // namespace
}  // namespace ccr
