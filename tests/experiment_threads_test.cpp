// Thread-count determinism of the parallel experiment driver
// (src/eval/experiment.h): RunExperiment pools per-entity results in
// entity-index order after the workers join, so any thread count must
// yield bit-identical accuracy and pct-true vectors (timings excluded).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/eval/experiment.h"
#include "src/eval/result_io.h"

namespace ccr {
namespace {

void ExpectSameExperiment(const ExperimentResult& a,
                          const ExperimentResult& b, int threads) {
  SCOPED_TRACE("num_threads=" + std::to_string(threads));
  EXPECT_EQ(a.entities, b.entities);
  EXPECT_EQ(a.invalid_entities, b.invalid_entities);
  EXPECT_EQ(a.max_rounds_used, b.max_rounds_used);
  ASSERT_EQ(a.accuracy_by_round.size(), b.accuracy_by_round.size());
  for (size_t k = 0; k < a.accuracy_by_round.size(); ++k) {
    EXPECT_EQ(a.accuracy_by_round[k].deduced, b.accuracy_by_round[k].deduced)
        << "round " << k;
    EXPECT_EQ(a.accuracy_by_round[k].correct, b.accuracy_by_round[k].correct)
        << "round " << k;
    EXPECT_EQ(a.accuracy_by_round[k].conflicts,
              b.accuracy_by_round[k].conflicts)
        << "round " << k;
  }
  ASSERT_EQ(a.pct_true_by_round.size(), b.pct_true_by_round.size());
  for (size_t k = 0; k < a.pct_true_by_round.size(); ++k) {
    EXPECT_EQ(a.pct_true_by_round[k], b.pct_true_by_round[k])
        << "round " << k;
  }
}

void ExpectThreadCountInvariance(const Dataset& ds) {
  ExperimentOptions opts;
  opts.max_rounds = 2;
  opts.num_threads = 1;
  const ExperimentResult baseline = RunExperiment(ds, opts);
  EXPECT_EQ(baseline.entities, static_cast<int>(ds.entities.size()));
  for (int threads : {2, 8}) {
    opts.num_threads = threads;
    ExpectSameExperiment(baseline, RunExperiment(ds, opts), threads);
  }
}

TEST(ExperimentThreadsTest, AllocationPoolingDoesNotChangeResults) {
  // Each worker recycles one SessionScratch across its entities. An entity
  // resolved alone (on a fresh scratch) must serialize to the same bytes
  // as the same entity resolved mid-batch on a recycled one.
  PersonOptions popts;
  popts.num_entities = 12;
  popts.max_tuples = 32;
  const Dataset ds = GeneratePerson(popts);
  ResultJsonOptions json_opts;
  json_opts.include_timings = false;

  ExperimentOptions opts;
  opts.max_rounds = 2;
  std::vector<ExperimentResult> alone;
  for (int i = 0; i < static_cast<int>(ds.entities.size()); ++i) {
    alone.push_back(RunExperiment(ds, opts, {i}));
  }
  auto merged = MergeExperimentResults(alone);
  ASSERT_TRUE(merged.ok());
  const std::string expected = ExperimentResultToJson(*merged, json_opts);
  for (int threads : {1, 4}) {
    opts.num_threads = threads;
    EXPECT_EQ(ExperimentResultToJson(RunExperiment(ds, opts), json_opts),
              expected)
        << "num_threads=" << threads;
  }
}

TEST(ExperimentThreadsTest, NbaDeterministicAcrossThreadCounts) {
  NbaOptions opts;
  opts.num_entities = 24;
  opts.max_tuples = 40;
  ExpectThreadCountInvariance(GenerateNba(opts));
}

TEST(ExperimentThreadsTest, PersonDeterministicAcrossThreadCounts) {
  PersonOptions opts;
  opts.num_entities = 12;
  opts.max_tuples = 32;
  ExpectThreadCountInvariance(GeneratePerson(opts));
}

TEST(ExperimentThreadsTest, MoreThreadsThanEntities) {
  NbaOptions opts;
  opts.num_entities = 3;
  opts.max_tuples = 20;
  const Dataset ds = GenerateNba(opts);
  ExperimentOptions eopts;
  eopts.max_rounds = 1;
  eopts.num_threads = 1;
  const ExperimentResult baseline = RunExperiment(ds, eopts);
  eopts.num_threads = 16;  // clamped to the entity count internally
  ExpectSameExperiment(baseline, RunExperiment(ds, eopts), 16);
}

TEST(ExperimentThreadsTest, EntitySubsetRespectedInParallel) {
  NbaOptions opts;
  opts.num_entities = 10;
  opts.max_tuples = 20;
  const Dataset ds = GenerateNba(opts);
  const std::vector<int> subset = {1, 4, 7};
  ExperimentOptions eopts;
  eopts.max_rounds = 1;
  eopts.num_threads = 4;
  const ExperimentResult r = RunExperiment(ds, eopts, subset);
  EXPECT_EQ(r.entities, 3);
}

}  // namespace
}  // namespace ccr
