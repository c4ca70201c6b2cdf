// Deterministic-seed regression tests for the synthetic data generators.
//
// Future parallelization work (sharded generation, async pipelines) must
// keep a generator a pure function of its options: identical seeds produce
// byte-identical corpora, on every run and regardless of scheduling. These
// tests pin that contract by fingerprinting entire datasets.

#include <string>

#include "gtest/gtest.h"
#include "src/data/career_generator.h"
#include "src/data/dataset.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"

namespace ccr {
namespace {

// Serializes everything observable about a dataset: constraints (rendered
// against the schema), every tuple of every entity, and the ground truth.
std::string Fingerprint(const Dataset& ds) {
  std::string out = ds.name + "\n";
  for (const auto& cc : ds.sigma()) out += cc.ToString(ds.schema) + "\n";
  for (const auto& cfd : ds.gamma()) out += cfd.ToString(ds.schema) + "\n";
  for (const auto& e : ds.entities) {
    out += "entity " + e.instance.entity_id() + "\n";
    for (const auto& t : e.instance.tuples()) {
      out += t.ToString(ds.schema) + "\n";
    }
    out += "truth:";
    for (const auto& v : e.truth) {
      out += " " + v.ToString();
    }
    out += "\n";
  }
  return out;
}

TEST(DeterminismTest, PersonSameSeedSameCorpus) {
  PersonOptions opts;
  opts.num_entities = 20;
  EXPECT_EQ(Fingerprint(GeneratePerson(opts)),
            Fingerprint(GeneratePerson(opts)));
}

TEST(DeterminismTest, PersonDifferentSeedDifferentCorpus) {
  PersonOptions a;
  a.num_entities = 20;
  PersonOptions b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(Fingerprint(GeneratePerson(a)), Fingerprint(GeneratePerson(b)));
}

TEST(DeterminismTest, NbaSameSeedSameCorpus) {
  NbaOptions opts;
  opts.num_entities = 20;
  EXPECT_EQ(Fingerprint(GenerateNba(opts)), Fingerprint(GenerateNba(opts)));
}

TEST(DeterminismTest, NbaDifferentSeedDifferentCorpus) {
  NbaOptions a;
  a.num_entities = 20;
  NbaOptions b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(Fingerprint(GenerateNba(a)), Fingerprint(GenerateNba(b)));
}

TEST(DeterminismTest, CareerSameSeedSameCorpus) {
  CareerOptions opts;
  opts.num_entities = 20;
  EXPECT_EQ(Fingerprint(GenerateCareer(opts)),
            Fingerprint(GenerateCareer(opts)));
}

TEST(DeterminismTest, CareerDifferentSeedDifferentCorpus) {
  CareerOptions a;
  a.num_entities = 20;
  CareerOptions b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(Fingerprint(GenerateCareer(a)), Fingerprint(GenerateCareer(b)));
}

// MakeSpec's subset selection must likewise be pure in its seed — the
// Fig. 8(f)-(p) sweeps depend on comparable subsets across runs.
TEST(DeterminismTest, MakeSpecSubsetIsSeedDeterministic) {
  PersonOptions opts;
  opts.num_entities = 3;
  const Dataset ds = GeneratePerson(opts);
  const Specification s1 =
      ds.MakeSpec(0, ds.SubsetRules(0.5, 0.5, /*subset_seed=*/9));
  const Specification s2 =
      ds.MakeSpec(0, ds.SubsetRules(0.5, 0.5, /*subset_seed=*/9));
  EXPECT_EQ(s1.ToString(), s2.ToString());
}

}  // namespace
}  // namespace ccr
