// Tests for the dataset generators (§VI): structural fidelity to the
// paper's corpora, determinism, constraint consistency, and resolvability.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/isvalid.h"
#include "src/core/resolver.h"
#include "src/data/career_generator.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"

namespace ccr {
namespace {

TEST(PersonGeneratorTest, MatchesPaperConstraintCounts) {
  PersonOptions opts;
  opts.num_entities = 5;
  const Dataset ds = GeneratePerson(opts);
  EXPECT_EQ(ds.sigma().size(), 983u);   // §VI: 983 currency constraints
  EXPECT_EQ(ds.gamma().size(), 1000u);  // one CFD with 1000 patterns
  EXPECT_EQ(ds.schema.size(), 8);
  EXPECT_EQ(ds.entities.size(), 5u);
}

TEST(PersonGeneratorTest, DeterministicUnderSeed) {
  PersonOptions opts;
  opts.num_entities = 3;
  const Dataset a = GeneratePerson(opts);
  const Dataset b = GeneratePerson(opts);
  ASSERT_EQ(a.entities.size(), b.entities.size());
  for (size_t i = 0; i < a.entities.size(); ++i) {
    ASSERT_EQ(a.entities[i].instance.size(), b.entities[i].instance.size());
    for (int t = 0; t < a.entities[i].instance.size(); ++t) {
      EXPECT_EQ(a.entities[i].instance.tuple(t),
                b.entities[i].instance.tuple(t));
    }
    EXPECT_EQ(a.entities[i].truth, b.entities[i].truth);
  }
}

TEST(PersonGeneratorTest, DifferentSeedsDiffer) {
  PersonOptions a_opts;
  a_opts.num_entities = 3;
  PersonOptions b_opts = a_opts;
  b_opts.seed = a_opts.seed + 1;
  const Dataset a = GeneratePerson(a_opts);
  const Dataset b = GeneratePerson(b_opts);
  bool any_diff = false;
  for (size_t i = 0; i < a.entities.size() && !any_diff; ++i) {
    any_diff = !(a.entities[i].truth == b.entities[i].truth);
  }
  EXPECT_TRUE(any_diff);
}

TEST(PersonGeneratorTest, InstancesHaveConflictsAndRespectSizes) {
  PersonOptions opts;
  opts.num_entities = 10;
  opts.min_tuples = 5;
  opts.max_tuples = 25;
  const Dataset ds = GeneratePerson(opts);
  for (const EntityCase& ec : ds.entities) {
    EXPECT_GE(ec.instance.size(), 5);
    EXPECT_LE(ec.instance.size(), 26);  // +1 possible ghost tuple
    EXPECT_GT(ec.instance.CountConflictAttributes(), 0);
  }
}

TEST(PersonGeneratorTest, AllSpecificationsAreValid) {
  // The paper's generator emits tuples that "do not violate the currency
  // constraints"; every specification must pass IsValid.
  PersonOptions opts;
  opts.num_entities = 8;
  opts.p_ghost = 0.5;  // stress the ghost path too
  const Dataset ds = GeneratePerson(opts);
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    auto r = IsValid(ds.MakeSpec(static_cast<int>(i)));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->valid) << "entity " << i;
  }
}

TEST(PersonGeneratorTest, TruthValuesAppearInInstance) {
  PersonOptions opts;
  opts.num_entities = 6;
  const Dataset ds = GeneratePerson(opts);
  for (const EntityCase& ec : ds.entities) {
    for (int a = 0; a < ds.schema.size(); ++a) {
      if (ec.truth[a].is_null()) continue;
      bool found = false;
      for (const Tuple& t : ec.instance.tuples()) {
        if (t.at(a) == ec.truth[a]) found = true;
      }
      EXPECT_TRUE(found) << ds.schema.name(a);
    }
  }
}

TEST(PersonGeneratorTest, OracleCompletesEntities) {
  PersonOptions opts;
  opts.num_entities = 6;
  const Dataset ds = GeneratePerson(opts);
  int complete = 0;
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    TruthOracle oracle(ds.entities[i].truth);
    auto r = Resolve(ds.MakeSpec(static_cast<int>(i)), &oracle);
    ASSERT_TRUE(r.ok());
    complete += r->complete ? 1 : 0;
  }
  EXPECT_EQ(complete, 6);
}

TEST(NbaGeneratorTest, MatchesPaperConstraintCounts) {
  NbaOptions opts;
  opts.num_entities = 5;
  const Dataset ds = GenerateNba(opts);
  EXPECT_EQ(ds.sigma().size(), 54u);  // §VI: 54 currency constraints
  EXPECT_EQ(ds.gamma().size(), 58u);  // 58 constant CFDs
  EXPECT_EQ(ds.schema.size(), 14);  // the joined NBA schema
  EXPECT_EQ(ds.schema.IndexOf("allpoints"), 8);
}

TEST(NbaGeneratorTest, TupleCountsInPaperRange) {
  NbaOptions opts;
  opts.num_entities = 60;
  const Dataset ds = GenerateNba(opts);
  double total = 0;
  for (const EntityCase& ec : ds.entities) {
    EXPECT_GE(ec.instance.size(), 2);
    EXPECT_LE(ec.instance.size(), 136);
    total += ec.instance.size();
  }
  const double avg = total / ds.entities.size();
  EXPECT_GT(avg, 10.0);  // paper: about 27 on average
  EXPECT_LT(avg, 60.0);
}

TEST(NbaGeneratorTest, AllSpecificationsAreValid) {
  NbaOptions opts;
  opts.num_entities = 10;
  const Dataset ds = GenerateNba(opts);
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    auto r = IsValid(ds.MakeSpec(static_cast<int>(i)));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->valid) << "entity " << i;
  }
}

TEST(NbaGeneratorTest, MonotoneStatsResolveAutomatically) {
  // allpoints/points/poss/min are always derivable through the ϕ3 family.
  NbaOptions opts;
  opts.num_entities = 8;
  const Dataset ds = GenerateNba(opts);
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    auto r = Resolve(ds.MakeSpec(static_cast<int>(i)), nullptr);
    ASSERT_TRUE(r.ok());
    for (const char* attr : {"allpoints", "points", "poss", "min"}) {
      const int a = ds.schema.IndexOf(attr);
      EXPECT_TRUE(r->resolved[a]) << attr << " entity " << i;
      EXPECT_EQ(r->true_values[a], ds.entities[i].truth[a])
          << attr << " entity " << i;
    }
  }
}

TEST(NbaGeneratorTest, OracleCompletesEntities) {
  NbaOptions opts;
  opts.num_entities = 8;
  const Dataset ds = GenerateNba(opts);
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    TruthOracle oracle(ds.entities[i].truth);
    auto r = Resolve(ds.MakeSpec(static_cast<int>(i)), &oracle);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->complete) << "entity " << i;
    EXPECT_LE(r->rounds_used, 2);  // paper: at most 2 rounds for NBA
  }
}

TEST(CareerGeneratorTest, MatchesPaperShape) {
  const Dataset ds = GenerateCareer();
  EXPECT_EQ(ds.entities.size(), 65u);  // §VI: 65 persons
  EXPECT_EQ(ds.schema.size(), 5);
  // ≈503 currency constraints; citation sampling puts us in the vicinity.
  EXPECT_GT(ds.sigma().size(), 350u);
  EXPECT_LT(ds.sigma().size(), 650u);
  // ≈347 CFD patterns: two per affiliation, minus the deliberately
  // missing pattern-gap entries.
  EXPECT_GT(ds.gamma().size(), 290u);
  EXPECT_LE(ds.gamma().size(), 348u);
}

TEST(CareerGeneratorTest, AllSpecificationsAreValid) {
  CareerOptions opts;
  opts.num_entities = 12;
  const Dataset ds = GenerateCareer(opts);
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    auto r = IsValid(ds.MakeSpec(static_cast<int>(i)));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->valid) << "entity " << i;
  }
}

TEST(CareerGeneratorTest, HighAutomaticResolution) {
  // §VI: 78% of CAREER true values resolve with no interaction — the
  // citation structure orders most affiliations. Expect a clear majority.
  CareerOptions opts;
  opts.num_entities = 20;
  const Dataset ds = GenerateCareer(opts);
  int resolved = 0, conflicts = 0;
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    auto r = Resolve(ds.MakeSpec(static_cast<int>(i)), nullptr);
    ASSERT_TRUE(r.ok());
    for (int a = 0; a < ds.schema.size(); ++a) {
      if (!ds.entities[i].instance.HasConflict(a)) continue;
      ++conflicts;
      resolved += r->resolved[a] ? 1 : 0;
    }
  }
  ASSERT_GT(conflicts, 0);
  EXPECT_GT(static_cast<double>(resolved) / conflicts, 0.5);
}

TEST(CareerGeneratorTest, MisspelledCityRepairedByCfd) {
  // With noise on, some instances carry a misspelled city; resolution must
  // still land on the CFD's pattern city.
  CareerOptions opts;
  opts.num_entities = 30;
  opts.p_city_noise = 0.3;
  const Dataset ds = GenerateCareer(opts);
  int checked = 0;
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    TruthOracle oracle(ds.entities[i].truth);
    auto r = Resolve(ds.MakeSpec(static_cast<int>(i)), &oracle);
    ASSERT_TRUE(r.ok());
    const int city = ds.schema.IndexOf("city");
    if (r->resolved[city]) {
      EXPECT_EQ(r->true_values[city], ds.entities[i].truth[city])
          << "entity " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(GeneratorOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(PersonOptions{}.Validate().ok());
  EXPECT_TRUE(NbaOptions{}.Validate().ok());
  EXPECT_TRUE(CareerOptions{}.Validate().ok());
}

// Applies `mutate` to default options and expects Validate to refuse them.
template <typename Options, typename Mutate>
void ExpectRejected(Mutate mutate, const char* what) {
  Options opts;
  mutate(opts);
  const Status st = opts.Validate();
  EXPECT_FALSE(st.ok()) << what;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
}

TEST(GeneratorOptionsTest, BadCombinationsAreRejected) {
  // The corpus-size checks every generator shares; min above the default
  // max is the `ccr_experiment --min-tuples 250` case.
  auto sizes = [](auto tag) {
    using Options = decltype(tag);
    ExpectRejected<Options>([](Options& o) { o.min_tuples = 250; },
                            "min above default max");
    ExpectRejected<Options>([](Options& o) { o.min_tuples = 0; },
                            "min 0");
    ExpectRejected<Options>([](Options& o) { o.min_tuples = -3; },
                            "min negative");
    ExpectRejected<Options>(
        [](Options& o) {
          o.min_tuples = 5;
          o.max_tuples = 4;
        },
        "max below min");
    ExpectRejected<Options>([](Options& o) { o.max_tuples = -1; },
                            "max negative");
    ExpectRejected<Options>([](Options& o) { o.num_entities = -1; },
                            "entities negative");
  };
  sizes(PersonOptions{});
  sizes(NbaOptions{});
  sizes(CareerOptions{});

  ExpectRejected<PersonOptions>([](auto& o) { o.status_chain = -1; },
                                "status chain");
  ExpectRejected<PersonOptions>([](auto& o) { o.job_chain = -1; },
                                "job chain");
  ExpectRejected<PersonOptions>([](auto& o) { o.num_cities = 0; },
                                "no cities");

  ExpectRejected<NbaOptions>([](auto& o) { o.num_teams = 0; }, "no teams");
  ExpectRejected<NbaOptions>([](auto& o) { o.num_teams = 25; },
                             "not the paper's league");
  ExpectRejected<NbaOptions>([](auto& o) { o.num_renames = -1; },
                             "renames negative");
  ExpectRejected<NbaOptions>([](auto& o) { o.num_renames = 27; },
                             "renames above teams");
  ExpectRejected<NbaOptions>([](auto& o) { o.max_seasons = 3; },
                             "seasons");

  ExpectRejected<CareerOptions>([](auto& o) { o.max_path = 1; }, "path 1");
  ExpectRejected<CareerOptions>([](auto& o) { o.num_affiliations = 7; },
                                "path above affiliations");
  ExpectRejected<CareerOptions>([](auto& o) { o.pattern_gap = -1; },
                                "pattern gap");
  ExpectRejected<CareerOptions>([](auto& o) { o.max_cites = -1; },
                                "cites");

  // The boundary cases stay accepted, and the generators run on them.
  PersonOptions one;
  one.min_tuples = one.max_tuples = 1;
  one.num_entities = 3;
  one.num_cities = 1;
  EXPECT_TRUE(one.Validate().ok());
  EXPECT_EQ(GeneratePerson(one).entities.size(), 3u);
  NbaOptions tight;
  tight.num_entities = 3;
  tight.max_seasons = 4;
  EXPECT_TRUE(tight.Validate().ok());
  EXPECT_EQ(GenerateNba(tight).entities.size(), 3u);
  CareerOptions path;
  path.num_entities = 3;
  path.max_path = path.num_affiliations = 2;
  EXPECT_TRUE(path.Validate().ok());
  EXPECT_EQ(GenerateCareer(path).entities.size(), 3u);
}

TEST(DatasetTest, MakeSpecSubsetsConstraints) {
  PersonOptions opts;
  opts.num_entities = 1;
  const Dataset ds = GeneratePerson(opts);
  const Specification half = ds.MakeSpec(0, ds.SubsetRules(0.5, 0.5, 1));
  EXPECT_NEAR(half.sigma().size(), ds.sigma().size() / 2.0,
              ds.sigma().size() * 0.02 + 1);
  EXPECT_NEAR(half.gamma().size(), ds.gamma().size() / 2.0,
              ds.gamma().size() * 0.02 + 1);
  // Deterministic subsetting.
  const Specification again = ds.MakeSpec(0, ds.SubsetRules(0.5, 0.5, 1));
  EXPECT_EQ(half.sigma().size(), again.sigma().size());
  const Specification full = ds.MakeSpec(0);
  EXPECT_EQ(full.sigma().size(), ds.sigma().size());
}

}  // namespace
}  // namespace ccr
