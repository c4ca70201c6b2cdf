// Differential suite for Deduce by propagation (src/core/deduce.cc):
// NaiveDeduceShared reads the least model of the Horn formula Φ(Se) off
// one propagation probe, and must return exactly the pair set of the
// paper's per-pair Lemma-6 loop (Lemma6DeduceShared, one solve per pair)
// — on the paper's fixtures, on randomized corpora from all three
// generators, and on live sessions under their guard assumptions, built
// and after two ExtendWith rounds. A hand-built non-Horn formula must
// take the per-pair fallback, which finds an entailment propagation
// cannot.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "paper_fixture.h"
#include "src/ccr.h"
#include "src/core/session.h"
#include "src/encode/cnf_builder.h"

namespace ccr {
namespace {

using testing::EdithSpec;
using testing::GeorgeSpec;

// Every deduced pair as (attr, less, more) — transitive closure
// included, so two DeducedOrders are equal iff their sets are.
using PairSet = std::set<std::tuple<int, int, int>>;

PairSet ToPairSet(const DeducedOrders& od) {
  PairSet out;
  for (size_t a = 0; a < od.per_attr.size(); ++a) {
    for (const auto& [u, v] : od.per_attr[a].Pairs()) {
      out.insert({static_cast<int>(a), u, v});
    }
  }
  return out;
}

// The per-pair Lemma-6 loop on a fresh solver holding `phi`.
PairSet Lemma6Fresh(const Instantiation& inst, const sat::Cnf& phi,
                    std::span<const sat::Lit> assumptions = {}) {
  sat::Solver solver;
  solver.AddCnf(phi);
  return ToPairSet(Lemma6DeduceShared(inst, &solver, assumptions));
}

Dataset SmallCorpus(const std::string& kind, uint64_t seed) {
  if (kind == "nba") {
    NbaOptions o;
    o.num_entities = 4;
    o.min_tuples = 3;
    o.max_tuples = 8;
    o.seed = seed;
    return GenerateNba(o);
  }
  if (kind == "career") {
    CareerOptions o;
    o.num_entities = 4;
    o.min_tuples = 3;
    o.max_tuples = 8;
    o.seed = seed;
    return GenerateCareer(o);
  }
  PersonOptions o;
  o.num_entities = 4;
  o.min_tuples = 4;
  o.max_tuples = 10;
  o.seed = seed;
  return GeneratePerson(o);
}

TEST(DeducePropagationTest, PaperSpecsMatchPerPair) {
  for (const Specification& se : {EdithSpec(), GeorgeSpec()}) {
    auto inst = Instantiation::Build(se);
    ASSERT_TRUE(inst.ok());
    const sat::Cnf phi = BuildCnf(*inst);
    const PairSet perpair = Lemma6Fresh(*inst, phi);
    EXPECT_EQ(ToPairSet(NaiveDeduce(*inst, phi)), perpair);
    EXPECT_FALSE(perpair.empty());
  }
}

TEST(DeducePropagationTest, RandomizedCorporaMatchPerPair) {
  for (const std::string kind : {"person", "nba", "career"}) {
    for (const uint64_t seed : {0xBB1u, 0xBB2u, 0xBB3u}) {
      const Dataset ds = SmallCorpus(kind, seed);
      for (size_t e = 0; e < ds.entities.size(); ++e) {
        auto inst = Instantiation::Build(ds.MakeSpec(static_cast<int>(e)));
        ASSERT_TRUE(inst.ok());
        const sat::Cnf phi = BuildCnf(*inst);
        EXPECT_EQ(ToPairSet(NaiveDeduce(*inst, phi)),
                  Lemma6Fresh(*inst, phi))
            << kind << " seed " << seed << " entity " << e;
      }
    }
  }
}

// Live sessions on the Lemma-6 pipeline: guarded grounding arms every CFD
// rule clause through its guard literal, so the probe runs under a
// non-empty assumption prefix. Two ExtendWith rounds — each a user tuple
// carrying one attribute's true value above every earlier tuple — retire
// guards and append clauses; the session's Deduce must keep matching the
// per-pair loop on a fresh solver holding the extended formula.
TEST(DeducePropagationTest, SessionDeduceUnderGuardsAndExtension) {
  ResolveOptions options;
  options.naive_deduce = true;
  int checks = 0, pairs = 0;
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = SmallCorpus(kind, 0x5E55);
    for (size_t e = 0; e < ds.entities.size(); ++e) {
      const std::vector<Value>& truth = ds.entities[e].truth;
      auto s = ResolutionSession::Create(ds.MakeSpec(static_cast<int>(e)),
                                         options);
      ASSERT_TRUE(s.ok());
      const int n_attrs = static_cast<int>(truth.size());
      int answered = 0;
      for (int a = 0; a <= n_attrs; ++a) {
        const std::string where = kind + " entity " + std::to_string(e) +
                                  " after " + std::to_string(answered) +
                                  " answers";
        const Instantiation& inst = s->instantiation();
        const PairSet deduced = ToPairSet(s->Deduce());
        EXPECT_EQ(deduced,
                  Lemma6Fresh(inst, s->cnf(), inst.guard_assumptions()))
            << where;
        ++checks;
        pairs += static_cast<int>(deduced.size());
        if (answered == 2 || a == n_attrs) break;
        if (truth[a].is_null()) continue;
        const int n_tuples = s->spec().instance().size();
        PartialTemporalOrder ot;
        Tuple to(std::vector<Value>(n_attrs, Value::Null()));
        to[a] = truth[a];
        ot.new_tuples.push_back(to);
        for (int t = 0; t < n_tuples; ++t) {
          ot.orders.emplace_back(a, t, n_tuples);
        }
        ASSERT_TRUE(s->ExtendWith(ot).ok()) << where;
        ++answered;
      }
      EXPECT_EQ(answered, 2) << kind << " entity " << e;
      EXPECT_EQ(s->rebuilds(), 0);
    }
  }
  EXPECT_GE(checks, 30);
  EXPECT_GT(pairs, 100);
}

// The point of the change, counter-verified: a session's Deduce issues
// no solver call at all, while the per-pair loop issues one per pair.
TEST(DeducePropagationTest, CountersShowNoDeduceSolves) {
  ResolveOptions options;
  options.naive_deduce = true;
  const Dataset ds = SmallCorpus("person", 0xC0DE);
  int64_t perpair_queries = 0;
  for (size_t e = 0; e < ds.entities.size(); ++e) {
    auto s = ResolutionSession::Create(ds.MakeSpec(static_cast<int>(e)),
                                       options);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(s->CheckValidity().valid);
    const sat::SolverStats before = s->solver_stats();
    (void)s->Deduce();
    const sat::SolverStats delta = s->solver_stats() - before;
    EXPECT_EQ(delta.deduce_queries, 0) << "entity " << e;
    EXPECT_EQ(delta.assumption_solves, 0) << "entity " << e;
    EXPECT_EQ(delta.conflicts, 0) << "entity " << e;

    sat::Solver solver;
    solver.AddCnf(s->cnf());
    (void)Lemma6DeduceShared(s->instantiation(), &solver,
                             s->instantiation().guard_assumptions());
    perpair_queries += solver.stats().deduce_queries;
  }
  EXPECT_GT(perpair_queries, 100);
}

// A clause with two positive literals makes the formula non-Horn: its
// least model no longer decides entailment. With (p ∨ q), (¬p ∨ x) and
// (¬q ∨ x), the order atom x is entailed by case split, which unit
// propagation cannot see. NaiveDeduceShared must take the per-pair
// fallback, find x, and match the loop on a second solver.
TEST(DeducePropagationTest, NonHornFormulaTakesTheFallback) {
  auto inst = Instantiation::Build(GeorgeSpec());
  ASSERT_TRUE(inst.ok());
  const sat::Cnf phi = BuildCnf(*inst);
  const PairSet plain = Lemma6Fresh(*inst, phi);
  // An order atom x_ij open in both directions.
  const VarMap& vm = inst->varmap;
  int attr = -1, less = -1, more = -1;
  for (int a = 0; a < vm.num_attrs() && attr < 0; ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    for (int i = 0; i < d && attr < 0; ++i) {
      for (int j = 0; j < d && attr < 0; ++j) {
        if (i != j && !plain.contains({a, i, j}) &&
            !plain.contains({a, j, i})) {
          attr = a;
          less = i;
          more = j;
        }
      }
    }
  }
  ASSERT_GE(attr, 0) << "George's spec leaves some pair open";
  const sat::Lit x = sat::Lit::Pos(vm.VarOf(attr, less, more));

  const auto load = [&](sat::Solver* s) {
    s->AddCnf(phi);
    const sat::Var p = s->NewVar(), q = s->NewVar();
    ASSERT_TRUE(s->AddClause({sat::Lit::Pos(p), sat::Lit::Pos(q)}));
    ASSERT_TRUE(s->AddClause({sat::Lit::Neg(p), x}));
    ASSERT_TRUE(s->AddClause({sat::Lit::Neg(q), x}));
  };
  sat::Solver solver, reference;
  load(&solver);
  load(&reference);
  ASSERT_FALSE(solver.ProblemIsHorn());
  // Propagation alone misses x: the probe leaves it open. (Before any
  // solve, which would learn x as a unit.)
  ASSERT_TRUE(solver.BeginProbe({}));
  EXPECT_EQ(solver.ProbeValue(x.var()), sat::Lbool::kUndef);
  solver.EndProbe();

  const PairSet deduced = ToPairSet(NaiveDeduceShared(*inst, &solver));
  EXPECT_GT(solver.stats().deduce_queries, 0);  // the per-pair loop ran
  EXPECT_TRUE(deduced.contains({attr, less, more}));
  EXPECT_EQ(deduced, ToPairSet(Lemma6DeduceShared(*inst, &reference)));
}

// DeduceScratch reuse is observationally inert: a scratch dirtied by a
// larger instance must leave a later, smaller instance's DeduceOrder
// result untouched (the session pool hands one scratch to every round
// of every entity on a worker thread).
TEST(DeducePropagationTest, DeduceScratchReuseIsInert) {
  DeduceScratch scratch;
  const auto run = [&](const Specification& se, DeduceScratch* s) {
    auto inst = Instantiation::Build(se);
    EXPECT_TRUE(inst.ok());
    const sat::Cnf phi = BuildCnf(*inst);
    return ToPairSet(DeduceOrder(*inst, phi, {}, {}, s));
  };
  const PairSet edith_fresh = run(EdithSpec(), nullptr);
  const PairSet george_fresh = run(GeorgeSpec(), nullptr);
  EXPECT_EQ(run(EdithSpec(), &scratch), edith_fresh);
  EXPECT_EQ(run(GeorgeSpec(), &scratch), george_fresh);
  EXPECT_EQ(run(EdithSpec(), &scratch), edith_fresh);
}

}  // namespace
}  // namespace ccr
