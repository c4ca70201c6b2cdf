// Differential suite for Deduce by propagation (src/core/deduce.cc):
// NaiveDeduceShared reads the least model of the Horn formula Φ(Se) off
// one propagation probe, and must return exactly the pair set of the
// paper's per-pair Lemma-6 loop (Lemma6DeduceShared, one solve per pair)
// — on the paper's fixtures, on randomized corpora from all three
// generators, and on live sessions under their guard assumptions, built
// and after two ExtendWith rounds. A hand-built non-Horn formula must
// take the per-pair fallback, which finds an entailment propagation
// cannot.
//
// The fast pipeline's session Deduce (DeduceOrderShared: the probe
// extended by the totality rule) must equal the counter-based
// DeduceOrder pair for pair in all three DeduceOptions modes, across
// ExtendWith rounds of truth answers and fresh tuples, with no fallback
// and no solver call on any corpus, and on a hand-built chain of
// totality steps. Both pipelines' session Deduce, which reads Od off the
// trail without computing a closure, must also equal the trail's pairs
// closed by PartialOrder::Add, across Create and three extensions.
// Hand-built cases — totality conflicts, a cycle of negative units, a
// contradicting CFD answer and a solver that learnt clauses — must take
// the DeduceOrder fallback and still match it; a cycle of true atoms
// sends NaiveDeduceShared to the per-pair loop.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "paper_fixture.h"
#include "src/ccr.h"
#include "src/core/session.h"
#include "src/data/dataset.h"
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
                  Lemma6Fresh(inst, BuildCnf(inst), inst.guard_assumptions()))
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
      EXPECT_EQ(s->incremental_extensions(), answered);
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
    solver.AddCnf(BuildCnf(s->instantiation()));
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

// The three DeduceOptions modes: paper + totality (the default), paper
// without totality, strict.
std::vector<std::pair<std::string, DeduceOptions>> DeduceModes() {
  DeduceOptions paper_only;
  paper_only.totality_propagation = false;
  DeduceOptions strict;
  strict.paper_negative_units = false;
  return {{"paper+totality", DeduceOptions{}},
          {"paper", paper_only},
          {"strict", strict}};
}

// A user tuple carrying a fresh value in every attribute, more current
// than every tuple: it grows every domain and retires the guards of CFDs
// whose LHS domain grew.
PartialTemporalOrder FreshTupleDelta(const Specification& se) {
  const int n_attrs = se.schema().size();
  const int t_o = se.instance().size();
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(
      Tuple(std::vector<Value>(n_attrs, Value::Str("fresh"))));
  for (int a = 0; a < n_attrs; ++a) {
    for (int t = 0; t < t_o; ++t) ot.orders.emplace_back(a, t, t_o);
  }
  return ot;
}

// Fast-pipeline sessions in every mode: round 0, after the truth of the
// suggested attributes, then after a fresh tuple. Each round's Deduce
// must equal DeduceOrder on the session's formula under its guards, from
// exactly one probe and no fallback or solver call.
TEST(DeducePropagationTest, SessionDeduceMatchesDeduceOrderAcrossRounds) {
  int checks = 0, pairs = 0;
  for (const auto& [mode_name, mode] : DeduceModes()) {
    ResolveOptions options;
    options.deduce = mode;
    for (const std::string kind : {"person", "nba", "career"}) {
      const Dataset ds = SmallCorpus(kind, 0xD1FF);
      for (size_t e = 0; e < ds.entities.size(); ++e) {
        auto s = ResolutionSession::Create(
            ds.MakeSpec(static_cast<int>(e)), options);
        ASSERT_TRUE(s.ok());
        for (int round = 0; round < 3; ++round) {
          const std::string where = mode_name + " " + kind + " entity " +
                                    std::to_string(e) + " round " +
                                    std::to_string(round);
          ASSERT_TRUE(s->CheckValidity().valid) << where;
          const Instantiation& inst = s->instantiation();
          const sat::SolverStats before = s->solver_stats();
          const DeducedOrders od = s->Deduce();
          const sat::SolverStats delta = s->solver_stats() - before;
          const PairSet deduced = ToPairSet(od);
          EXPECT_EQ(deduced, ToPairSet(DeduceOrder(inst, BuildCnf(inst), mode,
                                                   inst.guard_assumptions())))
              << where;
          EXPECT_EQ(delta.deduce_probes, 1) << where;
          EXPECT_EQ(delta.deduce_fallbacks, 0) << where;
          EXPECT_EQ(delta.assumption_solves, 0) << where;
          EXPECT_EQ(delta.conflicts, 0) << where;
          ++checks;
          pairs += static_cast<int>(deduced.size());
          if (round == 2) break;
          PartialTemporalOrder ot = FreshTupleDelta(s->spec());
          if (round == 0) {
            const Suggestion sug = s->MakeSuggestion(
                CandidateValues(inst.varmap, od),
                ExtractTrueValueIndices(inst.varmap, od));
            std::vector<UserOracle::Answer> answers;
            for (const int attr : sug.attrs) {
              const Value& truth = ds.entities[e].truth[attr];
              if (!truth.is_null()) answers.push_back({attr, truth});
            }
            if (!answers.empty()) {
              auto d = MakeAnswerDelta(s->spec(), answers);
              ASSERT_TRUE(d.ok()) << where;
              ot = std::move(d).value();
            }
          }
          ASSERT_TRUE(s->ExtendWith(ot).ok()) << where;
        }
      }
    }
  }
  EXPECT_EQ(checks, 3 * 3 * 4 * 3);
  EXPECT_GT(pairs, 500);
}

// Od as the probe read it while it closed the relation itself: the same
// probe on `solver` under the guards, closed under totality in paper mode
// with totality, and every order literal of the trail recorded through
// PartialOrder::Add in trail order (a negative one reversed, in paper
// mode).
PairSet AddTrailPairs(const Instantiation& inst, sat::Solver* solver,
                      const DeduceOptions& mode) {
  const VarMap& vm = inst.varmap;
  DeducedOrders od;
  for (int a = 0; a < vm.num_attrs(); ++a) {
    od.per_attr.emplace_back(static_cast<int>(vm.domain(a).size()));
  }
  if (!solver->BeginProbe(inst.guard_assumptions())) {
    ADD_FAILURE() << "probe refuted";
    return {};
  }
  const bool totality =
      mode.paper_negative_units && mode.totality_propagation;
  for (size_t scanned = 0; totality;) {
    std::vector<sat::Lit> reversed;
    const std::span<const sat::Lit> trail = solver->ProbeTrail();
    for (; scanned < trail.size(); ++scanned) {
      const sat::Lit l = trail[scanned];
      if (!l.negated() || !vm.IsOrderVar(l.var())) continue;
      const OrderAtom atom = vm.Decode(l.var());
      const sat::Var rev = vm.VarOf(atom.attr, atom.more, atom.less);
      if (solver->ProbeValue(rev) != sat::Lbool::kTrue) {
        reversed.push_back(sat::Lit::Pos(rev));
      }
    }
    if (reversed.empty()) break;
    if (!solver->ProbeExtend(reversed)) {
      ADD_FAILURE() << "totality extension refuted";
      return {};
    }
  }
  for (const sat::Lit l : solver->ProbeTrail()) {
    if (!vm.IsOrderVar(l.var())) continue;
    if (l.negated() && !mode.paper_negative_units) continue;
    const OrderAtom atom = vm.Decode(l.var());
    PartialOrder& po = od.per_attr[atom.attr];
    EXPECT_TRUE(l.negated() ? po.Add(atom.more, atom.less).ok()
                            : po.Add(atom.less, atom.more).ok());
  }
  solver->EndProbe();
  return ToPairSet(od);
}

// The session's Deduce sets one bit per true order atom of the trail and
// computes no closure. On both pipelines and in every DeduceOptions mode
// (the naive pipeline reads in strict mode), after Create and after each
// of three extensions — two oracle answers, then a tuple of fresh values
// that retires guards — its Od must equal the trail's pairs closed by
// PartialOrder::Add and DeduceOrder's, from one probe and no fallback.
TEST(DeducePropagationTest, SessionDeduceMatchesTheClosedTrailAndDeduceOrder) {
  DeduceOptions strict;
  strict.paper_negative_units = false;
  std::vector<std::tuple<std::string, bool, DeduceOptions>> configs;
  for (const auto& [mode_name, mode] : DeduceModes()) {
    configs.emplace_back("fast " + mode_name, false, mode);
  }
  configs.emplace_back("naive", true, strict);
  int checks = 0, pairs = 0, retired = 0;
  for (const auto& [config, naive, mode] : configs) {
    ResolveOptions options;
    options.naive_deduce = naive;
    options.deduce = mode;
    for (const std::string kind : {"person", "nba", "career"}) {
      const Dataset ds = SmallCorpus(kind, 0x0D0D);
      for (size_t e = 0; e < ds.entities.size(); ++e) {
        auto s = ResolutionSession::Create(
            ds.MakeSpec(static_cast<int>(e)), options);
        ASSERT_TRUE(s.ok());
        TruthOracle oracle(ds.entities[e].truth, /*answers_per_round=*/1);
        for (int round = 0; round <= 3; ++round) {
          const std::string where = config + " " + kind + " entity " +
                                    std::to_string(e) + " round " +
                                    std::to_string(round);
          const Instantiation& inst = s->instantiation();
          ASSERT_TRUE(s->CheckValidity().valid) << where;
          const sat::SolverStats before = s->solver_stats();
          const PairSet deduced = ToPairSet(s->Deduce());
          const sat::SolverStats delta = s->solver_stats() - before;
          EXPECT_EQ(delta.deduce_probes, 1) << where;
          EXPECT_EQ(delta.deduce_fallbacks, 0) << where;
          EXPECT_EQ(deduced, AddTrailPairs(inst, s->mutable_solver(), mode))
              << where;
          EXPECT_EQ(deduced, ToPairSet(DeduceOrder(inst, BuildCnf(inst), mode,
                                                   inst.guard_assumptions())))
              << where;
          ++checks;
          pairs += static_cast<int>(deduced.size());
          if (round == 3) break;
          PartialTemporalOrder ot = FreshTupleDelta(s->spec());
          const SessionRound r = s->RunRound(/*want_suggestion=*/true);
          if (round < 2 && r.suggestion.has_value()) {
            const std::vector<UserOracle::Answer> answers =
                oracle.Provide(s->spec(), *r.suggestion, inst.varmap);
            if (!answers.empty()) {
              auto d = MakeAnswerDelta(s->spec(), answers);
              ASSERT_TRUE(d.ok()) << where;
              ot = std::move(d).value();
            }
          }
          const std::vector<sat::Lit> guards = inst.guard_assumptions();
          ASSERT_TRUE(s->ExtendWith(ot).ok()) << where;
          for (size_t g = 0; g < guards.size(); ++g) {
            retired += guards[g] != inst.guard_assumptions()[g];
          }
        }
      }
    }
  }
  EXPECT_EQ(checks, 4 * 3 * 4 * 4);
  EXPECT_GT(pairs, 1000);
  EXPECT_GT(retired, 0);
}

// Whole resolves on all three corpora, both pipelines: every Deduce is
// one probe, none falls back, and none calls the solver.
TEST(DeducePropagationTest, CorporaDeduceWithoutFallbackOrSolves) {
  for (const bool naive : {false, true}) {
    ResolveOptions options;
    options.naive_deduce = naive;
    for (const std::string kind : {"person", "nba", "career"}) {
      const Dataset ds = SmallCorpus(kind, 0xFA11);
      sat::SolverStats deduce;
      int rounds = 0;
      for (size_t e = 0; e < ds.entities.size(); ++e) {
        TruthOracle oracle(ds.entities[e].truth);
        auto rr = Resolve(ds.MakeSpec(static_cast<int>(e)), &oracle, options);
        ASSERT_TRUE(rr.ok());
        for (const RoundTrace& t : rr->trace) {
          deduce += t.deduce_solver;
          ++rounds;
        }
      }
      const std::string where = kind + (naive ? " naive" : " fast");
      EXPECT_EQ(deduce.deduce_probes, rounds) << where;
      EXPECT_EQ(deduce.deduce_fallbacks, 0) << where;
      EXPECT_EQ(deduce.deduce_queries, 0) << where;
      EXPECT_EQ(deduce.assumption_solves, 0) << where;
      EXPECT_EQ(deduce.conflicts, 0) << where;
    }
  }
}

// One attribute over `values` values (one tuple each, named a, b, c,
// ...) and no constraints: Φ is the attribute's order block and nothing
// else.
struct OneAttribute {
  Instantiation inst;
  sat::Cnf phi;
  sat::Lit Pos(int less, int more) const {
    return sat::Lit::Pos(inst.varmap.VarOf(0, less, more));
  }
  sat::Lit Neg(int less, int more) const { return ~Pos(less, more); }
};

OneAttribute MakeOneAttribute(int values) {
  Schema schema = Schema::Make({"A"}).value();
  EntityInstance e(schema, "one-attribute");
  for (int v = 0; v < values; ++v) {
    EXPECT_TRUE(e.Add(Tuple({Value::Str(std::string(1, 'a' + v))})).ok());
  }
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  OneAttribute out{Instantiation::Build(se).value(), {}};
  out.phi = BuildCnf(out.inst);
  return out;
}

// DeduceOrderShared on a fresh solver holding Φ(inst), under `assume`,
// which must take the fallback and match DeduceOrder.
void ExpectFallbackMatches(const Instantiation& inst,
                           const std::vector<sat::Lit>& assume,
                           const DeduceOptions& mode,
                           const std::string& where) {
  const sat::Cnf phi = BuildCnf(inst);
  sat::Solver solver;
  solver.AddCnf(phi);
  const PairSet shared =
      ToPairSet(DeduceOrderShared(inst, &solver, mode, assume));
  EXPECT_EQ(shared, ToPairSet(DeduceOrder(inst, phi, mode, assume)))
      << where;
  EXPECT_EQ(solver.stats().deduce_fallbacks, 1) << where;
}

TEST(DeducePropagationTest, TotalityConflictTakesTheFallback) {
  // ¬x_ab and ¬x_ba: totality asserts x_ba, which is already false.
  OneAttribute t = MakeOneAttribute(3);
  ExpectFallbackMatches(t.inst, {t.Neg(0, 1), t.Neg(1, 0)}, DeduceOptions{},
                        "immediate");
  // ¬x_ab and ¬x_bc are consistent (c ≺ b ≺ a), but their totality
  // atoms x_ba and x_cb falsify ¬x_ba ∨ ¬x_cb. DeduceOrder ignores the
  // conflict and goes on: x_cb fires ¬x_cb ∨ x_da, so Od holds d ≺ a,
  // which no conflict-free probe reaches. The probe therefore gives up.
  // (Its fallback deduces on Φ(Se) as grounded, which lacks the two
  // binaries added here, so only the refusal is compared.)
  OneAttribute u = MakeOneAttribute(4);
  u.phi.AddUnit(u.Neg(0, 1));
  u.phi.AddUnit(u.Neg(1, 2));
  u.phi.AddBinary(u.Neg(1, 0), u.Neg(2, 1));
  u.phi.AddBinary(u.Neg(2, 1), u.Pos(3, 0));
  sat::Solver solver;
  solver.AddCnf(u.phi);
  (void)DeduceOrderShared(u.inst, &solver, DeduceOptions{});
  EXPECT_EQ(solver.stats().deduce_fallbacks, 1);
  EXPECT_TRUE(
      ToPairSet(DeduceOrder(u.inst, u.phi, DeduceOptions{})).contains(
          {0, 3, 0}));
}

TEST(DeducePropagationTest, TotalityChainsThroughTheProbe) {
  // ¬x_ab asserts x_ba, which falsifies x_cd; that asserts x_dc, which
  // falsifies x_ad. The probe must repeat the totality scan until no new
  // false order literal appears: Od ends with b ≺ a, d ≺ c and d ≺ a.
  OneAttribute t = MakeOneAttribute(4);
  t.phi.AddUnit(t.Neg(0, 1));
  t.phi.AddBinary(t.Neg(1, 0), t.Neg(2, 3));
  t.phi.AddBinary(t.Neg(3, 2), t.Neg(0, 3));
  sat::Solver solver;
  solver.AddCnf(t.phi);
  const PairSet shared =
      ToPairSet(DeduceOrderShared(t.inst, &solver, DeduceOptions{}));
  EXPECT_EQ(shared, ToPairSet(DeduceOrder(t.inst, t.phi, DeduceOptions{})));
  EXPECT_TRUE(shared.contains({0, 3, 0}));
  EXPECT_EQ(solver.stats().deduce_probes, 1);
  EXPECT_EQ(solver.stats().deduce_fallbacks, 0);
}

TEST(DeducePropagationTest, NegativeUnitCycleTakesTheFallback) {
  // ¬x_ab, ¬x_bc, ¬x_ca record b ≺ a, c ≺ b and a ≺ c: Od rejects the
  // last pair, so which pairs it keeps depends on the recording order.
  // Propagation meets no conflict: negative literals satisfy every
  // transitivity ternary they occur in.
  OneAttribute t = MakeOneAttribute(3);
  t.phi.AddUnit(t.Neg(0, 1));
  t.phi.AddUnit(t.Neg(1, 2));
  t.phi.AddUnit(t.Neg(2, 0));
  DeduceOptions paper_only;
  paper_only.totality_propagation = false;
  ExpectFallbackMatches(t.inst, {t.Neg(0, 1), t.Neg(1, 2), t.Neg(2, 0)},
                        paper_only, "cycle");
  // Strict mode records no negative unit: the probe answers.
  DeduceOptions strict;
  strict.paper_negative_units = false;
  sat::Solver solver;
  solver.AddCnf(t.phi);
  EXPECT_EQ(ToPairSet(DeduceOrderShared(t.inst, &solver, strict)),
            ToPairSet(DeduceOrder(t.inst, t.phi, strict)));
  EXPECT_EQ(solver.stats().deduce_fallbacks, 0);
  EXPECT_EQ(solver.stats().deduce_probes, 1);
}

TEST(DeducePropagationTest, NaivePositiveCycleIsAConflict) {
  // x_ba and x_ab both asserted: the order block's asymmetry makes the
  // pair a conflict at level 0, so no probe trail holds both atoms and
  // SetPair's cycle check is never reached. Both pipelines see an
  // unsatisfiable formula and deduce nothing, without a fallback. (With
  // asymmetry dropped from Solver::Propagate, both atoms land on the
  // trail, the probe rejects the cycle and the call falls back.)
  OneAttribute t = MakeOneAttribute(3);
  const VarMap& vm = t.inst.varmap;
  t.phi = sat::Cnf();
  t.phi.EnsureVars(vm.num_vars());
  t.phi.GrowOrderBlock(t.phi.AddOrderBlock(), 3,
                       [&](int i, int j) { return vm.VarOf(0, i, j); });
  t.phi.AddUnit(t.Pos(1, 0));
  t.phi.AddUnit(t.Pos(0, 1));
  sat::Solver solver, reference;
  solver.AddCnf(t.phi);
  reference.AddCnf(t.phi);
  EXPECT_TRUE(solver.IsUnsatForever());
  const PairSet deduced = ToPairSet(NaiveDeduceShared(t.inst, &solver));
  EXPECT_TRUE(deduced.empty());
  EXPECT_EQ(deduced, ToPairSet(Lemma6DeduceShared(t.inst, &reference)));
  EXPECT_EQ(solver.stats().deduce_probes, 1);
  EXPECT_EQ(solver.stats().deduce_fallbacks, 0);
}

TEST(DeducePropagationTest, CounterEngineAppliesTheBlocksAsymmetry) {
  // x_ab true makes x_ba false, which turns (x_ba ∨ ¬x_cb) into the unit
  // ¬x_cb, recorded in paper mode as b ≺ c. DeduceOrder reads asymmetry
  // from the order block, as the solver's probe does, so both deduce
  // a ≺ b ≺ c (a ≺ c by transitivity).
  OneAttribute t = MakeOneAttribute(3);
  t.phi.AddUnit(t.Pos(0, 1));
  t.phi.AddBinary(t.Pos(1, 0), t.Neg(2, 1));
  sat::Solver solver;
  solver.AddCnf(t.phi);
  DeduceOptions paper_only;
  paper_only.totality_propagation = false;
  const PairSet engine = ToPairSet(DeduceOrder(t.inst, t.phi, paper_only));
  EXPECT_TRUE(engine.contains({0, 1, 2}));
  EXPECT_TRUE(engine.contains({0, 0, 2}));
  EXPECT_EQ(engine, ToPairSet(DeduceOrderShared(t.inst, &solver, paper_only)));
  EXPECT_EQ(solver.stats().deduce_fallbacks, 0);
}

TEST(DeducePropagationTest, ContradictingCfdAnswerTakesTheFallback) {
  // Two tuples and the CFD A=a1 -> B=b1. Answering A=a1 and B=b2 makes
  // a1 current, so b1 must be too: the guards are refuted.
  Schema schema = Schema::Make({"A", "B"}).value();
  EntityInstance e(schema, "cfd-entity");
  ASSERT_TRUE(e.Add(Tuple({Value::Str("a1"), Value::Str("b1")})).ok());
  ASSERT_TRUE(e.Add(Tuple({Value::Str("a2"), Value::Str("b2")})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  ASSERT_TRUE(se.SetRules({}, {ConstantCfd(std::vector<std::pair<int, Value>>{
                                               {0, Value::Str("a1")}},
                                           1, Value::Str("b1"))})
                  .ok());
  for (const auto& [mode_name, mode] : DeduceModes()) {
    ResolveOptions options;
    options.deduce = mode;
    auto s = ResolutionSession::Create(se, options);
    ASSERT_TRUE(s.ok());
    const Instantiation& inst = s->instantiation();
    EXPECT_EQ(ToPairSet(s->Deduce()),
              ToPairSet(DeduceOrder(inst, BuildCnf(inst), mode,
                                    inst.guard_assumptions())))
        << mode_name;
    EXPECT_EQ(s->solver_stats().deduce_fallbacks, 0) << mode_name;
    auto delta = MakeAnswerDelta(
        s->spec(), {{0, Value::Str("a1")}, {1, Value::Str("b2")}});
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(s->ExtendWith(*delta).ok());
    ASSERT_FALSE(s->CheckValidity().valid);
    EXPECT_EQ(ToPairSet(s->Deduce()),
              ToPairSet(DeduceOrder(inst, BuildCnf(inst), mode,
                                    inst.guard_assumptions())))
        << mode_name;
    EXPECT_EQ(s->solver_stats().deduce_fallbacks, 1) << mode_name;
  }
}

// A solver that learnt clauses may propagate further than Φ's clauses:
// with (p ∨ q), (¬p ∨ x) and (¬q ∨ x) a solve can learn the unit x,
// which DeduceOrder never derives. DeduceOrderShared must not read such
// a solver's probe.
TEST(DeducePropagationTest, LearntClausesTakeTheFallback) {
  auto inst = Instantiation::Build(GeorgeSpec());
  ASSERT_TRUE(inst.ok());
  sat::Cnf phi = BuildCnf(*inst);
  const PairSet plain = ToPairSet(DeduceOrder(*inst, phi));
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
  const sat::Var p = inst->varmap.NewAuxVar();
  const sat::Var q = inst->varmap.NewAuxVar();
  phi.EnsureVars(inst->varmap.num_vars());
  phi.AddClause({sat::Lit::Pos(p), sat::Lit::Pos(q)});
  phi.AddClause({sat::Lit::Neg(p), x});
  phi.AddClause({sat::Lit::Neg(q), x});
  const PairSet reference = ToPairSet(DeduceOrder(*inst, phi));
  EXPECT_FALSE(reference.contains({attr, less, more}));

  sat::Solver solver;
  solver.AddCnf(phi);
  // Refuting ¬x takes a conflict, and the solver learns x.
  ASSERT_EQ(solver.SolveWithAssumptions(std::vector<sat::Lit>{~x}),
            sat::SolveResult::kUnsat);
  ASSERT_GT(solver.stats().conflicts, 0);
  ASSERT_TRUE(solver.BeginProbe({}));
  EXPECT_EQ(solver.ProbeValue(x.var()), sat::Lbool::kTrue);
  solver.EndProbe();
  EXPECT_EQ(ToPairSet(DeduceOrderShared(*inst, &solver)), reference);
  EXPECT_EQ(solver.stats().deduce_fallbacks, 1);
  EXPECT_EQ(solver.stats().deduce_probes, 0);
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
