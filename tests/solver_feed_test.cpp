// The encoding pass that loads a solver straight from the grounding
// (LoadSolver/ExtendSolver, src/encode/cnf_builder.h). The same pass into
// a sat::Cnf, fed through AddCnfFrom, is the reference: both end in
// FeedClauseFrom, so on a hand-built instantiation the two solvers must agree
// word for word. Each hand-built case also pins what the normalization
// must do on its own — dedup, tautologies, literals fixed at level 0, an
// empty clause, a retired guard — so a fault shared by both paths still
// fails. On the corpora, a session's solver after Create and after each
// of three ExtendWith rounds must agree on every verdict with a fresh
// solver fed the independently built Φ(Se).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/deduce.h"
#include "src/core/isvalid.h"
#include "src/core/session.h"
#include "src/data/career_generator.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/encode/cnf_builder.h"
#include "src/sat/solver.h"

namespace ccr {
namespace {

using sat::Lit;
using sat::Solver;

std::set<Lit> TrailSet(std::span<const Lit> trail) {
  return std::set<Lit>(trail.begin(), trail.end());
}

// The level-0 facts, as a set.
std::set<Lit> Level0(Solver* s) {
  if (!s->BeginProbe({})) return {};
  const std::set<Lit> out = TrailSet(s->ProbeTrail());
  s->EndProbe();
  return out;
}

using PairSet = std::set<std::tuple<int, int, int>>;

PairSet Pairs(const DeducedOrders& od) {
  PairSet out;
  for (size_t a = 0; a < od.per_attr.size(); ++a) {
    for (const auto& [i, j] : od.per_attr[a].Pairs()) {
      out.emplace(static_cast<int>(a), i, j);
    }
  }
  return out;
}

DeduceOptions Strict() {
  DeduceOptions strict;
  strict.paper_negative_units = false;
  strict.totality_propagation = false;
  return strict;
}

// Every verdict the pipeline reads off a solver holding Φ(Se): the Horn
// flag, the level-0 facts, the probe under the guards, validity, and Od
// in paper and strict mode.
void ExpectSameVerdicts(const Instantiation& inst, Solver* got,
                        Solver* want, const std::string& where) {
  const std::vector<Lit>& guards = inst.guard_assumptions();
  ASSERT_EQ(got->IsUnsatForever(), want->IsUnsatForever()) << where;
  if (want->IsUnsatForever()) return;
  EXPECT_EQ(got->ProblemIsHorn(), want->ProblemIsHorn()) << where;
  EXPECT_EQ(Level0(got), Level0(want)) << where;
  const bool got_open = got->BeginProbe(guards);
  const std::set<Lit> got_probe =
      got_open ? TrailSet(got->ProbeTrail()) : std::set<Lit>{};
  if (got_open) got->EndProbe();
  const bool want_open = want->BeginProbe(guards);
  const std::set<Lit> want_probe =
      want_open ? TrailSet(want->ProbeTrail()) : std::set<Lit>{};
  if (want_open) want->EndProbe();
  EXPECT_EQ(got_open, want_open) << where;
  EXPECT_EQ(got_probe, want_probe) << where;
  EXPECT_EQ(IsValidShared(got, guards).valid,
            IsValidShared(want, guards).valid)
      << where;
  for (const DeduceOptions& mode : {DeduceOptions{}, Strict()}) {
    EXPECT_EQ(Pairs(DeduceOrderShared(inst, got, mode, guards)),
              Pairs(DeduceOrderShared(inst, want, mode, guards)))
        << where << (mode.paper_negative_units ? " paper" : " strict");
  }
}

// Two solvers loaded with the same clause sequence: the same state, word
// for word, and the same level-0 trail in the same order.
void ExpectSameState(Solver* got, Solver* want, const std::string& where) {
  EXPECT_EQ(got->num_vars(), want->num_vars()) << where;
  ASSERT_EQ(got->IsUnsatForever(), want->IsUnsatForever()) << where;
  EXPECT_EQ(got->arena_words(), want->arena_words()) << where;
  EXPECT_EQ(got->order_value_bytes(), want->order_value_bytes()) << where;
  EXPECT_EQ(got->stats().propagations, want->stats().propagations) << where;
  EXPECT_EQ(got->stats().binary_propagations,
            want->stats().binary_propagations)
      << where;
  if (got->IsUnsatForever()) return;
  ASSERT_TRUE(got->BeginProbe({}));
  const std::vector<Lit> got_trail(got->ProbeTrail().begin(),
                                   got->ProbeTrail().end());
  got->EndProbe();
  ASSERT_TRUE(want->BeginProbe({}));
  const std::vector<Lit> want_trail(want->ProbeTrail().begin(),
                                    want->ProbeTrail().end());
  want->EndProbe();
  EXPECT_EQ(got_trail, want_trail) << where;
}

// DIMACS-style literal: x > 0 is variable x - 1, x < 0 its negation.
Lit DimacsLit(int x) { return x > 0 ? Lit::Pos(x - 1) : Lit::Neg(-x - 1); }

// FeedClause on its own, one clause per row, into a solver that holds
// the unit 3: the arena words the clause took (3 + its kept literals for
// a long clause, 0 for a unit, a binary or a dropped clause) and the
// level-0 facts after it.
TEST(SolverFeedTest, FeedClauseNormalizesEachClause) {
  struct Row {
    std::vector<int> clause;
    size_t arena_words;
    std::vector<int> facts;  // empty: the solver is unsatisfiable
  };
  const Row rows[] = {
      {{1, -1}, 0, {3}},           // a tautology is dropped
      {{1, 2, 4}, 6, {3}},         // kept as it is
      {{1, 1, 1, 2, 4}, 6, {3}},   // duplicates drop
      {{4, 4}, 0, {3, 4}},         // a unit, propagated at once
      {{-3, 1, 2, 5}, 6, {3}},     // a literal false at level 0 drops
      {{3, 1, 2}, 0, {3}},         // satisfied at level 0
      {{2, -2, -3}, 0, {3}},       // a tautology after a false literal
      {{-3, -3}, 0, {}},           // empty once normalized
  };
  for (const Row& row : rows) {
    Solver s;
    s.EnsureVars(5);
    ASSERT_TRUE(s.FeedClause(std::vector<Lit>{DimacsLit(3)}));
    std::vector<Lit> lits;
    for (const int x : row.clause) lits.push_back(DimacsLit(x));
    const std::string where = ::testing::PrintToString(row.clause);
    EXPECT_EQ(s.FeedClause(lits), !row.facts.empty()) << where;
    EXPECT_EQ(s.IsUnsatForever(), row.facts.empty()) << where;
    if (row.facts.empty()) continue;
    EXPECT_EQ(s.arena_words(), row.arena_words) << where;
    std::set<Lit> facts;
    for (const int x : row.facts) facts.insert(DimacsLit(x));
    EXPECT_EQ(Level0(&s), facts) << where;
  }
}

// A guarded grounding of `se` loaded both ways.
struct Loaded {
  Instantiation inst;
  sat::Cnf cnf;
  Solver direct;
  Solver via_cnf;
};

void Load(const Specification& se, const InstantiationOptions& options,
          Loaded* out) {
  Result<Instantiation> inst = Instantiation::Build(se, options);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  out->inst = std::move(inst).value();
  LoadSolver(out->inst, &out->direct);
  out->cnf = BuildCnf(out->inst);
  out->via_cnf.AddCnf(out->cnf);
}

Lit Atom(const VarMap& vm, int attr, int less, int more) {
  return Lit::Pos(vm.VarOf(attr, less, more));
}

// Schema {A, B, C}: t0 = (a0, b0, c0), t1 = (a1, b1, c1), t2 = (null, b2,
// c2), with t0 ≺ t1 in A, so x_A01 is a level-0 unit before any rule.
Specification NormalizationSpec() {
  EntityInstance e(Schema::Make({"A", "B", "C"}).value(), "normalize");
  EXPECT_TRUE(e.Add(Tuple({Value::Str("a0"), Value::Str("b0"),
                           Value::Str("c0")}))
                  .ok());
  EXPECT_TRUE(e.Add(Tuple({Value::Str("a1"), Value::Str("b1"),
                           Value::Str("c1")}))
                  .ok());
  EXPECT_TRUE(
      e.Add(Tuple({Value::Null(), Value::Str("b2"), Value::Str("c2")})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  EXPECT_TRUE(se.temporal.AddOrder(0, 0, 1).ok());
  // ϕ0: prec(B) -> A. Strict null order makes its pairs onto t2 (null A)
  // false-headed units ¬x_B02, ¬x_B12: literals false at level 0 below.
  CurrencyConstraint false_head(0);
  false_head.AddOrder(1);
  // ϕ1: prec(B) -> C. Its pairs onto t2 have a body atom false at level 0,
  // so the clause is satisfied and dropped.
  CurrencyConstraint false_body(2);
  false_body.AddOrder(1);
  // ϕ2: prec(A) & prec(A) -> C. A repeated body atom; on (t0, t1) it is
  // true at level 0, so the clause shrinks to the unit x_C01.
  CurrencyConstraint repeated(2);
  repeated.AddOrder(0);
  repeated.AddOrder(0);
  // ϕ3: prec(A) -> A. The body holds the head: a tautology.
  CurrencyConstraint holds_head(0);
  holds_head.AddOrder(0);
  EXPECT_TRUE(
      se.SetRules({false_head, false_body, repeated, holds_head}, {}).ok());
  return se;
}

TEST(SolverFeedTest, NormalizesWhatTheGroundingEmits) {
  InstantiationOptions options;
  options.guard_cfds = true;
  options.strict_null_order = true;
  Loaded l;
  Load(NormalizationSpec(), options, &l);
  ExpectSameState(&l.direct, &l.via_cnf, "normalization");
  ExpectSameVerdicts(l.inst, &l.direct, &l.via_cnf, "normalization");
  const VarMap& vm = l.inst.varmap;
  // Deduped, the repeated-atom rule (¬x_A10 ∨ ¬x_A10 ∨ x_C10) is a binary,
  // and every other clause has at most two literals: the arena is empty.
  EXPECT_EQ(l.direct.arena_words(), 0u);
  const std::set<Lit> facts = Level0(&l.direct);
  EXPECT_TRUE(facts.contains(Atom(vm, 0, 0, 1)));   // It's order unit
  EXPECT_TRUE(facts.contains(~Atom(vm, 1, 0, 2)));  // false-headed units
  EXPECT_TRUE(facts.contains(~Atom(vm, 1, 1, 2)));
  EXPECT_TRUE(facts.contains(Atom(vm, 2, 0, 1)));   // the shrunk unit
  EXPECT_TRUE(facts.contains(~Atom(vm, 0, 1, 0)));  // asymmetry of x_A01
  // The dropped clauses leave their heads open.
  EXPECT_FALSE(facts.contains(Atom(vm, 2, 0, 2)));
  EXPECT_FALSE(facts.contains(Atom(vm, 0, 1, 0)));
  EXPECT_TRUE(l.direct.ProblemIsHorn());
}

TEST(SolverFeedTest, AnEmptyFalseHeadedRuleIsUnsatisfiableForever) {
  // ϕ: t1[C] = 'c0' -> A, with no order predicate: on (t0, t1), where
  // t1's A is null, strict null order grounds it as (-> false).
  EntityInstance e(Schema::Make({"A", "C"}).value(), "empty");
  ASSERT_TRUE(e.Add(Tuple({Value::Str("a0"), Value::Str("c0")})).ok());
  ASSERT_TRUE(e.Add(Tuple({Value::Null(), Value::Str("c1")})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  CurrencyConstraint phi(0);
  phi.AddConstCompare(1, 1, CmpOp::kEq, Value::Str("c0"));
  ASSERT_TRUE(se.SetRules({phi}, {}).ok());
  InstantiationOptions options;
  options.strict_null_order = true;
  Loaded l;
  Load(se, options, &l);
  ASSERT_TRUE(std::any_of(l.inst.constraints.begin(),
                          l.inst.constraints.end(),
                          [](const GroundConstraint& gc) {
                            return gc.head_kind == GroundHead::kFalse &&
                                   !gc.has_body();
                          }));
  for (Solver* s : {&l.direct, &l.via_cnf}) {
    EXPECT_TRUE(s->IsUnsatForever());
    EXPECT_FALSE(s->BeginProbe({}));
    EXPECT_FALSE(s->FeedClause({}));
    EXPECT_TRUE(s->IsUnsatForever());
    EXPECT_FALSE(IsValidShared(s).valid);
  }
}

TEST(SolverFeedTest, ExtensionRetiresGuardsAndGrowsBlocks) {
  // The CFD B = b0 -> C = c0 applies from the start; a tuple with a new
  // B value retires its guard and regrounds it under a fresh one.
  EntityInstance e(Schema::Make({"B", "C"}).value(), "retire");
  ASSERT_TRUE(e.Add(Tuple({Value::Str("b0"), Value::Str("c0")})).ok());
  ASSERT_TRUE(e.Add(Tuple({Value::Str("b1"), Value::Str("c1")})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  ASSERT_TRUE(se.SetRules({}, {ConstantCfd(std::vector<std::pair<int, Value>>{
                                               {0, Value::Str("b0")}},
                                           1, Value::Str("c0"))})
                  .ok());
  InstantiationOptions options;
  options.guard_cfds = true;
  Loaded l;
  Load(se, options, &l);
  ExpectSameState(&l.direct, &l.via_cnf, "create");
  ASSERT_EQ(l.inst.guard_assumptions().size(), 1u);
  const sat::Var old_guard = l.inst.guard_assumptions()[0].var();

  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("b2"), Value::Str("c2")}));
  Result<Specification> grown = Extend(se, ot);
  ASSERT_TRUE(grown.ok());
  const int fed = l.cnf.num_clauses();
  Result<InstantiationDelta> delta = l.inst.ExtendWith(*grown, ot, options);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta->retired_guards, std::vector<sat::Var>{old_guard});
  ExtendSolver(l.inst, *delta, &l.direct);
  ExtendCnf(l.inst, *delta, &l.cnf);
  l.via_cnf.AddCnfFrom(l.cnf, fed);
  ExpectSameState(&l.direct, &l.via_cnf, "extension");
  ExpectSameVerdicts(l.inst, &l.direct, &l.via_cnf, "extension");

  const VarMap& vm = l.inst.varmap;
  const std::vector<Lit>& guards = l.inst.guard_assumptions();
  ASSERT_EQ(guards.size(), 1u);
  ASSERT_NE(guards[0].var(), old_guard);
  for (Solver* s : {&l.direct, &l.via_cnf}) {
    // The retired guard is off for good.
    EXPECT_TRUE(Level0(s).contains(Lit::Neg(old_guard)));
    // The grown value's asymmetry: b0 ≺ b2 forbids b2 ≺ b0.
    std::vector<Lit> base = guards;
    base.push_back(Atom(vm, 0, 0, 2));
    ASSERT_TRUE(s->BeginProbe(base));
    EXPECT_EQ(s->ProbeValue(vm.VarOf(0, 2, 0)), sat::Lbool::kFalse);
    s->EndProbe();
    // The grown block closes b0 ≺ b1 ≺ b2 transitively.
    base = guards;
    base.push_back(Atom(vm, 0, 0, 1));
    base.push_back(Atom(vm, 0, 1, 2));
    ASSERT_TRUE(s->BeginProbe(base));
    EXPECT_EQ(s->ProbeValue(vm.VarOf(0, 0, 2)), sat::Lbool::kTrue);
    s->EndProbe();
  }
}

// --- sessions on the corpora -------------------------------------------

Dataset SmallCorpus(const std::string& kind) {
  if (kind == "nba") {
    NbaOptions o;
    o.num_entities = 5;
    o.seed = 0xFEED;
    return GenerateNba(o);
  }
  if (kind == "career") {
    CareerOptions o;
    o.num_entities = 5;
    o.seed = 0xFEED;
    return GenerateCareer(o);
  }
  PersonOptions o;
  o.num_entities = 5;
  o.seed = 0xFEED;
  return GeneratePerson(o);
}

// A value of `like`'s type that no generator produces.
Value FreshValue(const Value& like, int k) {
  switch (like.type()) {
    case ValueType::kInt:
      return Value::Int(1000000 + k);
    case ValueType::kDouble:
      return Value::Real(1e6 + k);
    default:
      return Value::Str("fresh-" + std::to_string(k));
  }
}

// A tuple of new values in every attribute: each applicable CFD's LHS
// attribute grows, so every guard retires.
PartialTemporalOrder FreshTupleDelta(const Specification& se, int k) {
  const Tuple& first = se.instance().tuple(0);
  std::vector<Value> values;
  for (int a = 0; a < se.schema().size(); ++a) {
    values.push_back(FreshValue(first.at(a), k));
  }
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple(std::move(values)));
  return ot;
}

// Guards that were live before an extension and are not after it.
int Retired(const std::vector<Lit>& before, const std::vector<Lit>& after) {
  int n = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    n += i < after.size() && after[i] != before[i] ? 1 : 0;
  }
  return n;
}

// A fresh solver fed the independently built Φ(Se). BuildCnf writes no
// unit for a retired guard (an extension's ExtendSolver does), so the
// test asserts ¬g for every auxiliary variable that is not a live guard.
void LoadReference(const Instantiation& inst, Solver* fresh) {
  fresh->AddCnf(BuildCnf(inst));
  std::set<sat::Var> live;
  for (const Lit g : inst.guard_assumptions()) live.insert(g.var());
  for (sat::Var v = 0; v < inst.varmap.num_vars(); ++v) {
    if (!inst.varmap.IsOrderVar(v) && !live.contains(v)) {
      fresh->AddClause({Lit::Neg(v)});
    }
  }
}

// Drives `e`'s session through Create and three extensions — two oracle
// answers, then a tuple of new values — calling `check` after each.
template <class Check>
int DriveSession(const Dataset& ds, int e, const ResolveOptions& options,
                 Check check) {
  Result<ResolutionSession> s =
      ResolutionSession::Create(ds.MakeSpec(e), options);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  if (!s.ok()) return 0;
  check(&*s, 0);
  TruthOracle oracle(ds.entities[e].truth, /*answers_per_round=*/1);
  int retired = 0;
  for (int round = 1; round <= 3; ++round) {
    PartialTemporalOrder ot = FreshTupleDelta(s->spec(), round);
    const SessionRound r = s->RunRound(/*want_suggestion=*/true);
    if (round < 3 && r.suggestion.has_value()) {
      const std::vector<UserOracle::Answer> answers = oracle.Provide(
          s->spec(), *r.suggestion, s->instantiation().varmap);
      if (!answers.empty()) {
        Result<PartialTemporalOrder> delta =
            MakeAnswerDelta(s->spec(), answers);
        EXPECT_TRUE(delta.ok()) << delta.status().ToString();
        if (delta.ok()) ot = std::move(delta).value();
      }
    }
    const std::vector<Lit> before = s->instantiation().guard_assumptions();
    const Status st = s->ExtendWith(ot);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) return retired;
    retired += Retired(before, s->instantiation().guard_assumptions());
    check(&*s, round);
  }
  return retired;
}

TEST(SolverFeedTest, SessionSolverMatchesAFreshSolverFedTheBuiltFormula) {
  int checks = 0, retired = 0;
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = SmallCorpus(kind);
    for (int e = 0; e < static_cast<int>(ds.entities.size()); ++e) {
      const auto check = [&](ResolutionSession* s, int round) {
        const std::string where = kind + " entity " + std::to_string(e) +
                                  " round " + std::to_string(round);
        Solver fresh;
        LoadReference(s->instantiation(), &fresh);
        ExpectSameVerdicts(s->instantiation(), s->mutable_solver(), &fresh,
                           where);
        ++checks;
      };
      retired += DriveSession(ds, e, ResolveOptions{}, check);
    }
  }
  EXPECT_EQ(checks, 3 * 5 * 4);
  EXPECT_GT(retired, 0);
}

// DeduceOrderShared's cold fallback rebuilds Φ with BuildCnf, which lacks
// the session's units for retired guards. Under the live guards a
// retired guard's clauses can only derive ¬g, which Od never reads, so
// the fallback's Od equals the probe's on a solver that holds the units.
// With inprocessing on, the sweep after the retiring extension vivifies
// clauses on some person entities, and their sessions take the fallback.
TEST(SolverFeedTest, DeduceFallbackAfterAGuardRetirementKeepsOd) {
  ResolveOptions options;
  options.solver.use_inprocessing = true;
  int fallbacks = 0, retired = 0;
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = SmallCorpus(kind);
    for (int e = 0; e < static_cast<int>(ds.entities.size()); ++e) {
      const auto check = [&](ResolutionSession* s, int round) {
        if (round < 3) return;  // after the fresh tuple's retirements
        const Instantiation& inst = s->instantiation();
        const std::vector<Lit>& guards = inst.guard_assumptions();
        const std::string where = kind + " entity " + std::to_string(e);
        Solver held;
        LoadReference(inst, &held);
        const PairSet paper = Pairs(DeduceOrderShared(inst, &held, {}, guards));
        const PairSet strict =
            Pairs(DeduceOrderShared(inst, &held, Strict(), guards));
        ASSERT_EQ(held.stats().deduce_fallbacks, 0) << where;
        Solver* solver = s->mutable_solver();
        const sat::SolverStats& st = solver->stats();
        if (st.subsumed + st.vivified == 0) return;  // the probe answers
        const int64_t before = st.deduce_fallbacks;
        EXPECT_EQ(Pairs(s->Deduce()), paper) << where;
        const PairSet strict_fallback =
            Pairs(DeduceOrderShared(inst, solver, Strict(), guards));
        EXPECT_EQ(strict_fallback, strict) << where;
        EXPECT_EQ(st.deduce_fallbacks, before + 2) << where;
        ++fallbacks;
      };
      retired += DriveSession(ds, e, options, check);
    }
  }
  EXPECT_GT(retired, 0);
  EXPECT_GT(fallbacks, 0);
}

}  // namespace
}  // namespace ccr
