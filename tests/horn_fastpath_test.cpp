// The Horn fast paths of the solver feed, validity and deduction:
//   (a) IsValidShared, which decides by propagation when every live clause
//       is Horn, agrees with a full CDCL search — on random Horn and
//       non-Horn formulas, under positive and negative assumptions, on
//       a non-Horn clause later satisfied at level 0, and on session
//       solvers carrying retired guards;
//   (b) DeduceOrder with one append-only scratch index kept across rounds
//       (and recycled across Cnf::Clear, copy and move) equals a fresh
//       index on every call;
//   (c) AddCnfFrom's batched feed leaves the solver exactly as one
//       AddClause per clause does;
//   (d) Φ(Se) is Horn on every corpus, so sessions really take the
//       propagation path (checked in whatever build type runs the test,
//       not only where the encoder's DCHECK fires).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/isvalid.h"
#include "src/core/session.h"
#include "src/data/career_generator.h"
#include "src/data/dataset.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"
#include "src/encode/cnf_builder.h"
#include "src/sat/solver.h"

namespace ccr {
namespace {

using sat::Cnf;
using sat::Lit;
using sat::SolveResult;
using sat::Solver;
using sat::SolverOptions;
using sat::Var;

// The reference verdict: a fresh solver's CDCL search, no fast path.
bool FullSearchValid(const Cnf& cnf, std::span<const Lit> assumptions) {
  Solver ref;
  ref.AddCnf(cnf);
  return ref.SolveWithAssumptions(assumptions) == SolveResult::kSat;
}

// Random clauses of 1–3 literals; `horn` keeps at most one positive
// literal per clause by negating the others.
Cnf RandomCnf(Rng* rng, int n_vars, int n_clauses, bool horn) {
  Cnf cnf;
  cnf.EnsureVars(n_vars);
  std::vector<Lit> clause;
  for (int c = 0; c < n_clauses; ++c) {
    clause.clear();
    const int len = 1 + static_cast<int>(rng->Below(3));
    for (int k = 0; k < len; ++k) {
      const Var v = static_cast<Var>(rng->Below(n_vars));
      const bool negated = horn && k > 0 ? true : rng->Chance(0.5);
      clause.push_back(Lit(v, negated));
    }
    cnf.AddClause(clause);
  }
  return cnf;
}

bool ValidUnder(Solver* s, std::vector<Lit> assumptions) {
  return IsValidShared(s, Cnf(), assumptions).valid;
}

std::vector<Lit> RandomAssumptions(Rng* rng, int n_vars) {
  std::vector<Lit> out;
  const int n = static_cast<int>(rng->Below(4));
  for (int k = 0; k < n; ++k) {
    out.push_back(Lit(static_cast<Var>(rng->Below(n_vars)), rng->Chance(0.5)));
  }
  return out;
}

Cnf Prefix(const Cnf& cnf, int n) {
  Cnf out;
  out.EnsureVars(cnf.num_vars());
  for (int i = 0; i < n; ++i) out.AddClause(cnf.clause(i));
  return out;
}

// --- (a) validity by propagation --------------------------------------

TEST(HornFastPathTest, IsValidSharedMatchesFullSearchOnRandomCnfs) {
  Rng rng(0x40a11);
  int valid = 0, invalid = 0;
  for (int round = 0; round < 400; ++round) {
    const bool horn = round % 2 == 0;
    const int n_vars = 3 + static_cast<int>(rng.Below(10));
    const Cnf cnf =
        RandomCnf(&rng, n_vars, 2 + static_cast<int>(rng.Below(30)), horn);
    // Fed in two halves: the second call sees an incrementally grown
    // solver, as a session round does.
    Solver s;
    const int half = cnf.num_clauses() / 2;
    for (const int upto : {half, cnf.num_clauses()}) {
      const Cnf prefix = Prefix(cnf, upto);
      s.AddCnfFrom(prefix, upto == half ? 0 : half);
      const std::vector<Lit> assume = RandomAssumptions(&rng, n_vars);
      const int64_t decisions = s.stats().decisions;
      const int64_t solves = s.stats().assumption_solves;
      const ValidityResult r = IsValidShared(&s, prefix, assume);
      EXPECT_EQ(r.valid, FullSearchValid(prefix, assume))
          << "round " << round << " horn " << horn << " upto " << upto;
      if (horn) {
        // Horn: decided by propagation alone, no search of any kind.
        EXPECT_EQ(s.stats().decisions, decisions) << "round " << round;
        EXPECT_EQ(s.stats().assumption_solves, solves) << "round " << round;
      }
      (r.valid ? valid : invalid) += 1;
    }
  }
  EXPECT_GT(valid, 100);
  EXPECT_GT(invalid, 100);
}

TEST(HornFastPathTest, NonHornClauseAddedToSolverFallsBackToSearch) {
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Neg(a), Lit::Neg(b)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(c), Lit::Pos(a)}));
  EXPECT_TRUE(s.ProblemIsHorn());
  EXPECT_TRUE(ValidUnder(&s, {}));
  EXPECT_FALSE(ValidUnder(&s, {Lit::Pos(c), Lit::Pos(b)}));
  // (a ∨ b) has two positive literals. With (a ∨ ¬b), (¬a ∨ b) and
  // (¬a ∨ ¬b) the formula is unsatisfiable, yet no literal propagates:
  // a quiet fixpoint proves nothing here, and only the search sees it.
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b)}));
  EXPECT_FALSE(s.ProblemIsHorn());
  EXPECT_TRUE(ValidUnder(&s, {Lit::Neg(a)}));
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Neg(b)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(a), Lit::Pos(b)}));
  EXPECT_FALSE(ValidUnder(&s, {}));
  EXPECT_TRUE(s.IsUnsatForever());
}

TEST(HornFastPathTest, SatisfiedNonHornClausesStopCounting) {
  Solver s;
  const Var x = s.NewVar(), y = s.NewVar(), t = s.NewVar();
  ASSERT_TRUE(s.AddClause({Lit::Neg(x), Lit::Neg(y)}));
  // (x ∨ y ∨ t): non-Horn until a level-0 fact satisfies it.
  ASSERT_TRUE(s.AddClause({Lit::Pos(x), Lit::Pos(y), Lit::Pos(t)}));
  EXPECT_FALSE(s.ProblemIsHorn());
  EXPECT_TRUE(ValidUnder(&s, {}));
  EXPECT_FALSE(ValidUnder(&s, {Lit::Neg(x), Lit::Neg(y), Lit::Neg(t)}));
  // The unit t satisfies it at level 0: the formula counts as Horn again.
  ASSERT_TRUE(s.AddClause({Lit::Pos(t)}));
  EXPECT_TRUE(s.ProblemIsHorn());
  const int64_t solves = s.stats().assumption_solves;
  EXPECT_TRUE(ValidUnder(&s, {Lit::Pos(x)}));
  EXPECT_FALSE(ValidUnder(&s, {Lit::Pos(x), Lit::Pos(y)}));
  EXPECT_EQ(s.stats().assumption_solves, solves);
}

Dataset SmallCorpus(const std::string& kind) {
  if (kind == "person") {
    PersonOptions o;
    o.num_entities = 4;
    o.min_tuples = 6;
    o.max_tuples = 20;
    return GeneratePerson(o);
  }
  if (kind == "nba") {
    NbaOptions o;
    o.num_entities = 6;
    return GenerateNba(o);
  }
  CareerOptions o;
  o.num_entities = 6;
  o.max_tuples = 40;
  return GenerateCareer(o);
}

// Extension by a user tuple with a fresh value in every attribute, more
// current than every tuple: it grows every domain and retires the guards
// of CFDs whose LHS domain grew.
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

// Runs entity `idx` of `ds` through a session for up to three extensions:
// truth answers, then a fresh tuple (retired guards), then a random
// domain value per suggested attribute, current or not. Every round runs
// validity, deduce and suggest, and `check` sees the session before each
// round's phases.
void DriveSession(const Dataset& ds, int idx, Rng* rng,
                  const std::function<void(ResolutionSession*)>& check) {
  auto session = ResolutionSession::Create(ds.MakeSpec(idx));
  ASSERT_TRUE(session.ok());
  for (int round = 0; round <= 3; ++round) {
    check(&*session);
    if (!session->CheckValidity().valid) return;
    const VarMap& vm = session->instantiation().varmap;
    const DeducedOrders od = session->Deduce();
    const Suggestion sug = session->MakeSuggestion(
        CandidateValues(vm, od), ExtractTrueValueIndices(vm, od));
    if (round == 3) return;
    std::vector<UserOracle::Answer> answers;
    for (size_t i = 0; i < sug.attrs.size() && round != 1; ++i) {
      const int attr = sug.attrs[i];
      if (round == 0) {
        const Value& truth = ds.entities[idx].truth[attr];
        if (!truth.is_null()) answers.push_back({attr, truth});
      } else if (!vm.domain(attr).empty()) {
        const std::vector<Value>& d = vm.domain(attr);
        answers.push_back({attr, d[rng->Below(d.size())]});
      }
    }
    PartialTemporalOrder ot = FreshTupleDelta(session->spec());
    if (!answers.empty()) {
      auto delta = MakeAnswerDelta(session->spec(), answers);
      ASSERT_TRUE(delta.ok());
      ot = std::move(delta).value();
    }
    ASSERT_TRUE(session->ExtendWith(ot).ok());
  }
}

TEST(HornFastPathTest, SessionValidityMatchesFullSearchAcrossRounds) {
  Rng rng(0x5e55);
  int valid = 0;
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = SmallCorpus(kind);
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      DriveSession(ds, static_cast<int>(i), &rng, [&](ResolutionSession* s) {
        const std::vector<Lit>& guards =
            s->instantiation().guard_assumptions();
        const int64_t solves = s->solver_stats().assumption_solves;
        const bool v = s->CheckValidity().valid;
        EXPECT_EQ(v, FullSearchValid(s->cnf(), guards)) << kind << " " << i;
        // Retired guards keep the live formula Horn.
        EXPECT_EQ(s->solver_stats().assumption_solves, solves)
            << kind << " " << i;
        valid += v ? 1 : 0;
      });
    }
  }
  EXPECT_GT(valid, 20);
}

TEST(HornFastPathTest, SessionValidityAfterContradictingAnswer) {
  // Two tuples and the CFD A=a1 -> B=b1. Answering A=a1 and B=b2 makes
  // a1 current, so b1 must be too: Se becomes invalid.
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
  auto session = ResolutionSession::Create(se);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->CheckValidity().valid);
  const VarMap& vm = session->instantiation().varmap;
  const DeducedOrders od = session->Deduce();
  session->MakeSuggestion(CandidateValues(vm, od),
                          ExtractTrueValueIndices(vm, od));
  auto delta = MakeAnswerDelta(
      session->spec(), {{0, Value::Str("a1")}, {1, Value::Str("b2")}});
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(session->ExtendWith(*delta).ok());
  const int64_t solves = session->solver_stats().assumption_solves;
  EXPECT_FALSE(session->CheckValidity().valid);
  EXPECT_FALSE(FullSearchValid(session->cnf(),
                               session->instantiation().guard_assumptions()));
  EXPECT_EQ(session->solver_stats().assumption_solves, solves);
}

// --- (b) append-only Deduce index -------------------------------------

bool SameOrders(const DeducedOrders& x, const DeducedOrders& y) {
  if (x.per_attr.size() != y.per_attr.size()) return false;
  for (size_t a = 0; a < x.per_attr.size(); ++a) {
    if (x.per_attr[a].Pairs() != y.per_attr[a].Pairs()) return false;
  }
  return true;
}

TEST(HornFastPathTest, KeptDeduceScratchMatchesFreshAcrossRounds) {
  Rng rng(0xded0ce);
  DeduceOptions strict;
  strict.paper_negative_units = false;
  strict.totality_propagation = false;
  int calls = 0;
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = SmallCorpus(kind);
    // One scratch per mode, shared by every entity and round of the
    // corpus: each session's formula must replace the previous index.
    DeduceScratch kept_paper, kept_strict;
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      DriveSession(ds, static_cast<int>(i), &rng, [&](ResolutionSession* s) {
        const Instantiation& inst = s->instantiation();
        const std::vector<Lit>& guards = inst.guard_assumptions();
        const DeducedOrders fresh = DeduceOrder(inst, s->cnf(), {}, guards);
        EXPECT_TRUE(SameOrders(
            DeduceOrder(inst, s->cnf(), {}, guards, &kept_paper), fresh))
            << kind << " " << i;
        EXPECT_TRUE(SameOrders(DeduceOrder(inst, s->cnf(), strict, guards,
                                           &kept_strict),
                               DeduceOrder(inst, s->cnf(), strict, guards)))
            << kind << " " << i;
        EXPECT_TRUE(SameOrders(s->Deduce(), fresh)) << kind << " " << i;
        ++calls;
      });
    }
  }
  EXPECT_GT(calls, 30);
}

TEST(HornFastPathTest, DeduceScratchIsRecycledAcrossClearCopyAndMove) {
  const Dataset ds = SmallCorpus("person");
  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  std::vector<std::pair<int, Instantiation>> sized;
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    auto inst = Instantiation::Build(ds.MakeSpec(static_cast<int>(i)),
                                     guarded);
    ASSERT_TRUE(inst.ok());
    sized.emplace_back(BuildCnf(*inst).Materialized().num_clauses(),
                       std::move(inst).value());
  }
  // Smallest formula first: a stale index that only "appended the delta"
  // of a larger formula would go wrong, not merely rebuild.
  std::sort(sized.begin(), sized.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<Instantiation> insts;
  for (auto& [size, inst] : sized) insts.push_back(std::move(inst));
  ASSERT_GE(insts.size(), 4u);
  const auto expect_fresh = [](const Instantiation& inst, const Cnf& cnf,
                               DeduceScratch* kept, const char* what) {
    const std::vector<Lit>& guards = inst.guard_assumptions();
    EXPECT_TRUE(SameOrders(DeduceOrder(inst, cnf, {}, guards, kept),
                           DeduceOrder(inst, cnf, {}, guards)))
        << what;
  };

  DeduceScratch kept;
  Cnf cnf = BuildCnf(insts[0]);
  const uint64_t id0 = cnf.identity();
  expect_fresh(insts[0], cnf, &kept, "first build");
  cnf.AddClause({Lit::Pos(0), Lit::Neg(0)});  // appends keep the identity
  EXPECT_EQ(cnf.identity(), id0);

  cnf.Clear();
  EXPECT_NE(cnf.identity(), id0);
  BuildCnfInto(insts[1], &cnf);
  expect_fresh(insts[1], cnf, &kept, "after Clear");

  const Cnf other = BuildCnf(insts[2]);
  cnf = other;  // copy-assign over the indexed formula
  EXPECT_NE(cnf.identity(), other.identity());
  expect_fresh(insts[2], cnf, &kept, "after copy-assign");

  Cnf copy(cnf);
  EXPECT_NE(copy.identity(), cnf.identity());
  expect_fresh(insts[2], copy, &kept, "copy-constructed");
  expect_fresh(insts[2], cnf, &kept, "re-indexed");

  Cnf bigger = BuildCnf(insts[3]);
  const uint64_t bigger_id = bigger.identity();
  cnf = std::move(bigger);  // move-assign over the indexed formula
  EXPECT_NE(cnf.identity(), bigger_id);
  EXPECT_EQ(bigger.num_clauses(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_NE(bigger.identity(), bigger_id);
  expect_fresh(insts[3], cnf, &kept, "after move-assign");

  Cnf moved(std::move(cnf));
  expect_fresh(insts[3], moved, &kept, "move-constructed");
}

// --- (c) batched feed ---------------------------------------------------

// Random clauses that exercise every normalization case: duplicate
// literals, tautologies, units in mid-batch (whose propagation fixes
// literals of later clauses at level 0), and now and then the empty
// clause.
Cnf FeedCnf(Rng* rng, int n_vars, int n_clauses, bool with_empty) {
  Cnf cnf;
  cnf.EnsureVars(n_vars);
  std::vector<Lit> clause;
  for (int c = 0; c < n_clauses; ++c) {
    clause.clear();
    const int len = 1 + static_cast<int>(rng->Below(4));
    for (int k = 0; k < len; ++k) {
      clause.push_back(
          Lit(static_cast<Var>(rng->Below(n_vars)), rng->Chance(0.5)));
    }
    if (rng->Chance(0.15)) clause.push_back(clause[0]);   // duplicate
    if (rng->Chance(0.05)) clause.push_back(~clause[0]);  // tautology
    cnf.AddClause(clause);
    if (with_empty && c == n_clauses / 2) cnf.AddClause({});
  }
  return cnf;
}

void ExpectSameSolverState(Solver* x, Solver* y, const std::string& what) {
  EXPECT_EQ(x->IsUnsatForever(), y->IsUnsatForever()) << what;
  EXPECT_EQ(x->num_vars(), y->num_vars()) << what;
  EXPECT_EQ(x->arena_words(), y->arena_words()) << what;
  const SolveResult rx = x->Solve();
  ASSERT_EQ(rx, y->Solve()) << what;
  if (rx == SolveResult::kSat) {
    for (Var v = 0; v < x->num_vars(); ++v) {
      ASSERT_EQ(x->ModelValue(v), y->ModelValue(v)) << what << " var " << v;
    }
  }
  const sat::SolverStats& sx = x->stats();
  const sat::SolverStats& sy = y->stats();
  EXPECT_EQ(sx.conflicts, sy.conflicts) << what;
  EXPECT_EQ(sx.decisions, sy.decisions) << what;
  EXPECT_EQ(sx.propagations, sy.propagations) << what;
  EXPECT_EQ(sx.binary_propagations, sy.binary_propagations) << what;
  EXPECT_EQ(sx.restarts, sy.restarts) << what;
  EXPECT_EQ(sx.learnt_literals, sy.learnt_literals) << what;
  EXPECT_EQ(sx.model_cache_hits, sy.model_cache_hits) << what;
}

TEST(HornFastPathTest, AddCnfFromMatchesPerClauseAddClause) {
  Rng rng(0xfeed);
  SolverOptions occur;
  occur.use_inprocessing = true;  // the occurrence index is fed too
  int unsat = 0;
  for (int round = 0; round < 300; ++round) {
    const SolverOptions opts = round % 3 == 2 ? occur : SolverOptions{};
    const int n_vars = 4 + static_cast<int>(rng.Below(12));
    const Cnf cnf = FeedCnf(&rng, n_vars, 4 + static_cast<int>(rng.Below(40)),
                            /*with_empty=*/round % 10 == 9);
    Solver batched(opts), single(opts);
    // Both start from a level-0 fact, so some later literals arrive
    // already true or false.
    const Lit fact(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5));
    batched.AddClause({fact});
    single.AddClause({fact});
    // A prefix, a solve (which caches a model), then the appended rest,
    // which must invalidate that model — the session's feed pattern. The
    // per-clause side is the feed AddCnfFrom replaced: grow to the
    // formula's variable count, then one AddClause per clause.
    const int split = cnf.num_clauses() / 3;
    const Cnf head = Prefix(cnf, split);
    for (const int from : {0, split}) {
      const Cnf& fed = from == 0 ? head : cnf;
      batched.AddCnfFrom(fed, from);
      while (single.num_vars() < fed.num_vars()) single.NewVar();
      for (int i = from; i < fed.num_clauses(); ++i) {
        const std::span<const Lit> c = fed.clause(i);
        single.AddClause(std::vector<Lit>(c.begin(), c.end()));
      }
      if (from == 0) {
        ASSERT_EQ(batched.Solve(), single.Solve());
      }
    }
    ExpectSameSolverState(&batched, &single, "round " + std::to_string(round));
    if (batched.IsUnsatForever()) ++unsat;
  }
  EXPECT_GT(unsat, 10);
}

// --- (d) Φ(Se) is Horn, so the fast path is taken ----------------------

TEST(HornFastPathTest, PhiIsHornAndSessionsNeverSearchForValidity) {
  Rng rng(0xc0de);
  int checks = 0;
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = SmallCorpus(kind);
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      DriveSession(ds, static_cast<int>(i), &rng, [&](ResolutionSession* s) {
        // Φ(Se) as built and extended so far, nothing else, with the
        // order blocks' transitivity axioms as explicit clauses.
        Solver fed;
        fed.AddCnf(s->cnf().Materialized());
        EXPECT_TRUE(fed.ProblemIsHorn()) << kind << " " << i;
        const int64_t solves = s->solver_stats().assumption_solves;
        const ValidityResult v = s->CheckValidity();
        EXPECT_EQ(s->solver_stats().assumption_solves, solves)
            << kind << " " << i;
        EXPECT_EQ(v.solver_conflicts, 0) << kind << " " << i;
        ++checks;
      });
    }
  }
  EXPECT_GT(checks, 30);
}

}  // namespace
}  // namespace ccr
