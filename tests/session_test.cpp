// Tests for the encode-once/solve-many pipeline (src/core/session.h):
// the session engine must be indistinguishable from a from-scratch
// per-round rebuild, across generators, multi-round oracle runs, the
// invalid-answer path, and the incremental/rebuild extension split.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "paper_fixture.h"
#include "src/core/deduce.h"
#include "src/core/session.h"
#include "src/data/career_generator.h"
#include "src/data/dataset.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"

namespace ccr {
namespace {

using testing::GeorgeSpec;
using testing::PaperSchema;

void ExpectSameResult(const ResolveResult& a, const ResolveResult& b,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.rounds_used, b.rounds_used);
  ASSERT_EQ(a.true_values.size(), b.true_values.size());
  for (size_t i = 0; i < a.true_values.size(); ++i) {
    EXPECT_EQ(a.true_values[i], b.true_values[i]) << "attr " << i;
  }
  EXPECT_EQ(a.resolved, b.resolved);
  EXPECT_EQ(a.user_provided, b.user_provided);
  ASSERT_EQ(a.round_values.size(), b.round_values.size());
  for (size_t k = 0; k < a.round_values.size(); ++k) {
    for (size_t i = 0; i < a.round_values[k].size(); ++i) {
      EXPECT_EQ(a.round_values[k][i], b.round_values[k][i])
          << "round " << k << " attr " << i;
    }
    EXPECT_EQ(a.round_resolved[k], b.round_resolved[k]) << "round " << k;
  }
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t k = 0; k < a.trace.size(); ++k) {
    EXPECT_EQ(a.trace[k].round, b.trace[k].round);
    EXPECT_EQ(a.trace[k].resolved_attrs, b.trace[k].resolved_attrs);
  }
}

// With selector-guarded CFDs every session delta is append-only: the
// session engine must never rebuild, while the legacy engine rebuilds
// once per round by definition.
void ExpectSessionNeverRebuilds(const ResolveResult& session_result,
                                const ResolveResult& legacy_result) {
  for (const RoundTrace& t : session_result.trace) {
    EXPECT_EQ(t.num_rebuilds, 0) << "session round " << t.round;
  }
  for (const RoundTrace& t : legacy_result.trace) {
    EXPECT_EQ(t.num_rebuilds, 1) << "legacy round " << t.round;
  }
}

// Resolves every entity of `ds` through both engines and demands
// identical results. answers_per_round = 1 forces several interaction
// rounds, exercising repeated incremental extension.
void ExpectEquivalenceOnDataset(const Dataset& ds, int max_rounds,
                                int answers_per_round) {
  for (size_t e = 0; e < ds.entities.size(); ++e) {
    ResolveOptions session_opts;
    session_opts.max_rounds = max_rounds;
    session_opts.use_session = true;
    ResolveOptions legacy_opts = session_opts;
    legacy_opts.use_session = false;

    TruthOracle session_oracle(ds.entities[e].truth, answers_per_round);
    TruthOracle legacy_oracle(ds.entities[e].truth, answers_per_round);
    auto with_session =
        Resolve(ds.MakeSpec(static_cast<int>(e)), &session_oracle,
                session_opts);
    auto with_legacy = Resolve(ds.MakeSpec(static_cast<int>(e)),
                               &legacy_oracle, legacy_opts);
    ASSERT_EQ(with_session.ok(), with_legacy.ok());
    if (!with_session.ok()) continue;
    ExpectSameResult(*with_session, *with_legacy,
                     ds.name + " entity " + std::to_string(e));
    ExpectSessionNeverRebuilds(*with_session, *with_legacy);

    // No-oracle (fully automatic) pass as well.
    auto auto_session =
        Resolve(ds.MakeSpec(static_cast<int>(e)), nullptr, session_opts);
    auto auto_legacy =
        Resolve(ds.MakeSpec(static_cast<int>(e)), nullptr, legacy_opts);
    ASSERT_TRUE(auto_session.ok());
    ASSERT_TRUE(auto_legacy.ok());
    ExpectSameResult(*auto_session, *auto_legacy,
                     ds.name + " entity " + std::to_string(e) + " (auto)");
  }
}

TEST(SessionEquivalenceTest, NbaMultiRound) {
  NbaOptions opts;
  opts.num_entities = 12;
  opts.max_tuples = 60;
  ExpectEquivalenceOnDataset(GenerateNba(opts), /*max_rounds=*/3,
                             /*answers_per_round=*/1);
}

TEST(SessionEquivalenceTest, CareerMultiRound) {
  CareerOptions opts;
  opts.num_entities = 10;
  opts.max_tuples = 60;
  ExpectEquivalenceOnDataset(GenerateCareer(opts), /*max_rounds=*/3,
                             /*answers_per_round=*/1);
}

TEST(SessionEquivalenceTest, PersonMultiRound) {
  PersonOptions opts;
  opts.num_entities = 8;
  opts.min_tuples = 8;
  opts.max_tuples = 48;
  ExpectEquivalenceOnDataset(GeneratePerson(opts), /*max_rounds=*/3,
                             /*answers_per_round=*/1);
}

TEST(SessionEquivalenceTest, PaperExampleMultiAnswerRounds) {
  // The George example with generous answers resolves in one round; with
  // one answer per round it takes several — run both widths.
  const Schema s = PaperSchema();
  std::vector<Value> truth(s.size(), Value::Null());
  truth[s.IndexOf("status")] = Value::Str("retired");
  for (int per_round : {1, 100}) {
    ResolveOptions session_opts;
    session_opts.use_session = true;
    ResolveOptions legacy_opts = session_opts;
    legacy_opts.use_session = false;
    TruthOracle o1(truth, per_round), o2(truth, per_round);
    auto a = Resolve(GeorgeSpec(), &o1, session_opts);
    auto b = Resolve(GeorgeSpec(), &o2, legacy_opts);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameResult(*a, *b,
                     "george per_round=" + std::to_string(per_round));
  }
}

// Oracle answering its fixed script for *every* scripted attribute, even
// ones the suggestion did not ask for (users may volunteer values) — used
// to push the session into the invalid-answer branch.
class ScriptedOracle : public UserOracle {
 public:
  explicit ScriptedOracle(std::vector<Value> values)
      : values_(std::move(values)) {}

  std::vector<Answer> Provide(const Specification&, const Suggestion&,
                              const VarMap&) override {
    if (answered_) return {};
    answered_ = true;
    std::vector<Answer> out;
    for (size_t attr = 0; attr < values_.size(); ++attr) {
      if (!values_[attr].is_null()) {
        out.push_back({static_cast<int>(attr), values_[attr]});
      }
    }
    return out;
  }

 private:
  std::vector<Value> values_;
  bool answered_ = false;
};

// A two-attribute spec with a CFD A=a1 -> B=b1 and no currency orders.
Specification CfdSpec() {
  Schema schema = Schema::Make({"A", "B"}).value();
  EntityInstance e(schema, "cfd-entity");
  EXPECT_TRUE(
      e.Add(Tuple({Value::Str("a1"), Value::Str("b1")})).ok());
  EXPECT_TRUE(
      e.Add(Tuple({Value::Str("a2"), Value::Str("b2")})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  EXPECT_TRUE(se.SetRules({}, {ConstantCfd(std::vector<std::pair<int, Value>>{
                                               {0, Value::Str("a1")}},
                                           1, Value::Str("b1"))})
                  .ok());
  return se;
}

TEST(SessionEquivalenceTest, InvalidAnswerPathMatchesLegacy) {
  // Answering A=a1 and B=b2 contradicts the CFD (a1 current forces b1
  // current): the extended specification is invalid and both engines must
  // report the same partial result.
  std::vector<Value> script = {Value::Str("a1"), Value::Str("b2")};
  ResolveOptions session_opts;
  session_opts.use_session = true;
  ResolveOptions legacy_opts = session_opts;
  legacy_opts.use_session = false;

  ScriptedOracle o1(script), o2(script);
  auto a = Resolve(CfdSpec(), &o1, session_opts);
  auto b = Resolve(CfdSpec(), &o2, legacy_opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Round 0 is valid-but-incomplete; the answers make round 1 invalid.
  EXPECT_FALSE(a->complete);
  EXPECT_TRUE(a->valid);
  ASSERT_EQ(a->trace.size(), 2u);
  ExpectSameResult(*a, *b, "invalid answer");
}

TEST(ResolutionSessionTest, InDomainAnswerTakesIncrementalPath) {
  auto session = ResolutionSession::Create(CfdSpec());
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->CheckValidity().valid);

  // t_o answers A = a2 (already in the domain): append-only extension.
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("a2"), Value::Null()}));
  ot.orders.emplace_back(0, 0, 2);
  ot.orders.emplace_back(0, 1, 2);
  ASSERT_TRUE(session->ExtendWith(ot).ok());
  EXPECT_EQ(session->incremental_extensions(), 1);
  EXPECT_EQ(session->rebuilds(), 0);
  EXPECT_TRUE(session->CheckValidity().valid);
}

TEST(ResolutionSessionTest, NewCfdLhsValueExtendsIncrementally) {
  auto session = ResolutionSession::Create(CfdSpec());
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->CheckValidity().valid);

  // t_o carries a *new* value for A — the LHS attribute of the grounded
  // CFD — which strengthens the CFD's rule bodies. The guarded grounding
  // retires the old rule version's guard and appends re-grounded guarded
  // rules: append-only, no rebuild.
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("a3"), Value::Null()}));
  ot.orders.emplace_back(0, 0, 2);
  ot.orders.emplace_back(0, 1, 2);
  ASSERT_TRUE(session->ExtendWith(ot).ok());
  EXPECT_EQ(session->incremental_extensions(), 1);
  EXPECT_EQ(session->rebuilds(), 0);
  EXPECT_TRUE(session->CheckValidity().valid);

  // The extended session deduces exactly what a from-scratch grounding of
  // the extended specification deduces.
  auto direct = Extend(CfdSpec(), ot);
  ASSERT_TRUE(direct.ok());
  auto fresh = Instantiation::Build(*direct);
  ASSERT_TRUE(fresh.ok());
  const sat::Cnf fresh_cnf = BuildCnf(*fresh);
  EXPECT_TRUE(IsValidCnf(fresh_cnf).valid);
  const DeducedOrders od_fresh = DeduceOrder(*fresh, fresh_cnf);
  const DeducedOrders od_session = session->Deduce();
  EXPECT_EQ(od_fresh.CountPairs(), od_session.CountPairs());
  const std::vector<int> true_fresh =
      ExtractTrueValueIndices(fresh->varmap, od_fresh);
  const std::vector<int> true_sess = ExtractTrueValueIndices(
      session->instantiation().varmap, od_session);
  ASSERT_EQ(true_fresh.size(), true_sess.size());
  for (size_t a = 0; a < true_fresh.size(); ++a) {
    const Value vf = true_fresh[a] >= 0
                         ? fresh->varmap.domain(static_cast<int>(a))
                               [true_fresh[a]]
                         : Value::Null();
    const Value vs =
        true_sess[a] >= 0
            ? session->instantiation().varmap.domain(
                  static_cast<int>(a))[true_sess[a]]
            : Value::Null();
    EXPECT_EQ(vf, vs) << "attr " << a;
  }

  // A second LHS extension retires the re-grounded version again and
  // stays correct — the guard chain is unbounded.
  PartialTemporalOrder ot2;
  ot2.new_tuples.push_back(Tuple({Value::Str("a4"), Value::Null()}));
  for (int t = 0; t < 3; ++t) ot2.orders.emplace_back(0, t, 3);
  ASSERT_TRUE(session->ExtendWith(ot2).ok());
  EXPECT_EQ(session->incremental_extensions(), 2);
  EXPECT_EQ(session->rebuilds(), 0);
  EXPECT_TRUE(session->CheckValidity().valid);
}

TEST(ResolutionSessionTest, NewNonCfdValueStaysIncremental) {
  // A new value in B (the CFD's RHS attribute, not its LHS) only *adds*
  // competing-value rules — still append-only.
  auto session = ResolutionSession::Create(CfdSpec());
  ASSERT_TRUE(session.ok());
  const int vars_before = session->instantiation().varmap.num_vars();

  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Null(), Value::Str("b3")}));
  ot.orders.emplace_back(1, 0, 2);
  ot.orders.emplace_back(1, 1, 2);
  ASSERT_TRUE(session->ExtendWith(ot).ok());
  EXPECT_EQ(session->incremental_extensions(), 1);
  EXPECT_EQ(session->rebuilds(), 0);
  // The new value grew the variable universe append-only and counts as
  // an active-domain value.
  EXPECT_GT(session->instantiation().varmap.num_vars(), vars_before);
  EXPECT_EQ(session->instantiation().varmap.active_domain_size(1), 3);
  EXPECT_TRUE(session->CheckValidity().valid);

  // Deduction on the extended session agrees with a fresh encoding.
  auto direct = Extend(CfdSpec(), ot);
  ASSERT_TRUE(direct.ok());
  auto fresh = Instantiation::Build(*direct);
  ASSERT_TRUE(fresh.ok());
  const sat::Cnf fresh_cnf = BuildCnf(*fresh);
  const DeducedOrders od_fresh = DeduceOrder(*fresh, fresh_cnf);
  const DeducedOrders od_session = session->Deduce();
  EXPECT_EQ(od_fresh.CountPairs(), od_session.CountPairs());
}

// The deduced orders as (attribute, less value, more value) strings, so
// sessions whose domains number values differently still compare.
std::vector<std::string> DeducedValuePairs(const ResolutionSession& session,
                                           const DeducedOrders& od) {
  const VarMap& vm = session.instantiation().varmap;
  std::vector<std::string> out;
  for (size_t a = 0; a < od.per_attr.size(); ++a) {
    for (const auto& [less, more] : od.per_attr[a].Pairs()) {
      const auto& domain = vm.domain(static_cast<int>(a));
      out.push_back(std::to_string(a) + ": " + domain[less].ToString() +
                    " < " + domain[more].ToString());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ResolutionSessionTest, RejectedDeltaLeavesTheSessionUnchanged) {
  // ExtendWith extends the specification's temporal instance in place. A
  // delta that Extend rejects — an order pair naming a tuple that does
  // not exist — must leave the tuples, Σ, Γ and deductions as they were.
  PersonOptions opts;
  opts.num_entities = 1;
  opts.min_tuples = 30;
  opts.max_tuples = 30;
  const Dataset ds = GeneratePerson(opts);
  const Specification se = ds.MakeSpec(0);
  auto session = ResolutionSession::Create(se);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->CheckValidity().valid);
  const std::vector<std::string> before =
      DeducedValuePairs(*session, session->Deduce());
  ASSERT_FALSE(before.empty());
  const std::string spec_before = session->spec().ToString();

  const int n = se.instance().size();
  auto bad = MakeAnswerDelta(se, {{0, ds.entities[0].truth[0]}});
  ASSERT_TRUE(bad.ok());
  bad->orders.emplace_back(0, 0, n + 5);
  EXPECT_FALSE(session->ExtendWith(*bad).ok());
  EXPECT_EQ(session->spec().instance().size(), n);
  EXPECT_EQ(session->spec().sigma().size(), se.sigma().size());
  EXPECT_EQ(session->spec().gamma().size(), se.gamma().size());
  EXPECT_EQ(session->spec().ToString(), spec_before);
  EXPECT_EQ(session->incremental_extensions(), 0);
  ASSERT_TRUE(session->CheckValidity().valid);
  EXPECT_EQ(DeducedValuePairs(*session, session->Deduce()), before);

  // A valid delta afterwards deduces what a fresh session on the extended
  // specification deduces.
  auto good = MakeAnswerDelta(se, {{0, ds.entities[0].truth[0]},
                                   {2, ds.entities[0].truth[2]}});
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(session->ExtendWith(*good).ok());
  EXPECT_EQ(session->spec().instance().size(), n + 1);
  auto extended = Extend(se, *good);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(session->spec().ToString(), extended->ToString());
  auto fresh = ResolutionSession::Create(*extended);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(session->CheckValidity().valid, fresh->CheckValidity().valid);
  const std::vector<std::string> after =
      DeducedValuePairs(*session, session->Deduce());
  EXPECT_EQ(after, DeducedValuePairs(*fresh, fresh->Deduce()));
  EXPECT_GE(after.size(), before.size());
}

TEST(ResolutionSessionTest, AnswersDoNotSweepTheWholeSolver) {
  // Each answer adds a tuple and a few order pairs; after it the solver
  // propagates the new facts but sweeps only once propagation work, or
  // the satisfied clauses held round after round, have paid for a pass
  // over the arena. Three answers on a person entity never get there.
  PersonOptions opts;
  opts.num_entities = 1;
  opts.min_tuples = 60;
  opts.max_tuples = 60;
  const Dataset ds = GeneratePerson(opts);
  const Specification se = ds.MakeSpec(0);
  const std::vector<Value>& truth = ds.entities[0].truth;
  auto session = ResolutionSession::Create(se);
  ASSERT_TRUE(session.ok());
  int answers = 0;
  for (int a = 0; a < se.schema().size() && answers < 3; ++a) {
    if (truth[a].is_null()) continue;
    ASSERT_TRUE(session->CheckValidity().valid);
    (void)session->Deduce();
    auto delta = MakeAnswerDelta(session->spec(), {{a, truth[a]}});
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(session->ExtendWith(*delta).ok());
    ++answers;
  }
  ASSERT_EQ(answers, 3);
  EXPECT_EQ(session->incremental_extensions(), 3);
  EXPECT_EQ(session->solver_stats().sweeps, 0);
  // Unswept, the session still answers as a fresh one on the same
  // specification does.
  auto fresh = ResolutionSession::Create(session->spec());
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(session->CheckValidity().valid, fresh->CheckValidity().valid);
  EXPECT_EQ(DeducedValuePairs(*session, session->Deduce()),
            DeducedValuePairs(*fresh, fresh->Deduce()));
}

TEST(ResolutionSessionTest, LongSessionsStillSweepAndCollect) {
  // A long-lived session fed truth answers round after round: its
  // searches propagate far less than the arena holds, so the propagation
  // rule alone would never sweep, but the clauses the answers satisfy
  // are held round after round until they have cost a sweep — which then
  // detaches them, and the collector reclaims their words.
  PersonOptions opts;
  opts.num_entities = 1;
  opts.min_tuples = 60;
  opts.max_tuples = 60;
  const Dataset ds = GeneratePerson(opts);
  const Specification se = ds.MakeSpec(0);
  const std::vector<Value>& truth = ds.entities[0].truth;
  ResolveOptions ropts;
  ropts.naive_deduce = true;
  ropts.solver.gc_frac = 0.10;
  auto session = ResolutionSession::Create(se, ropts);
  ASSERT_TRUE(session.ok());
  const int n_attrs = se.schema().size();
  for (int r = 0; r < 4 * n_attrs; ++r) {
    const int a = r % n_attrs;
    if (truth[a].is_null()) continue;
    auto delta = MakeAnswerDelta(session->spec(), {{a, truth[a]}});
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(session->ExtendWith(*delta).ok());
    ASSERT_TRUE(session->CheckValidity().valid);
  }
  const sat::Solver& solver = session->solver();
  EXPECT_GE(solver.stats().sweeps, 1);
  EXPECT_GE(solver.stats().gc_runs, 1);
  EXPECT_GT(solver.stats().gc_reclaimed_words, 0);
  EXPECT_LT(solver.arena_words(), solver.arena_peak_words());
  auto fresh = ResolutionSession::Create(session->spec(), ropts);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(DeducedValuePairs(*session, session->Deduce()),
            DeducedValuePairs(*fresh, fresh->Deduce()));
}

TEST(ResolutionSessionTest, NaiveDeduceSharesSessionSolver) {
  ResolveOptions opts;
  opts.naive_deduce = true;
  auto session = ResolutionSession::Create(GeorgeSpec(), opts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->CheckValidity().valid);
  const DeducedOrders od_shared = session->Deduce();

  auto inst = Instantiation::Build(GeorgeSpec());
  ASSERT_TRUE(inst.ok());
  const sat::Cnf phi = BuildCnf(*inst);
  const DeducedOrders od_fresh = NaiveDeduce(*inst, phi);
  EXPECT_EQ(od_shared.CountPairs(), od_fresh.CountPairs());
}

TEST(SessionScratchTest, ScratchBackedResolveMatchesOwnedAllocations) {
  // Cross-entity pooling: resolving a stream of entities through ONE
  // scratch must give bit-identical results to scratch-free sessions —
  // Solver::Reset restores the exact fresh state, only the allocations
  // stay warm.
  PersonOptions opts;
  opts.num_entities = 8;
  opts.min_tuples = 8;
  opts.max_tuples = 48;
  const Dataset ds = GeneratePerson(opts);

  SessionScratch scratch;
  for (size_t e = 0; e < ds.entities.size(); ++e) {
    ResolveOptions pooled_opts;
    pooled_opts.max_rounds = 3;
    pooled_opts.scratch = &scratch;
    ResolveOptions owned_opts = pooled_opts;
    owned_opts.scratch = nullptr;

    TruthOracle pooled_oracle(ds.entities[e].truth, /*answers_per_round=*/1);
    TruthOracle owned_oracle(ds.entities[e].truth, /*answers_per_round=*/1);
    auto pooled = Resolve(ds.MakeSpec(static_cast<int>(e)), &pooled_oracle,
                          pooled_opts);
    auto owned = Resolve(ds.MakeSpec(static_cast<int>(e)), &owned_oracle,
                         owned_opts);
    ASSERT_EQ(pooled.ok(), owned.ok());
    if (!pooled.ok()) continue;
    ExpectSameResult(*pooled, *owned,
                     "scratch entity " + std::to_string(e));
  }
  // Entity 2..N reused entity 1's solver instead of allocating.
  EXPECT_GE(scratch.solver_reuses(),
            static_cast<int64_t>(ds.entities.size()) - 1);
}

TEST(SessionScratchTest, LhsGrowthWithScratchStaysIncremental) {
  // The formerly rebuild-only delta (new value in a grounded CFD's LHS)
  // must extend in place on a scratch-backed session — the scratch solver
  // is acquired exactly once at Create, never re-acquired mid-session —
  // and the next session through the same scratch recycles it warm.
  ResolveOptions opts;
  SessionScratch scratch;
  opts.scratch = &scratch;
  {
    auto session = ResolutionSession::Create(CfdSpec(), opts);
    ASSERT_TRUE(session.ok());
    EXPECT_TRUE(session->CheckValidity().valid);

    PartialTemporalOrder ot;
    ot.new_tuples.push_back(Tuple({Value::Str("a3"), Value::Null()}));
    ot.orders.emplace_back(0, 0, 2);
    ot.orders.emplace_back(0, 1, 2);
    ASSERT_TRUE(session->ExtendWith(ot).ok());
    EXPECT_EQ(session->rebuilds(), 0);
    EXPECT_EQ(session->incremental_extensions(), 1);
    EXPECT_EQ(scratch.solver_reuses(), 0);  // one acquisition, at Create
    EXPECT_TRUE(session->CheckValidity().valid);
  }
  // Entity 2 through the same scratch: warm solver, identical behavior.
  auto session2 = ResolutionSession::Create(CfdSpec(), opts);
  ASSERT_TRUE(session2.ok());
  EXPECT_EQ(scratch.solver_reuses(), 1);
  EXPECT_TRUE(session2->CheckValidity().valid);
}

// --- Suggest bit-identity across engines --------------------------------
//
// The session computes GetSug as assumption-based incremental MaxSAT on
// its persistent solver; the reference path re-grounds, re-encodes and
// runs the one-shot Suggest on a fresh solver. Canonical MaxSAT extraction
// makes the two agree exactly. Domains may be *permuted* between an
// extended VarMap and a rebuilt one (appended values land after CFD
// constants), so candidate sets are compared as value sets, not index
// lists.

std::vector<Value> MappedSorted(const VarMap& vm, int attr,
                                const std::vector<int>& indices) {
  std::vector<Value> out;
  out.reserve(indices.size());
  for (int i : indices) out.push_back(vm.domain(attr)[i]);
  std::sort(out.begin(), out.end(),
            [](const Value& x, const Value& y) { return x.Compare(y) < 0; });
  return out;
}

void ExpectSameSuggestion(const Suggestion& a, const VarMap& va,
                          const Suggestion& b, const VarMap& vb,
                          const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(a.attrs, b.attrs);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(MappedSorted(va, a.attrs[i], a.candidates[i]),
              MappedSorted(vb, b.attrs[i], b.candidates[i]))
        << "candidates for attr " << a.attrs[i];
  }
  EXPECT_EQ(a.derivable_attrs, b.derivable_attrs);
  ASSERT_EQ(a.clique_rules.size(), b.clique_rules.size());
  for (size_t i = 0; i < a.clique_rules.size(); ++i) {
    const DerivationRule& ra = a.clique_rules[i];
    const DerivationRule& rb = b.clique_rules[i];
    EXPECT_EQ(ra.rhs_attr, rb.rhs_attr);
    EXPECT_EQ(va.domain(ra.rhs_attr)[ra.rhs_value],
              vb.domain(rb.rhs_attr)[rb.rhs_value]);
    ASSERT_EQ(ra.lhs.size(), rb.lhs.size());
    for (size_t j = 0; j < ra.lhs.size(); ++j) {
      EXPECT_EQ(ra.lhs[j].first, rb.lhs[j].first);
      EXPECT_EQ(va.domain(ra.lhs[j].first)[ra.lhs[j].second],
                vb.domain(rb.lhs[j].first)[rb.lhs[j].second]);
    }
  }
}

void ExpectSuggestEquivalenceOnDataset(const Dataset& ds, int max_rounds) {
  for (size_t e = 0; e < ds.entities.size(); ++e) {
    auto session = ResolutionSession::Create(ds.MakeSpec(static_cast<int>(e)));
    ASSERT_TRUE(session.ok());
    Specification legacy_spec = ds.MakeSpec(static_cast<int>(e));
    const std::vector<Value>& truth = ds.entities[e].truth;
    const int n_attrs = legacy_spec.schema().size();
    for (int round = 0; round <= max_rounds; ++round) {
      if (!session->CheckValidity().valid) break;

      const DeducedOrders od_s = session->Deduce();
      const VarMap& vm_s = session->instantiation().varmap;
      const Suggestion sug_s = session->MakeSuggestion(
          CandidateValues(vm_s, od_s), ExtractTrueValueIndices(vm_s, od_s));

      auto fresh = Instantiation::Build(legacy_spec);
      ASSERT_TRUE(fresh.ok());
      const sat::Cnf phi = BuildCnf(*fresh);
      const DeducedOrders od_f = DeduceOrder(*fresh, phi);
      const Suggestion sug_f =
          Suggest(*fresh, phi, CandidateValues(fresh->varmap, od_f),
                  ExtractTrueValueIndices(fresh->varmap, od_f));

      ExpectSameSuggestion(sug_s, vm_s, sug_f, fresh->varmap,
                           ds.name + " entity " + std::to_string(e) +
                               " round " + std::to_string(round));

      // Answer the first suggested attribute with a known ground truth,
      // as a dominating user tuple t_o; extend both paths identically.
      int pick = -1;
      for (int a : sug_f.attrs) {
        if (!truth[a].is_null()) {
          pick = a;
          break;
        }
      }
      if (pick < 0) break;
      PartialTemporalOrder ot;
      Tuple to(std::vector<Value>(n_attrs, Value::Null()));
      to[pick] = truth[pick];
      const int to_index = legacy_spec.instance().size();
      ot.new_tuples.push_back(std::move(to));
      for (int t = 0; t < to_index; ++t) {
        ot.orders.emplace_back(pick, t, to_index);
      }
      ASSERT_TRUE(session->ExtendWith(ot).ok());
      auto extended = Extend(legacy_spec, ot);
      ASSERT_TRUE(extended.ok());
      legacy_spec = *std::move(extended);
    }
    EXPECT_EQ(session->rebuilds(), 0);
  }
}

TEST(SessionSuggestEquivalenceTest, NbaMultiRound) {
  NbaOptions opts;
  opts.num_entities = 6;
  opts.max_tuples = 40;
  ExpectSuggestEquivalenceOnDataset(GenerateNba(opts), /*max_rounds=*/3);
}

TEST(SessionSuggestEquivalenceTest, CareerMultiRound) {
  CareerOptions opts;
  opts.num_entities = 5;
  opts.max_tuples = 40;
  ExpectSuggestEquivalenceOnDataset(GenerateCareer(opts), /*max_rounds=*/3);
}

TEST(SessionSuggestEquivalenceTest, PersonMultiRound) {
  PersonOptions opts;
  opts.num_entities = 5;
  opts.min_tuples = 8;
  opts.max_tuples = 32;
  ExpectSuggestEquivalenceOnDataset(GeneratePerson(opts), /*max_rounds=*/3);
}

TEST(ResolutionSessionTest, AssumptionSolvesAreCounted) {
  // Guarded CFD sessions query the solver under assumptions; the counter
  // must reflect every solve so RoundTrace attribution works. Over the
  // Horn formula validity, Deduce and GetSug are all decided by
  // propagation under the guards, with no solve at all.
  auto session = ResolutionSession::Create(CfdSpec());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->assumption_solves(), 0);
  EXPECT_TRUE(session->CheckValidity().valid);
  EXPECT_EQ(session->assumption_solves(), 0);
  const VarMap& vm = session->instantiation().varmap;
  const DeducedOrders od = session->Deduce();
  const Suggestion sug = session->MakeSuggestion(
      CandidateValues(vm, od), ExtractTrueValueIndices(vm, od));
  EXPECT_FALSE(sug.attrs.empty());
  EXPECT_FALSE(sug.clique_rules.empty());  // GetSug had rules to check
  EXPECT_EQ(session->assumption_solves(), 0);
  EXPECT_GT(session->solver_stats().suggest_probes, 0);
  // The per-pair Lemma-6 loop still solves, under the same guards.
  const Instantiation& inst = session->instantiation();
  (void)Lemma6DeduceShared(inst, session->mutable_solver(),
                           inst.guard_assumptions());
  EXPECT_GT(session->assumption_solves(), 0);  // guarded solves
}

TEST(ResolutionSessionTest, ValidityConflictsArePerCallDelta) {
  auto session = ResolutionSession::Create(GeorgeSpec());
  ASSERT_TRUE(session.ok());
  const ValidityResult first = session->CheckValidity();
  // A second check on the same solver must not accumulate the first
  // call's conflicts into its own count.
  const ValidityResult second = session->CheckValidity();
  EXPECT_TRUE(first.valid);
  EXPECT_TRUE(second.valid);
  EXPECT_GE(first.solver_conflicts, 0);
  EXPECT_LE(second.solver_conflicts, first.solver_conflicts + 1);
}

}  // namespace
}  // namespace ccr
