// Differential suite for GetSug by propagation (src/core/suggest.cc).
// GetSug keeps the largest subset of a clique of derivation rules whose
// atoms are consistent with Φ(Se) under the guards. On a Horn formula it
// is decided by propagation probes, tried by decreasing size and
// lexicographically greatest first; the kept set must equal the canonical
// optimum of IncrementalMaxSat (GetSugByMaxSat), soft for soft:
//   * on random Horn formulas with positive-unit softs under ± guard
//     assumptions, rules conflicting pairwise and with the formula;
//   * on live sessions of all three corpora on both deduce pipelines,
//     built and after each of three ExtendWith rounds, including
//     Person-naive calls that drop rules;
//   * on a formula with one non-Horn clause, where a quiet probe does not
//     mean feasible, and on a clique above kMaxPropagationClique — both
//     must take the MaxSAT fallback.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ccr.h"
#include "src/common/rng.h"
#include "src/core/session.h"
#include "src/graph/clique.h"

namespace ccr {
namespace {

using sat::Lit;
using sat::Solver;
using sat::Var;

// A random Horn clause over `n_vars`: two or three literals, all negative
// except possibly one. An all-negative clause is a conflict between its
// atoms.
std::vector<Lit> RandomHornClause(Rng* rng, int n_vars) {
  const int len = 2 + static_cast<int>(rng->Below(2));
  std::vector<Lit> clause;
  for (int k = 0; k < len; ++k) {
    clause.push_back(Lit::Neg(static_cast<Var>(rng->Below(n_vars))));
  }
  if (rng->Chance(0.6)) {
    const size_t k = rng->Below(clause.size());
    clause[k] = Lit::Pos(clause[k].var());
  }
  return clause;
}

// `n_rules` rules of one to three positive atoms each.
std::vector<std::vector<Lit>> RandomClique(Rng* rng, int n_vars,
                                           int n_rules) {
  std::vector<std::vector<Lit>> rules(n_rules);
  for (std::vector<Lit>& atoms : rules) {
    const int len = 1 + static_cast<int>(rng->Below(3));
    for (int k = 0; k < len; ++k) {
      atoms.push_back(Lit::Pos(static_cast<Var>(rng->Below(n_vars))));
    }
  }
  return rules;
}

// Whether propagating `guards` plus `atoms` stays conflict-free.
bool Quiet(Solver* s, const std::vector<Lit>& guards,
           const std::vector<Lit>& atoms) {
  std::vector<Lit> base = guards;
  base.insert(base.end(), atoms.begin(), atoms.end());
  if (!s->BeginProbe(base)) return false;
  s->EndProbe();
  return true;
}

int CountKept(const std::vector<bool>& kept) {
  int n = 0;
  for (const bool k : kept) n += k ? 1 : 0;
  return n;
}

// Random Horn formulas, each served back-to-back by one persistent
// solver per engine (the session usage pattern). The propagation kept
// set equals IncrementalMaxSat's on every clique, and the propagating
// solver never solves and never falls back.
TEST(GetSugPropagationTest, RandomHornFormulasMatchIncrementalMaxSat) {
  Rng rng(0x6E75);
  int dropping = 0, refuted = 0, pairwise = 0;
  for (int formula = 0; formula < 80; ++formula) {
    const int n_vars = 8 + static_cast<int>(rng.Below(8));
    const int n_clauses = 4 + static_cast<int>(rng.Below(14));
    Solver probing, reference;
    for (int v = 0; v < n_vars; ++v) {
      probing.NewVar();
      reference.NewVar();
    }
    for (int c = 0; c < n_clauses; ++c) {
      const std::vector<Lit> clause = RandomHornClause(&rng, n_vars);
      probing.AddClause(clause);
      reference.AddClause(clause);
    }
    ASSERT_TRUE(probing.ProblemIsHorn());
    for (int query = 0; query < 8; ++query) {
      std::vector<Lit> guards;
      const int n_guards = static_cast<int>(rng.Below(3));
      for (int k = 0; k < n_guards; ++k) {
        guards.push_back(
            Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)));
      }
      const int n_rules = 1 + static_cast<int>(rng.Below(6));
      const std::vector<std::vector<Lit>> rules =
          RandomClique(&rng, n_vars, n_rules);
      const std::vector<bool> got = GetSug(&probing, guards, rules);
      ASSERT_EQ(got, GetSugByMaxSat(&reference, guards, rules))
          << "formula " << formula << " query " << query;

      const int kept = CountKept(got);
      if (kept == n_rules) continue;
      ++dropping;
      if (!Quiet(&probing, guards, {})) {
        ++refuted;  // the guards alone contradict the formula
        continue;
      }
      // Every rule is consistent on its own, yet not all fit together.
      bool each_alone = true;
      for (const std::vector<Lit>& atoms : rules) {
        each_alone = each_alone && Quiet(&probing, guards, atoms);
      }
      if (each_alone) ++pairwise;
    }
    EXPECT_EQ(probing.stats().assumption_solves, 0) << "formula " << formula;
    EXPECT_EQ(probing.stats().suggest_fallbacks, 0) << "formula " << formula;
    EXPECT_GT(probing.stats().suggest_probes, 0) << "formula " << formula;
  }
  // The family exercises every branch: dropped rules, guards refuted
  // outright, and rules that conflict only with each other.
  EXPECT_GT(dropping, 200);
  EXPECT_GT(refuted, 10);
  EXPECT_GT(pairwise, 30);
}

// --- sessions ---------------------------------------------------------------

Dataset SessionCorpus(const std::string& kind) {
  if (kind == "nba") {
    NbaOptions o;
    o.num_entities = 12;
    o.min_tuples = 3;
    o.max_tuples = 10;
    o.seed = 0x6E1;
    return GenerateNba(o);
  }
  if (kind == "career") {
    CareerOptions o;
    o.num_entities = 12;
    o.min_tuples = 3;
    o.max_tuples = 10;
    o.seed = 0x6E2;
    return GenerateCareer(o);
  }
  PersonOptions o;
  o.num_entities = 24;
  o.min_tuples = 20;
  o.max_tuples = 60;
  o.seed = 0x6E3;
  return GeneratePerson(o);
}

// Suggest on a fresh solver holding the session's formula plus one
// independent clause with two positive literals: the formula is no longer
// Horn, so GetSug takes the IncrementalMaxSat fallback.
Suggestion ReferenceSuggest(const ResolutionSession& s,
                            const std::vector<std::vector<int>>& candidates,
                            const std::vector<int>& known_true,
                            int64_t* fallbacks) {
  Solver reference;
  reference.AddCnf(s.cnf());
  const Var p = reference.NewVar(), q = reference.NewVar();
  reference.AddClause({Lit::Pos(p), Lit::Pos(q)});
  const Suggestion out =
      SuggestOnSolver(s.instantiation(), &reference,
                      s.instantiation().guard_assumptions(), candidates,
                      known_true);
  *fallbacks += reference.stats().suggest_fallbacks;
  return out;
}

bool SameRules(const std::vector<DerivationRule>& a,
               const std::vector<DerivationRule>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].lhs != b[i].lhs || a[i].rhs_attr != b[i].rhs_attr ||
        a[i].rhs_value != b[i].rhs_value) {
      return false;
    }
  }
  return true;
}

// Each entity: Suggest after Create and after each of three ExtendWith
// rounds, where the user answers the first suggested attribute with its
// true value. Returns the number of calls whose clique lost a rule.
int ExpectSessionsMatchReference(const std::string& kind, bool naive,
                                 int* calls) {
  const Dataset ds = SessionCorpus(kind);
  ResolveOptions options;
  options.naive_deduce = naive;
  int dropping = 0;
  int64_t reference_fallbacks = 0;
  int reference_calls = 0;
  for (size_t e = 0; e < ds.entities.size(); ++e) {
    const std::vector<Value>& truth = ds.entities[e].truth;
    auto s = ResolutionSession::Create(ds.MakeSpec(static_cast<int>(e)),
                                       options);
    EXPECT_TRUE(s.ok());
    if (!s.ok()) return dropping;
    for (int round = 0; round <= 3; ++round) {
      const std::string where = kind + (naive ? " naive" : " fast") +
                                " entity " + std::to_string(e) + " round " +
                                std::to_string(round);
      if (!s->CheckValidity().valid) break;
      const Instantiation& inst = s->instantiation();
      const VarMap& vm = inst.varmap;
      const DeducedOrders od = s->Deduce();
      const std::vector<std::vector<int>> candidates =
          CandidateValues(vm, od);
      const std::vector<int> known_true = ExtractTrueValueIndices(vm, od);
      const Suggestion got = s->MakeSuggestion(candidates, known_true);
      const Suggestion want =
          ReferenceSuggest(*s, candidates, known_true, &reference_fallbacks);
      EXPECT_EQ(got.attrs, want.attrs) << where;
      EXPECT_EQ(got.candidates, want.candidates) << where;
      EXPECT_EQ(got.derivable_attrs, want.derivable_attrs) << where;
      EXPECT_TRUE(SameRules(got.clique_rules, want.clique_rules)) << where;
      ++*calls;
      const std::vector<DerivationRule> rules =
          TrueDer(inst, candidates, known_true);
      const size_t clique = graph::MaxClique(CompGraph(rules)).size();
      if (clique > 0) ++reference_calls;
      if (got.clique_rules.size() < clique) ++dropping;

      if (round == 3 || got.attrs.empty()) break;
      const int a = got.attrs[0];
      if (truth[a].is_null()) break;
      const int n_tuples = s->spec().instance().size();
      const int n_attrs = static_cast<int>(truth.size());
      PartialTemporalOrder ot;
      Tuple to(std::vector<Value>(n_attrs, Value::Null()));
      to[a] = truth[a];
      ot.new_tuples.push_back(std::move(to));
      for (int t = 0; t < n_tuples; ++t) ot.orders.emplace_back(a, t, n_tuples);
      EXPECT_TRUE(s->ExtendWith(ot).ok()) << where;
    }
    // The session decided every GetSug by propagation.
    EXPECT_EQ(s->solver_stats().suggest_fallbacks, 0) << kind << " " << e;
    EXPECT_EQ(s->assumption_solves(), 0) << kind << " " << e;
  }
  // The reference really ran the MaxSAT fallback on every non-empty clique.
  EXPECT_EQ(reference_fallbacks, reference_calls) << kind;
  return dropping;
}

TEST(GetSugPropagationTest, SessionsMatchIncrementalMaxSat) {
  int calls = 0;
  int person_naive_dropping = 0;
  for (const std::string kind : {"person", "nba", "career"}) {
    for (const bool naive : {false, true}) {
      const int dropping = ExpectSessionsMatchReference(kind, naive, &calls);
      if (kind == "person" && naive) person_naive_dropping = dropping;
    }
  }
  EXPECT_GT(calls, 150);
  // Person on the Lemma-6 pipeline produces cliques whose rules conflict
  // with Φ(Se): propagation must drop exactly the rules MaxSAT drops.
  EXPECT_GT(person_naive_dropping, 0);
}

// --- the fallback -----------------------------------------------------------

// Rule 0 asserts a, rule 1 asserts b. The clauses (¬a ∨ p ∨ q),
// (¬a ∨ p ∨ ¬q), (¬a ∨ ¬p ∨ q) and (¬a ∨ ¬p ∨ ¬q) — the first one not
// Horn — refute a, but propagating a leaves four open binaries and no
// conflict. A quiet probe therefore does not prove {a, b} feasible: GetSug
// must take the MaxSAT fallback and keep rule 1 alone.
TEST(GetSugPropagationTest, NonHornFormulaTakesTheFallback) {
  const auto load = [](Solver* s) {
    for (int v = 0; v < 4; ++v) s->NewVar();  // a, b, p, q
    for (const bool np : {false, true}) {
      for (const bool nq : {false, true}) {
        ASSERT_TRUE(s->AddClause({Lit::Neg(0), Lit(2, np), Lit(3, nq)}));
      }
    }
  };
  Solver solver, reference;
  load(&solver);
  load(&reference);
  ASSERT_FALSE(solver.ProblemIsHorn());
  const std::vector<std::vector<Lit>> rules = {{Lit::Pos(0)}, {Lit::Pos(1)}};
  ASSERT_TRUE(Quiet(&solver, {}, {Lit::Pos(0), Lit::Pos(1)}));

  const std::vector<bool> got = GetSug(&solver, {}, rules);
  EXPECT_EQ(got, (std::vector<bool>{false, true}));
  EXPECT_EQ(got, GetSugByMaxSat(&reference, {}, rules));
  EXPECT_EQ(solver.stats().suggest_fallbacks, 1);
  EXPECT_EQ(solver.stats().suggest_probes, 0);
  EXPECT_GT(solver.stats().assumption_solves, 0);
}

// A clique of kMaxPropagationClique + 1 rules over a Horn formula, some
// conflicting pairwise: too many kept sets to probe, so GetSug falls back
// to MaxSAT, with the same answer as the reference.
TEST(GetSugPropagationTest, OversizedCliqueTakesTheFallback) {
  const int n_rules = kMaxPropagationClique + 1;
  const auto load = [&](Solver* s) {
    for (int v = 0; v < n_rules; ++v) s->NewVar();
    // Rule 2k conflicts with rule 2k + 1.
    for (int v = 0; v + 1 < n_rules; v += 2) {
      ASSERT_TRUE(s->AddClause({Lit::Neg(v), Lit::Neg(v + 1)}));
    }
  };
  Solver solver, reference;
  load(&solver);
  load(&reference);
  ASSERT_TRUE(solver.ProblemIsHorn());
  std::vector<std::vector<Lit>> rules;
  for (int v = 0; v < n_rules; ++v) rules.push_back({Lit::Pos(v)});

  const std::vector<bool> got = GetSug(&solver, {}, rules);
  EXPECT_EQ(got, GetSugByMaxSat(&reference, {}, rules));
  EXPECT_EQ(CountKept(got), n_rules - n_rules / 2);
  EXPECT_EQ(solver.stats().suggest_fallbacks, 1);
  EXPECT_EQ(solver.stats().suggest_probes, 0);

  // One rule fewer fits the bound and is decided by propagation.
  rules.pop_back();
  Solver probing;
  load(&probing);
  EXPECT_EQ(GetSug(&probing, {}, rules),
            GetSugByMaxSat(&reference, {}, rules));
  EXPECT_EQ(probing.stats().suggest_fallbacks, 0);
  EXPECT_GT(probing.stats().suggest_probes, 0);
}

}  // namespace
}  // namespace ccr
