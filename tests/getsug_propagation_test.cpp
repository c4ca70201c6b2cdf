// Differential suite for GetSug (src/core/suggest.cc). GetSug keeps the
// largest subset of a clique of derivation rules whose atoms are
// consistent with Φ(Se) under the guards, lexicographically greatest in
// clique order among the largest. It searches kept sets over propagation
// probes. The reference below decides every subset of the clique by a
// CDCL solve under guards ∪ atoms instead, and takes the canonical
// optimum; the two must agree rule for rule:
//   * on random Horn formulas with positive-unit rules under ± guard
//     assumptions, cliques of 0-12 rules conflicting pairwise and with the
//     formula;
//   * on live sessions of all three corpora on both deduce pipelines,
//     built and after each of three ExtendWith rounds, including
//     Person-naive calls that drop rules.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

// GetSug's answer without probes: every subset of the rules is decided by
// a CDCL solve under guards ∪ its atoms, and the answer is the largest
// satisfiable subset, lexicographically greatest in rule order among the
// largest (all false when the guards alone are unsatisfiable). Bit
// n-1-i of a mask stands for rule i, so a greater mask of the same size
// is lexicographically greater. Also checks that the satisfiable subsets
// are closed under subsets, the property GetSug's pruning rests on.
std::vector<bool> ReferenceGetSug(Solver* solver,
                                  const std::vector<Lit>& guards,
                                  const std::vector<std::vector<Lit>>& rules) {
  const int n = static_cast<int>(rules.size());
  std::vector<bool> feasible(size_t{1} << n);
  uint32_t best = 0;
  int best_size = -1;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<Lit> assumptions = guards;
    for (int i = 0; i < n; ++i) {
      if ((mask >> (n - 1 - i)) & 1u) {
        assumptions.insert(assumptions.end(), rules[i].begin(),
                           rules[i].end());
      }
    }
    feasible[mask] =
        solver->SolveWithAssumptions(assumptions) == sat::SolveResult::kSat;
    if (!feasible[mask]) continue;
    // Any subset misses one of mask's bits; the ones one bit smaller
    // (already decided: smaller masks) suffice by induction.
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) {
        EXPECT_TRUE(feasible[mask & ~(1u << i)]);
      }
    }
    const int size = std::popcount(mask);
    if (size > best_size || (size == best_size && mask > best)) {
      best = mask;
      best_size = size;
    }
  }
  std::vector<bool> kept(rules.size(), false);
  for (int i = 0; i < n; ++i) kept[i] = (best >> (n - 1 - i)) & 1u;
  return kept;
}

// Random Horn formulas, each served back-to-back by one persistent
// solver per side (the session usage pattern). GetSug's kept set equals
// the reference's on every clique, the probing solver never solves, and
// a clique kept whole costs one probe.
TEST(GetSugPropagationTest, RandomHornFormulasMatchTheReference) {
  Rng rng(0x6E75);
  int dropping = 0, refuted = 0, pairwise = 0, large = 0;
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
      const int n_rules = static_cast<int>(rng.Below(13));
      if (n_rules > 8) ++large;
      const std::vector<std::vector<Lit>> rules =
          RandomClique(&rng, n_vars, n_rules);
      const int64_t probes_before = probing.stats().suggest_probes;
      const std::vector<bool> got = GetSug(&probing, guards, rules);
      ASSERT_EQ(got, ReferenceGetSug(&reference, guards, rules))
          << "formula " << formula << " query " << query;
      const int64_t probes = probing.stats().suggest_probes - probes_before;
      EXPECT_GE(probes, 1) << "formula " << formula << " query " << query;

      const int kept = CountKept(got);
      if (kept == n_rules) {
        EXPECT_EQ(probes, 1) << "formula " << formula << " query " << query;
        continue;
      }
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
  }
  // The family exercises every branch: dropped rules, guards refuted
  // outright, rules that conflict only with each other, and cliques above
  // the eight rules the search once stopped at.
  EXPECT_GT(dropping, 200);
  EXPECT_GT(refuted, 10);
  EXPECT_GT(pairwise, 30);
  EXPECT_GT(large, 100);
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

// The clique rules GetSug is asked about (as SuggestImpl builds them: each
// premise and the consequent dominating every other value of its
// attribute) and the rules the reference keeps of them, decided on a
// fresh solver holding the session's formula.
std::vector<DerivationRule> ReferenceKeptRules(
    const ResolutionSession& s, const std::vector<DerivationRule>& rules,
    const std::vector<int>& clique) {
  const VarMap& vm = s.instantiation().varmap;
  std::vector<std::vector<Lit>> rule_atoms;
  for (const int node : clique) {
    const DerivationRule& rule = rules[node];
    std::vector<Lit>& atoms = rule_atoms.emplace_back();
    auto dominates = [&](int attr, int value_idx) {
      const int d = static_cast<int>(vm.domain(attr).size());
      for (int other = 0; other < d; ++other) {
        if (other != value_idx) {
          atoms.push_back(Lit::Pos(vm.VarOf(attr, other, value_idx)));
        }
      }
    };
    for (const auto& [attr, v] : rule.lhs) dominates(attr, v);
    dominates(rule.rhs_attr, rule.rhs_value);
  }
  Solver reference;
  reference.AddCnf(BuildCnf(s.instantiation()));
  const std::span<const Lit> guards = s.instantiation().guard_assumptions();
  const std::vector<bool> kept = ReferenceGetSug(
      &reference, std::vector<Lit>(guards.begin(), guards.end()),
      rule_atoms);
  std::vector<DerivationRule> out;
  for (size_t i = 0; i < clique.size(); ++i) {
    if (kept[i]) out.push_back(rules[clique[i]]);
  }
  return out;
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
      const std::vector<DerivationRule> rules =
          TrueDer(inst, candidates, known_true);
      const std::vector<int> clique = graph::MaxClique(CompGraph(rules));
      EXPECT_TRUE(SameRules(got.clique_rules,
                            ReferenceKeptRules(*s, rules, clique)))
          << where;
      ++*calls;
      if (got.clique_rules.size() < clique.size()) ++dropping;

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
    EXPECT_EQ(s->solver_stats().assumption_solves, 0) << kind << " " << e;
  }
  return dropping;
}

TEST(GetSugPropagationTest, SessionsMatchTheReference) {
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
  // with Φ(Se): the search must drop exactly the rules the reference
  // drops.
  EXPECT_GT(person_naive_dropping, 0);
}

}  // namespace
}  // namespace ccr
