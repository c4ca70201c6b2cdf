#include "src/core/suggest.h"

#include <bit>
#include <cstdint>
#include <optional>

#include "src/graph/clique.h"

namespace ccr {

std::string Suggestion::ToString(const VarMap& vm,
                                 const Schema& schema) const {
  std::string out = "suggest A = {";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.name(attrs[i]) + " in {";
    for (size_t j = 0; j < candidates[i].size(); ++j) {
      if (j > 0) out += ", ";
      out += vm.domain(attrs[i])[candidates[i][j]].ToString();
    }
    out += "}";
  }
  out += "}; derivable A' = {";
  for (size_t i = 0; i < derivable_attrs.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.name(derivable_attrs[i]);
  }
  out += "}";
  return out;
}

namespace {

// GetSug by propagation. Φ(Se) plus the "selector → atom" clauses is Horn
// and the softs are positive unit selectors, so a kept set is feasible iff
// propagating the guards plus that set's atoms reaches no conflict, and a
// subset of a feasible set is feasible. Kept sets are tried by decreasing
// size and, within one size, lexicographically greatest first in soft
// order: bit n-1-i of `mask` stands for soft i, so a descending mask is
// exactly that order. The first quiet probe is therefore the canonical
// optimum IncrementalMaxSat's extraction returns. The empty set is tried
// last; if even the guards alone are refuted, nothing is kept.
std::vector<bool> GetSugByPropagation(
    sat::Solver* solver, std::span<const sat::Lit> assumptions,
    const std::vector<std::vector<sat::Lit>>& rule_atoms) {
  const int n = static_cast<int>(rule_atoms.size());
  std::vector<bool> kept(rule_atoms.size(), false);
  std::vector<sat::Lit> base;
  int64_t probes = 0;
  for (int size = n; size >= 0; --size) {
    for (uint32_t mask = 1u << n; mask-- > 0;) {
      if (std::popcount(mask) != size) continue;
      base.assign(assumptions.begin(), assumptions.end());
      for (int i = 0; i < n; ++i) {
        if ((mask >> (n - 1 - i)) & 1u) {
          base.insert(base.end(), rule_atoms[i].begin(), rule_atoms[i].end());
        }
      }
      ++probes;
      if (solver->BeginProbe(base)) {
        solver->EndProbe();
        for (int i = 0; i < n; ++i) kept[i] = (mask >> (n - 1 - i)) & 1u;
        solver->RecordSuggest(probes, /*fallback=*/false);
        return kept;
      }
    }
  }
  solver->RecordSuggest(probes, /*fallback=*/false);
  return kept;
}

}  // namespace

std::vector<bool> GetSugByMaxSat(
    sat::Solver* solver, std::span<const sat::Lit> assumptions,
    const std::vector<std::vector<sat::Lit>>& rule_atoms) {
  // Each rule gets a scoped selector implying its atoms; the softs
  // maximize kept rules. The scope dies with this call, so later rounds
  // on the same solver never see these selectors or clauses.
  sat::ScopedVars scope(solver);
  std::vector<sat::Lit> base(assumptions.begin(), assumptions.end());
  base.push_back(scope.activation());
  std::vector<std::vector<sat::Lit>> softs;
  softs.reserve(rule_atoms.size());
  for (const std::vector<sat::Lit>& atoms : rule_atoms) {
    const sat::Var sel = scope.NewVar();
    for (const sat::Lit atom : atoms) {
      scope.AddClause({sat::Lit::Neg(sel), atom});
    }
    softs.push_back({sat::Lit::Pos(sel)});
  }
  maxsat::IncrementalMaxSat max_sat(solver);
  const maxsat::MaxSatResult ms = max_sat.Solve(softs, base);
  if (!ms.hard_satisfiable) return std::vector<bool>(rule_atoms.size());
  // The MaxSAT result covers every soft positionally — anything less
  // would silently drop kept rules from the tail of the clique. A soft is
  // "kept" when it holds in the canonical optimum.
  CCR_CHECK(ms.soft_satisfied.size() == rule_atoms.size());
  return ms.soft_satisfied;
}

std::vector<bool> GetSug(sat::Solver* solver,
                         std::span<const sat::Lit> assumptions,
                         const std::vector<std::vector<sat::Lit>>& rule_atoms) {
  if (static_cast<int>(rule_atoms.size()) <= kMaxPropagationClique &&
      solver->ProblemIsHorn()) {
    return GetSugByPropagation(solver, assumptions, rule_atoms);
  }
  solver->RecordSuggest(/*probes=*/0, /*fallback=*/true);
  return GetSugByMaxSat(solver, assumptions, rule_atoms);
}

namespace {

// Shared Suggest implementation. `solver` already holds Φ(Se) (session
// path) or is null with `phi` supplied for lazy one-shot loading — the
// formula is only fed to a solver once a non-empty clique makes a GetSug
// call necessary at all.
Suggestion SuggestImpl(const Instantiation& inst, sat::Solver* solver,
                       const sat::Cnf* phi,
                       std::span<const sat::Lit> assumptions,
                       const std::vector<std::vector<int>>& candidates,
                       const std::vector<int>& known_true,
                       const SuggestOptions& options) {
  const VarMap& vm = inst.varmap;
  Suggestion out;

  // TrueDer + CompGraph + MaxClique (Fig. 7, lines 1-3).
  const std::vector<DerivationRule> rules =
      TrueDer(inst, candidates, known_true);
  const graph::Graph g = CompGraph(rules);
  const std::vector<int> clique = options.exact_clique
                                      ? graph::MaxClique(g)
                                      : graph::GreedyClique(g);

  // GetSug: find the maximal conflict-free subset C' of the clique. A
  // kept rule asserts that its premises and consequent hold as
  // most-current values: each dominates every other value of its
  // attribute.
  std::vector<int> kept;  // indices into `rules`
  if (!clique.empty()) {
    std::optional<sat::Solver> local;
    if (solver == nullptr) {
      local.emplace();
      local->AddCnf(*phi);
      solver = &*local;
    }
    std::vector<std::vector<sat::Lit>> rule_atoms;
    rule_atoms.reserve(clique.size());
    for (int node : clique) {
      const DerivationRule& rule = rules[node];
      std::vector<sat::Lit>& atoms = rule_atoms.emplace_back();
      auto assert_dominates = [&](int attr, int value_idx) {
        const int d = static_cast<int>(vm.domain(attr).size());
        for (int other = 0; other < d; ++other) {
          if (other == value_idx) continue;
          atoms.push_back(sat::Lit::Pos(vm.VarOf(attr, other, value_idx)));
        }
      };
      for (const auto& [attr, v] : rule.lhs) assert_dominates(attr, v);
      assert_dominates(rule.rhs_attr, rule.rhs_value);
    }
    const std::vector<bool> kept_rules =
        GetSug(solver, assumptions, rule_atoms);
    for (size_t i = 0; i < clique.size(); ++i) {
      if (kept_rules[i]) kept.push_back(clique[i]);
    }
  }

  // A' = consequents of C'; A = R \ (A' ∪ B).
  std::vector<bool> derivable(vm.num_attrs(), false);
  for (int node : kept) {
    derivable[rules[node].rhs_attr] = true;
    out.clique_rules.push_back(rules[node]);
  }
  for (int a = 0; a < vm.num_attrs(); ++a) {
    if (derivable[a]) out.derivable_attrs.push_back(a);
  }
  for (int a = 0; a < vm.num_attrs(); ++a) {
    if (known_true[a] >= 0) continue;   // B: already settled
    if (derivable[a]) continue;         // A': follows from C'
    if (vm.domain(a).empty()) continue; // no values at all: nothing to ask
    if (vm.domain(a).size() == 1) continue;  // trivially resolved
    out.attrs.push_back(a);
    out.candidates.push_back(candidates[a]);
  }
  // Degenerate case: every unresolved attribute is a consequent of the
  // clique, yet the entity is not resolved — the clique's premises are
  // assumed candidate values, so its derivations may not actually fire
  // under propagation. Fall back to asking the unresolved attributes
  // directly; the framework loop is then guaranteed to make progress.
  if (out.attrs.empty()) {
    for (int a = 0; a < vm.num_attrs(); ++a) {
      if (known_true[a] >= 0 || vm.domain(a).size() <= 1) continue;
      out.attrs.push_back(a);
      out.candidates.push_back(candidates[a]);
    }
  }
  return out;
}

}  // namespace

Suggestion Suggest(const Instantiation& inst, const sat::Cnf& phi,
                   const std::vector<std::vector<int>>& candidates,
                   const std::vector<int>& known_true,
                   const SuggestOptions& options) {
  return SuggestImpl(inst, /*solver=*/nullptr, &phi, {}, candidates,
                     known_true, options);
}

Suggestion SuggestOnSolver(const Instantiation& inst, sat::Solver* solver,
                           std::span<const sat::Lit> assumptions,
                           const std::vector<std::vector<int>>& candidates,
                           const std::vector<int>& known_true,
                           const SuggestOptions& options) {
  return SuggestImpl(inst, solver, /*phi=*/nullptr, assumptions, candidates,
                     known_true, options);
}

}  // namespace ccr
