#include "src/core/suggest.h"

#include <cstdint>
#include <optional>
#include <utility>

#include "src/common/pooled.h"

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

// GetSug's exact search. Φ(Se) plus the "selector → atom" clauses is Horn
// and the softs are positive unit selectors, so a kept set is feasible iff
// propagating the guards plus that set's atoms reaches no conflict
// (Dowling & Gallier 1984), and a subset of a feasible set is feasible.
// The search decides rule i before rule i+1, trying "keep" before "drop",
// so it meets kept sets in lexicographically decreasing order; a branch
// is pruned when its kept count plus the rules left cannot beat the best
// set found, so the first largest set it finds is the canonical one.
// One probe is kept open on guards ∪ the kept atoms and extended by each
// rule kept; it is reopened only when a refutation closed it or a "drop"
// branch needs a smaller set. The search runs only when a first probe on
// the whole clique is refuted, so a feasible clique costs that one probe
// (with the atoms and the guards propagated together, as one base).
class KeptSetSearch {
 public:
  KeptSetSearch(sat::Solver* solver, std::span<const sat::Lit> assumptions,
                SuggestScratch* s)
      : solver_(solver),
        assumptions_(assumptions),
        atoms_(s->atoms),
        begin_(s->atom_begin),
        n_(static_cast<int>(s->atom_begin.size()) - 1),
        kept_(s->kept),
        best_(s->best),
        base_(s->base) {
    kept_.assign(n_, false);
    best_.assign(n_, false);
  }

  void Run() {
    // A clique is usually feasible whole: one probe on all of its atoms
    // decides it.
    kept_.assign(kept_.size(), true);
    if (Reopen(n_)) {
      solver_->EndProbe();
      best_ = kept_;
    } else if (n_ > 0) {
      kept_.assign(kept_.size(), false);
      // The guards alone refuted: nothing can be kept.
      if (Reopen(0)) {
        Visit(0, 0);
        if (open_) solver_->EndProbe();
      }
    }
    solver_->RecordSuggest(probes_);
  }

 private:
  // The atoms rule i asserts.
  std::span<const sat::Lit> Atoms(int i) const {
    return std::span<const sat::Lit>(atoms_).subspan(
        begin_[i], begin_[i + 1] - begin_[i]);
  }

  // Opens a probe on the guards plus the atoms of the kept rules before
  // rule `i`. Inside the search those rules were kept on a probe that
  // stayed quiet, so only the probe on the guards alone can be refuted.
  bool Reopen(int i) {
    base_.assign(assumptions_.begin(), assumptions_.end());
    for (int j = 0; j < i; ++j) {
      if (kept_[j]) base_.insert(base_.end(), Atoms(j).begin(), Atoms(j).end());
    }
    ++probes_;
    open_ = solver_->BeginProbe(base_);
    return open_;
  }

  // Decides rules i.. with `count` rules kept so far. On entry the probe
  // holds exactly the kept rules before i when `open_` is set.
  void Visit(int i, int count) {
    if (i == n_) {
      if (count > best_count_) {
        best_ = kept_;
        best_count_ = count;
      }
      return;
    }
    if (count + (n_ - i) > best_count_) {
      if (!open_) CCR_CHECK(Reopen(i));
      open_ = solver_->ProbeExtend(Atoms(i));
      if (open_) {
        kept_[i] = true;
        Visit(i + 1, count + 1);
        kept_[i] = false;
        // The probe now holds rule i's atoms (and perhaps later ones).
        if (open_) solver_->EndProbe();
        open_ = false;
      }
    }
    if (count + (n_ - i - 1) > best_count_) Visit(i + 1, count);
  }

  sat::Solver* solver_;
  std::span<const sat::Lit> assumptions_;
  const std::vector<sat::Lit>& atoms_;
  const std::vector<int>& begin_;
  const int n_;
  std::vector<bool>& kept_;
  std::vector<bool>& best_;
  std::vector<sat::Lit>& base_;
  int best_count_ = -1;
  bool open_ = false;  // a probe is open and holds exactly the kept rules
  int64_t probes_ = 0;
};

}  // namespace

std::vector<bool> GetSug(sat::Solver* solver,
                         std::span<const sat::Lit> assumptions,
                         const std::vector<std::vector<sat::Lit>>& rule_atoms) {
  SuggestScratch scratch;
  scratch.atom_begin.assign(1, 0);
  for (const std::vector<sat::Lit>& atoms : rule_atoms) {
    scratch.atoms.insert(scratch.atoms.end(), atoms.begin(), atoms.end());
    scratch.atom_begin.push_back(static_cast<int>(scratch.atoms.size()));
  }
  GetSug(solver, assumptions, &scratch);
  return std::move(scratch.best);
}

const std::vector<bool>& GetSug(sat::Solver* solver,
                                std::span<const sat::Lit> assumptions,
                                SuggestScratch* scratch) {
  CCR_CHECK(solver->ProblemIsHorn());
  KeptSetSearch(solver, assumptions, scratch).Run();
  return scratch->best;
}

namespace {

// Shared Suggest implementation, refilling `out` on `s`'s buffers.
// `solver` already holds Φ(Se) (session path) or is null with `phi`
// supplied for lazy one-shot loading — the formula is only fed to a
// solver once a non-empty clique makes a GetSug call necessary at all.
void SuggestImpl(const Instantiation& inst, sat::Solver* solver,
                 const sat::Cnf* phi, std::span<const sat::Lit> assumptions,
                 const std::vector<std::vector<int>>& candidates,
                 const std::vector<int>& known_true,
                 const SuggestOptions& options, SuggestScratch* s,
                 Suggestion* out) {
  const VarMap& vm = inst.varmap;

  // TrueDer + CompGraph + MaxClique (Fig. 7, lines 1-3).
  const std::vector<DerivationRule>& rules =
      TrueDer(inst, candidates, known_true, &s->derivation);
  const graph::Graph& g = CompGraph(rules, &s->derivation);
  const std::vector<int>& clique = options.exact_clique
                                       ? graph::MaxClique(g, &s->clique)
                                       : graph::GreedyClique(g, &s->clique);

  // GetSug: find the maximal conflict-free subset C' of the clique. A
  // kept rule asserts that its premises and consequent hold as
  // most-current values: each dominates every other value of its
  // attribute.
  std::vector<int>& kept = s->kept_rules;  // indices into `rules`
  kept.clear();
  if (!clique.empty()) {
    std::optional<sat::Solver> local;
    if (solver == nullptr) {
      local.emplace();
      local->AddCnf(*phi);
      solver = &*local;
    }
    s->atoms.clear();
    s->atom_begin.assign(1, 0);
    auto assert_dominates = [&](int attr, int value_idx) {
      const int d = static_cast<int>(vm.domain(attr).size());
      for (int other = 0; other < d; ++other) {
        if (other == value_idx) continue;
        s->atoms.push_back(sat::Lit::Pos(vm.VarOf(attr, other, value_idx)));
      }
    };
    for (int node : clique) {
      const DerivationRule& rule = rules[node];
      for (const auto& [attr, v] : rule.lhs) assert_dominates(attr, v);
      assert_dominates(rule.rhs_attr, rule.rhs_value);
      s->atom_begin.push_back(static_cast<int>(s->atoms.size()));
    }
    const std::vector<bool>& kept_rules = GetSug(solver, assumptions, s);
    for (size_t i = 0; i < clique.size(); ++i) {
      if (kept_rules[i]) kept.push_back(clique[i]);
    }
  }

  // A' = consequents of C'; A = R \ (A' ∪ B).
  out->attrs.clear();
  out->derivable_attrs.clear();
  PooledResize(&out->candidates, 0, &s->spare_candidates);
  PooledResize(&out->clique_rules, 0, &s->spare_clique_rules);
  const auto ask = [&](int a) {
    out->attrs.push_back(a);
    PooledAppend(&out->candidates, &s->spare_candidates) = candidates[a];
  };
  std::vector<uint8_t>& derivable = s->derivable;
  derivable.assign(vm.num_attrs(), 0);
  for (int node : kept) {
    derivable[rules[node].rhs_attr] = 1;
    PooledAppend(&out->clique_rules, &s->spare_clique_rules) = rules[node];
  }
  for (int a = 0; a < vm.num_attrs(); ++a) {
    if (derivable[a]) out->derivable_attrs.push_back(a);
  }
  for (int a = 0; a < vm.num_attrs(); ++a) {
    if (known_true[a] >= 0) continue;   // B: already settled
    if (derivable[a]) continue;         // A': follows from C'
    if (vm.domain(a).empty()) continue; // no values at all: nothing to ask
    if (vm.domain(a).size() == 1) continue;  // trivially resolved
    ask(a);
  }
  // Degenerate case: every unresolved attribute is a consequent of the
  // clique, yet the entity is not resolved — the clique's premises are
  // assumed candidate values, so its derivations may not actually fire
  // under propagation. Fall back to asking the unresolved attributes
  // directly; the framework loop is then guaranteed to make progress.
  if (out->attrs.empty()) {
    for (int a = 0; a < vm.num_attrs(); ++a) {
      if (known_true[a] >= 0 || vm.domain(a).size() <= 1) continue;
      ask(a);
    }
  }
}

}  // namespace

Suggestion Suggest(const Instantiation& inst, const sat::Cnf& phi,
                   const std::vector<std::vector<int>>& candidates,
                   const std::vector<int>& known_true,
                   const SuggestOptions& options) {
  SuggestScratch scratch;
  Suggestion out;
  SuggestImpl(inst, /*solver=*/nullptr, &phi, {}, candidates, known_true,
              options, &scratch, &out);
  return out;
}

Suggestion SuggestOnSolver(const Instantiation& inst, sat::Solver* solver,
                           std::span<const sat::Lit> assumptions,
                           const std::vector<std::vector<int>>& candidates,
                           const std::vector<int>& known_true,
                           const SuggestOptions& options) {
  SuggestScratch scratch;
  Suggestion out;
  SuggestOnSolver(inst, solver, assumptions, candidates, known_true, options,
                  &scratch, &out);
  return out;
}

void SuggestOnSolver(const Instantiation& inst, sat::Solver* solver,
                     std::span<const sat::Lit> assumptions,
                     const std::vector<std::vector<int>>& candidates,
                     const std::vector<int>& known_true,
                     const SuggestOptions& options, SuggestScratch* scratch,
                     Suggestion* out) {
  SuggestImpl(inst, solver, /*phi=*/nullptr, assumptions, candidates,
              known_true, options, scratch, out);
}

}  // namespace ccr
