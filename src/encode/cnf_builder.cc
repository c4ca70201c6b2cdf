#include "src/encode/cnf_builder.h"

#include <vector>

#include "src/common/status.h"

namespace ccr {

namespace {

// Appends the clause for one ground constraint. A guarded constraint
// (CFD rules under guarded grounding) is emitted as (¬guard ∨ clause):
// it binds only while its guard is assumed true, and retiring the guard
// (unit ¬guard) permanently deactivates it without retracting anything.
void AddConstraintClause(const VarMap& vm, const GroundConstraint& gc,
                         std::vector<sat::Lit>* scratch, sat::Cnf* cnf) {
  scratch->clear();
  if (gc.guard != sat::kVarUndef) {
    scratch->push_back(sat::Lit::Neg(gc.guard));
  }
  for (const OrderAtom& atom : gc.body) {
    scratch->push_back(sat::Lit::Neg(vm.VarOf(atom)));
  }
  if (gc.head_kind == GroundHead::kAtom) {
    scratch->push_back(sat::Lit::Pos(vm.VarOf(gc.head)));
  }
  cnf->AddClause(std::span<const sat::Lit>(scratch->data(), scratch->size()));
}

// Φ(Se) is Horn: every clause has at most one positive literal. Rules
// carry one positive head (none for a false head) behind negated body
// atoms and guards, asymmetry clauses have none, transitivity one, and a
// retired guard is a negative unit. Checks clauses [first, end) of `cnf`.
[[maybe_unused]] bool ClausesAreHorn(const sat::Cnf& cnf, int first) {
  for (int c = first; c < cnf.num_clauses(); ++c) {
    int positive = 0;
    for (const sat::Lit l : cnf.clause(c)) positive += l.negated() ? 0 : 1;
    if (positive > 1) return false;
  }
  return true;
}

}  // namespace

sat::Cnf BuildCnf(const Instantiation& inst, const CnfBuildOptions& options) {
  sat::Cnf cnf;
  BuildCnfInto(inst, &cnf, options);
  return cnf;
}

void BuildCnfInto(const Instantiation& inst, sat::Cnf* out,
                  const CnfBuildOptions& options) {
  const VarMap& vm = inst.varmap;
  sat::Cnf& cnf = *out;
  cnf.Clear();
  cnf.EnsureVars(vm.num_vars());

  // Materialized ground constraints.
  std::vector<sat::Lit> clause;
  for (const GroundConstraint& gc : inst.constraints) {
    AddConstraintClause(vm, gc, &clause, &cnf);
  }

  // Structural axioms per attribute domain.
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    if (options.asymmetry) {
      for (int i = 0; i < d; ++i) {
        for (int j = i + 1; j < d; ++j) {
          cnf.AddBinary(sat::Lit::Neg(vm.VarOf(a, i, j)),
                        sat::Lit::Neg(vm.VarOf(a, j, i)));
        }
      }
    }
    if (options.transitivity) {
      for (int i = 0; i < d; ++i) {
        for (int j = 0; j < d; ++j) {
          if (j == i) continue;
          for (int k = 0; k < d; ++k) {
            if (k == i || k == j) continue;
            cnf.AddTernary(sat::Lit::Neg(vm.VarOf(a, i, j)),
                           sat::Lit::Neg(vm.VarOf(a, j, k)),
                           sat::Lit::Pos(vm.VarOf(a, i, k)));
          }
        }
      }
    }
  }
  CCR_DCHECK(ClausesAreHorn(cnf, 0));
}

void ExtendCnf(const Instantiation& inst, const InstantiationDelta& delta,
               sat::Cnf* cnf, const CnfBuildOptions& options) {
  const VarMap& vm = inst.varmap;
  [[maybe_unused]] const int first_clause = cnf->num_clauses();
  cnf->EnsureVars(vm.num_vars());

  // Retired CFD guards first: each unit permanently satisfies every clause
  // of the invalidated rule version, before the re-grounded replacements
  // (guarded by fresh selectors) are appended below.
  for (sat::Var g : delta.retired_guards) {
    cnf->AddUnit(sat::Lit::Neg(g));
  }

  // Clauses for the freshly grounded constraints.
  std::vector<sat::Lit> clause;
  const int n_constraints = static_cast<int>(inst.constraints.size());
  for (int c = delta.first_new_constraint; c < n_constraints; ++c) {
    AddConstraintClause(vm, inst.constraints[c], &clause, cnf);
  }

  // Structural axioms for atom pairs/triples touching a new domain value.
  // Costs O(d^2 · Δ) per grown attribute instead of the O(d^3) rebuild.
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d0 = delta.old_domain_sizes[a];
    const int d = static_cast<int>(vm.domain(a).size());
    if (d == d0) continue;
    if (options.asymmetry) {
      for (int j = d0; j < d; ++j) {
        for (int i = 0; i < j; ++i) {
          cnf->AddBinary(sat::Lit::Neg(vm.VarOf(a, i, j)),
                         sat::Lit::Neg(vm.VarOf(a, j, i)));
        }
      }
    }
    if (options.transitivity) {
      for (int i = 0; i < d; ++i) {
        for (int j = 0; j < d; ++j) {
          if (j == i) continue;
          // Old (i, j) pairs only need the new k range; any pair touching
          // a new value needs every k.
          const int k_begin = (i < d0 && j < d0) ? d0 : 0;
          for (int k = k_begin; k < d; ++k) {
            if (k == i || k == j) continue;
            cnf->AddTernary(sat::Lit::Neg(vm.VarOf(a, i, j)),
                            sat::Lit::Neg(vm.VarOf(a, j, k)),
                            sat::Lit::Pos(vm.VarOf(a, i, k)));
          }
        }
      }
    }
  }
  CCR_DCHECK(ClausesAreHorn(*cnf, first_clause));
}

}  // namespace ccr
