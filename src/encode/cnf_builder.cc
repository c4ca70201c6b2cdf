#include "src/encode/cnf_builder.h"

#include <vector>

namespace ccr {

namespace {

// Appends the clause for one ground constraint. A guarded constraint
// (CFD rules under guarded grounding) is emitted as (¬guard ∨ clause):
// it binds only while its guard is assumed true, and retiring the guard
// (unit ¬guard) permanently deactivates it without retracting anything.
void AddConstraintClause(const Instantiation& inst, const GroundConstraint& gc,
                         std::vector<sat::Lit>* scratch, sat::Cnf* cnf) {
  const VarMap& vm = inst.varmap;
  scratch->clear();
  if (gc.guard != sat::kVarUndef) {
    scratch->push_back(sat::Lit::Neg(gc.guard));
  }
  for (const OrderAtom& atom : inst.body(gc)) {
    scratch->push_back(sat::Lit::Neg(vm.VarOf(atom)));
  }
  if (gc.head_kind == GroundHead::kAtom) {
    scratch->push_back(sat::Lit::Pos(vm.VarOf(gc.head)));
  }
  cnf->AddClause(std::span<const sat::Lit>(scratch->data(), scratch->size()));
}

// Grows order block `a` (attribute a's) to the attribute's domain size and
// sets every entry with a row or column at or past `from`, the old size.
void FillOrderBlock(const VarMap& vm, int a, int from, sat::Cnf* cnf) {
  const int d = static_cast<int>(vm.domain(a).size());
  cnf->GrowOrderBlock(a, d);
  for (int i = 0; i < d; ++i) {
    for (int j = i < from ? from : 0; j < d; ++j) {
      if (j == i) continue;
      cnf->SetOrderVar(a, i, j, vm.VarOf(a, i, j));
    }
  }
}

}  // namespace

sat::Cnf BuildCnf(const Instantiation& inst) {
  sat::Cnf cnf;
  BuildCnfInto(inst, &cnf);
  return cnf;
}

void BuildCnfInto(const Instantiation& inst, sat::Cnf* out) {
  const VarMap& vm = inst.varmap;
  sat::Cnf& cnf = *out;
  cnf.Clear();
  cnf.EnsureVars(vm.num_vars());

  // Materialized ground constraints.
  std::vector<sat::Lit> clause;
  for (const GroundConstraint& gc : inst.constraints) {
    AddConstraintClause(inst, gc, &clause, &cnf);
  }

  // Structural axioms per attribute domain: asymmetry as explicit
  // binaries, transitivity as one implicit order block (block a is
  // attribute a's; ExtendCnf relies on that numbering).
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    for (int i = 0; i < d; ++i) {
      for (int j = i + 1; j < d; ++j) {
        cnf.AddBinary(sat::Lit::Neg(vm.VarOf(a, i, j)),
                      sat::Lit::Neg(vm.VarOf(a, j, i)));
      }
    }
    cnf.AddOrderBlock();
    FillOrderBlock(vm, a, 0, &cnf);
  }
}

void ExtendCnf(const Instantiation& inst, const InstantiationDelta& delta,
               sat::Cnf* cnf) {
  const VarMap& vm = inst.varmap;
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
    AddConstraintClause(inst, inst.constraints[c], &clause, cnf);
  }

  // Structural axioms for atom pairs touching a new domain value: the
  // asymmetry binaries, and the order block grown by the new rows and
  // columns. Costs O(d · Δ) per grown attribute.
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d0 = delta.old_domain_sizes[a];
    const int d = static_cast<int>(vm.domain(a).size());
    if (d == d0) continue;
    for (int j = d0; j < d; ++j) {
      for (int i = 0; i < j; ++i) {
        cnf->AddBinary(sat::Lit::Neg(vm.VarOf(a, i, j)),
                       sat::Lit::Neg(vm.VarOf(a, j, i)));
      }
    }
    FillOrderBlock(vm, a, d0, cnf);
  }
}

}  // namespace ccr
