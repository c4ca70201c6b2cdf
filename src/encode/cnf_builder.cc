#include "src/encode/cnf_builder.h"

#include <span>
#include <vector>

namespace ccr {

namespace {

// Where the encoding pass writes Φ: a sat::Cnf, for the consumers that
// read a materialized formula, or straight into a solver. A sink takes
// the variable count, each attribute's order block at its current size
// (x_ij given by a function), and clauses. A clause comes as an emitter:
// `emit(add)` hands its literals to `add` one at a time, and stops early
// once `add` returns false (the solver has found the clause satisfied).
class CnfSink {
 public:
  explicit CnfSink(sat::Cnf* cnf) : cnf_(cnf) {}
  void EnsureVars(int n) { cnf_->EnsureVars(n); }
  // Block a is attribute a's: a fresh formula gets every attribute's
  // block in attribute order, and an extension grows them.
  template <class VarFn>
  void OrderBlock(int a, int size, VarFn var) {
    if (a == cnf_->num_order_blocks()) cnf_->AddOrderBlock();
    cnf_->GrowOrderBlock(a, size, var);
  }
  template <class EmitFn>
  void Clause(EmitFn emit) {
    lits_.clear();
    emit([&](sat::Lit l) {
      lits_.push_back(l);
      return true;
    });
    cnf_->AddClause(lits_);
  }

 private:
  sat::Cnf* cnf_;
  std::vector<sat::Lit> lits_;
};

class SolverSink {
 public:
  explicit SolverSink(sat::Solver* solver) : solver_(solver) {}
  void EnsureVars(int n) { solver_->EnsureVars(n); }
  template <class VarFn>
  void OrderBlock(int, int size, VarFn var) {
    solver_->SyncOrderBlock(size, var);
  }
  template <class EmitFn>
  void Clause(EmitFn emit) {
    solver_->FeedClauseFrom(emit);
  }

 private:
  sat::Solver* solver_;
};

// The clause of one ground constraint (b1 ∧ ... ∧ bk → h):
// (¬b1 ∨ ... ∨ ¬bk ∨ h), without h for a false head, literal by literal.
// A guarded constraint (CFD rules under guarded grounding) is emitted as
// (¬guard ∨ clause): it binds only while its guard is assumed true, and
// retiring the guard (unit ¬guard) permanently deactivates it without
// retracting anything.
template <class AddFn>
void ConstraintClause(const Instantiation& inst, const GroundConstraint& gc,
                      AddFn&& add) {
  const VarMap& vm = inst.varmap;
  if (gc.guard != sat::kVarUndef && !add(sat::Lit::Neg(gc.guard))) return;
  for (const OrderAtom& atom : inst.body(gc)) {
    if (!add(sat::Lit::Neg(vm.VarOf(atom)))) return;
  }
  if (gc.head_kind == GroundHead::kAtom) add(sat::Lit::Pos(vm.VarOf(gc.head)));
}

// The asymmetry of ≺ on attribute a's values i and j: ¬x_ij ∨ ¬x_ji.
template <class Sink>
void AsymmetryBinary(const VarMap& vm, int a, int i, int j, Sink* sink) {
  sink->Clause([&](auto add) {
    add(sat::Lit::Neg(vm.VarOf(a, i, j))) &&
        add(sat::Lit::Neg(vm.VarOf(a, j, i)));
  });
}

// The one encoding pass: all of Φ(Se) when `delta` is null, else exactly
// what Φ(Se ⊕ Ot) gains from the Instantiation::ExtendWith call that
// returned `delta`. Order blocks come first, so the level-0 units among
// the clauses already propagate through them in a solver; then the
// retired guards' units, the ground constraints' clauses and the
// asymmetry binaries, in that order.
template <class Sink>
void EncodePhi(const Instantiation& inst, const InstantiationDelta* delta,
               Sink* sink) {
  const VarMap& vm = inst.varmap;
  sink->EnsureVars(vm.num_vars());

  // Transitivity: one implicit order block per attribute, over its whole
  // domain; an extension adds the grown attributes' new rows and columns.
  for (int a = 0; a < vm.num_attrs(); ++a) {
    sink->OrderBlock(a, static_cast<int>(vm.domain(a).size()),
                     [&](int i, int j) { return vm.VarOf(a, i, j); });
  }

  // Retired CFD guards: each unit permanently satisfies every clause of
  // the invalidated rule version, before the re-grounded replacements
  // (guarded by fresh selectors) are appended below.
  if (delta != nullptr) {
    for (const sat::Var g : delta->retired_guards) {
      sink->Clause([&](auto add) { add(sat::Lit::Neg(g)); });
    }
  }

  const int n_constraints = static_cast<int>(inst.constraints.size());
  for (int c = delta != nullptr ? delta->first_new_constraint : 0;
       c < n_constraints; ++c) {
    const GroundConstraint& gc = inst.constraints[c];
    sink->Clause([&](auto add) { ConstraintClause(inst, gc, add); });
  }

  // Asymmetry, for every pair of values or, in an extension, for the
  // pairs that touch a new value: O(d · Δ) per grown attribute.
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    if (delta == nullptr) {
      for (int i = 0; i < d; ++i) {
        for (int j = i + 1; j < d; ++j) AsymmetryBinary(vm, a, i, j, sink);
      }
    } else {
      for (int j = delta->old_domain_sizes[a]; j < d; ++j) {
        for (int i = 0; i < j; ++i) AsymmetryBinary(vm, a, i, j, sink);
      }
    }
  }
}

}  // namespace

sat::Cnf BuildCnf(const Instantiation& inst) {
  sat::Cnf cnf;
  BuildCnfInto(inst, &cnf);
  return cnf;
}

void BuildCnfInto(const Instantiation& inst, sat::Cnf* cnf) {
  cnf->Clear();
  CnfSink sink(cnf);
  EncodePhi(inst, nullptr, &sink);
}

void ExtendCnf(const Instantiation& inst, const InstantiationDelta& delta,
               sat::Cnf* cnf) {
  CnfSink sink(cnf);
  EncodePhi(inst, &delta, &sink);
}

void LoadSolver(const Instantiation& inst, sat::Solver* solver) {
  SolverSink sink(solver);
  EncodePhi(inst, nullptr, &sink);
}

void ExtendSolver(const Instantiation& inst, const InstantiationDelta& delta,
                  sat::Solver* solver) {
  SolverSink sink(solver);
  EncodePhi(inst, &delta, &sink);
}

}  // namespace ccr
