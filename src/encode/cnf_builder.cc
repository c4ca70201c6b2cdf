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

// The clause of one ground constraint of families (1a) and (2),
// (b1 ∧ ... ∧ bk → h): (¬b1 ∨ ... ∨ ¬bk ∨ h), without h for a false head,
// literal by literal.
template <class AddFn>
void ConstraintClause(const Instantiation& inst, const GroundConstraint& gc,
                      AddFn&& add) {
  const VarMap& vm = inst.varmap;
  for (const OrderAtom& atom : inst.body(gc)) {
    if (!add(sat::Lit::Neg(vm.VarOf(atom)))) return;
  }
  if (gc.head_kind == GroundHead::kAtom) add(sat::Lit::Pos(vm.VarOf(gc.head)));
}

// The defining clause of a CFD version's atom t, (g ∧ ωX → t):
// (¬g ∨ ¬ωX ∨ t), without ¬g when the version is unguarded. A guard
// retired by a unit ¬g leaves t underivable, which deactivates every rule
// of the version without retracting anything.
template <class AddFn>
void DefinitionClause(const Instantiation& inst, const CfdVersion& ver,
                      AddFn&& add) {
  const VarMap& vm = inst.varmap;
  if (ver.guard != sat::kVarUndef && !add(sat::Lit::Neg(ver.guard))) return;
  for (const OrderAtom& atom : inst.body(ver)) {
    if (!add(sat::Lit::Neg(vm.VarOf(atom)))) return;
  }
  add(sat::Lit::Pos(ver.def));
}

// The one encoding pass: all of Φ(Se) when `delta` is null, else exactly
// what Φ(Se ⊕ Ot) gains from the Instantiation::ExtendWith call that
// returned `delta`. Order blocks come first, so the level-0 units among
// the clauses already propagate through them in a solver; then the
// retired versions' units and the ground constraints' clauses, in that
// order. Each CFD rule (ωX → b ≺ tp[B]) is the binary (¬t ∨ x_b,rhs) on
// its version's atom t, and the version's defining clause comes with its
// first rule; an extension that only adds competing values to a version
// adds only binaries.
template <class Sink>
void EncodePhi(const Instantiation& inst, const InstantiationDelta* delta,
               Sink* sink) {
  const VarMap& vm = inst.varmap;
  sink->EnsureVars(vm.num_vars());

  // Transitivity and asymmetry: one implicit order block per attribute,
  // over its whole domain; an extension adds the grown attributes' new
  // rows and columns.
  for (int a = 0; a < vm.num_attrs(); ++a) {
    sink->OrderBlock(a, static_cast<int>(vm.domain(a).size()),
                     [&](int i, int j) { return vm.VarOf(a, i, j); });
  }

  // Retired CFD versions: the units ¬g and ¬t permanently satisfy every
  // clause of the invalidated version, before the re-grounded
  // replacements (under fresh guards and atoms) are appended below.
  if (delta != nullptr) {
    for (const int v : delta->retired_versions) {
      const CfdVersion& ver = inst.cfd_versions()[v];
      sink->Clause([&](auto add) { add(sat::Lit::Neg(ver.guard)); });
      sink->Clause([&](auto add) { add(sat::Lit::Neg(ver.def)); });
    }
  }

  const int n_constraints = static_cast<int>(inst.constraints.size());
  for (int c = delta != nullptr ? delta->first_new_constraint : 0;
       c < n_constraints; ++c) {
    const GroundConstraint& gc = inst.constraints[c];
    if (gc.version < 0) {
      sink->Clause([&](auto add) { ConstraintClause(inst, gc, add); });
      continue;
    }
    const CfdVersion& ver = inst.version(gc);
    if (c == ver.first_rule) {
      sink->Clause([&](auto add) { DefinitionClause(inst, ver, add); });
    }
    sink->Clause([&](auto add) {
      add(sat::Lit::Neg(ver.def)) && add(sat::Lit::Pos(vm.VarOf(gc.head)));
    });
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
