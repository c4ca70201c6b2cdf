#include "src/core/deduce.h"

#include <vector>

namespace ccr {

int DeducedOrders::CountPairs() const {
  int total = 0;
  for (const PartialOrder& po : per_attr) total += po.CountPairs();
  return total;
}

namespace {

DeducedOrders MakeEmptyOrders(const VarMap& vm) {
  DeducedOrders od;
  od.per_attr.reserve(vm.num_attrs());
  for (int a = 0; a < vm.num_attrs(); ++a) {
    od.per_attr.emplace_back(static_cast<int>(vm.domain(a).size()));
  }
  return od;
}

// Records a deduced literal into Od. Positive x_{a1 a2} adds a1 ≺ a2;
// negative adds the reversed order when `paper_mode` is on (Fig. 5,
// lines 6–7). Auxiliary variables (CFD guards) carry no order content and
// are skipped. Insertion failures (cycles, possible only on invalid
// specifications) are ignored — Od remains a partial order.
void RecordLiteral(const VarMap& vm, sat::Lit lit, bool paper_mode,
                   DeducedOrders* od) {
  if (!vm.IsOrderVar(lit.var())) return;
  const OrderAtom atom = vm.Decode(lit.var());
  if (!lit.negated()) {
    (void)od->per_attr[atom.attr].Add(atom.less, atom.more);
  } else if (paper_mode) {
    (void)od->per_attr[atom.attr].Add(atom.more, atom.less);
  }
}

}  // namespace

DeducedOrders DeduceOrder(const Instantiation& inst, const sat::Cnf& phi,
                          const DeduceOptions& options,
                          std::span<const sat::Lit> assume,
                          DeduceScratch* scratch) {
  const VarMap& vm = inst.varmap;
  DeducedOrders od = MakeEmptyOrders(vm);

  const int n_vars = phi.num_vars();
  const int n_clauses = phi.num_clauses();

  // Counter-based unit propagation over the explicit clauses: per clause,
  // the number of non-false literals and a satisfied flag; per literal,
  // its occurrence list. The order blocks' transitivity ternaries are
  // propagated from the blocks themselves (below). The buffers come from
  // the session's scratch when available.
  DeduceScratch local;
  DeduceScratch& s = scratch != nullptr ? *scratch : local;
  if (s.indexed_cnf != phi.identity() || s.indexed_clauses > n_clauses) {
    // Another formula: drop the old index, keeping list capacities.
    for (std::vector<int32_t>& o : s.occur) o.clear();
    s.unit_lits.clear();
    s.indexed_cnf = phi.identity();
    s.indexed_clauses = 0;
  }
  std::vector<std::vector<int32_t>>& occur = s.occur;
  if (occur.size() < static_cast<size_t>(2 * n_vars)) {
    occur.resize(2 * n_vars);
  }
  // Append the clauses the index has not seen; lists stay in clause order.
  for (int c = s.indexed_clauses; c < n_clauses; ++c) {
    auto lits = phi.clause(c);
    for (sat::Lit l : lits) occur[l.index()].push_back(c);
    if (lits.size() == 1) s.unit_lits.push_back(lits[0]);
    // Empty clause: Se invalid; DeduceOrder is only called on valid
    // specifications, but stay graceful and simply deduce nothing from it.
  }
  s.indexed_clauses = n_clauses;

  std::vector<int32_t>& open_count = s.open_count;
  std::vector<uint8_t>& satisfied = s.satisfied;
  std::vector<sat::Lbool>& value = s.value;
  std::vector<sat::Lit>& queue = s.queue;
  open_count.resize(n_clauses);
  for (int c = 0; c < n_clauses; ++c) {
    open_count[c] = static_cast<int32_t>(phi.clause(c).size());
  }
  satisfied.assign(n_clauses, 0);
  value.assign(n_vars, sat::Lbool::kUndef);
  queue.assign(assume.begin(), assume.end());
  queue.insert(queue.end(), s.unit_lits.begin(), s.unit_lits.end());

  constexpr sat::Lbool kTrue = sat::Lbool::kTrue;
  constexpr sat::Lbool kFalse = sat::Lbool::kFalse;
  constexpr sat::Lbool kUndef = sat::Lbool::kUndef;
  size_t head = 0;
  while (head < queue.size()) {
    const sat::Lit l = queue[head++];
    const sat::Lbool prior = value[l.var()];
    if (prior != kUndef) continue;  // already propagated
    value[l.var()] = l.negated() ? kFalse : kTrue;
    RecordLiteral(vm, l, options.paper_negative_units, &od);

    // Totality: ¬(a1 ≺ a2) entails a2 ≺ a1 in every completion; assert
    // the reversed atom so contrapositive chains keep propagating.
    if (l.negated() && options.paper_negative_units &&
        options.totality_propagation && vm.IsOrderVar(l.var())) {
      const OrderAtom atom = vm.Decode(l.var());
      queue.push_back(
          sat::Lit::Pos(vm.VarOf(atom.attr, atom.more, atom.less)));
    }

    // Clauses containing l are satisfied.
    for (int32_t c : occur[l.index()]) satisfied[c] = 1;
    // Clauses containing ¬l lose a literal; new units enter the queue.
    for (int32_t c : occur[(~l).index()]) {
      if (satisfied[c]) continue;
      if (--open_count[c] == 1) {
        for (sat::Lit cand : phi.clause(c)) {
          if (value[cand.var()] == kUndef) {
            queue.push_back(cand);
            break;
          }
        }
      }
      // open_count 0 means a conflict: the specification was invalid.
      // Nothing further can be soundly deduced from this clause.
    }

    // The transitivity ternaries ¬x_ab ∨ ¬x_bc ∨ x_ac holding l's
    // variable, by the unit rules the solver applies too
    // (OrderBlock::PropagateAxioms). A falsified ternary's `first` is
    // already false, so the queue skips it: a conflict, ignored like
    // above.
    const sat::OrderPos pos = phi.order_pos(l.var());
    if (pos.block < 0) continue;
    const sat::OrderBlock& block = phi.order_block(pos.block);
    const auto val = [&](int a, int b) { return value[block.at(a, b)]; };
    const auto push = [&](int, int, int, sat::Lit first, sat::Lit) {
      queue.push_back(first);
      return true;
    };
    for (int k = 0; k < block.size; ++k) {
      if (k != pos.i && k != pos.j) {
        block.PropagateAxioms(pos.i, pos.j, k, !l.negated(), val, push);
      }
    }
  }
  return od;
}

DeducedOrders NaiveDeduce(const Instantiation& inst, const sat::Cnf& phi,
                          const sat::SolverOptions& options) {
  sat::Solver solver(options);
  solver.AddCnf(phi);
  return NaiveDeduceShared(inst, &solver);
}

DeducedOrders NaiveDeduceShared(const Instantiation& inst,
                                sat::Solver* solver,
                                std::span<const sat::Lit> assumptions) {
  if (!solver->ProblemIsHorn()) {
    return Lemma6DeduceShared(inst, solver, assumptions);
  }
  const VarMap& vm = inst.varmap;
  DeducedOrders od = MakeEmptyOrders(vm);
  // A quiet fixpoint of a Horn formula is its least model: an atom is
  // entailed iff the probe made it true. A refuted probe means Se is
  // invalid under the guards, and nothing is deduced.
  if (!solver->BeginProbe(assumptions)) return od;
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (i != j &&
            solver->ProbeValue(vm.VarOf(a, i, j)) == sat::Lbool::kTrue) {
          (void)od.per_attr[a].Add(i, j);
        }
      }
    }
  }
  solver->EndProbe();
  return od;
}

DeducedOrders Lemma6DeduceShared(const Instantiation& inst,
                                 sat::Solver* solver,
                                 std::span<const sat::Lit> assumptions) {
  const VarMap& vm = inst.varmap;
  DeducedOrders od = MakeEmptyOrders(vm);

  std::vector<sat::Lit> assume(assumptions.begin(), assumptions.end());
  int64_t queries = 1;
  if (solver->SolveWithAssumptions(assume) != sat::SolveResult::kSat) {
    solver->RecordDeduce(queries);
    return od;  // invalid Se
  }

  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (i == j) continue;
        if (od.per_attr[a].Less(i, j)) continue;  // already implied
        const sat::Var x = vm.VarOf(a, i, j);
        // Lemma 6: Se |= (i ≺ j) iff Φ(Se) ∧ ¬x is unsatisfiable.
        assume.push_back(sat::Lit::Neg(x));
        ++queries;
        const auto r = solver->SolveWithAssumptions(assume);
        assume.pop_back();
        if (r == sat::SolveResult::kUnsat && !solver->IsUnsatForever()) {
          (void)od.per_attr[a].Add(i, j);
        }
      }
    }
  }
  solver->RecordDeduce(queries);
  return od;
}

std::vector<int> ExtractTrueValueIndices(const VarMap& vm,
                                         const DeducedOrders& od) {
  std::vector<int> out(vm.num_attrs(), -1);
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    if (d == 0) continue;  // only nulls: no true value derivable
    if (d == 1) {
      out[a] = 0;  // unique value dominates vacuously
      continue;
    }
    for (int v = 0; v < d; ++v) {
      if (od.per_attr[a].DominatesAll(v)) {
        out[a] = v;
        break;
      }
    }
  }
  return out;
}

std::vector<std::vector<int>> CandidateValues(const VarMap& vm,
                                              const DeducedOrders& od) {
  std::vector<std::vector<int>> out(vm.num_attrs());
  for (int a = 0; a < vm.num_attrs(); ++a) {
    out[a] = od.per_attr[a].Maximal();
  }
  return out;
}

}  // namespace ccr
