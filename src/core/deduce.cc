#include "src/core/deduce.h"

#include <algorithm>
#include <span>
#include <vector>

#include "src/encode/cnf_builder.h"

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
// are skipped. Returns false when PartialOrder::Add rejects the pair (a
// cycle, possible only on invalid specifications); Od then remains a
// partial order, but which pairs it holds depends on the recording order.
bool RecordLiteral(const VarMap& vm, sat::Lit lit, bool paper_mode,
                   DeducedOrders* od) {
  if ((lit.negated() && !paper_mode) || !vm.IsOrderVar(lit.var())) {
    return true;
  }
  const OrderAtom atom = vm.Decode(lit.var());
  PartialOrder& po = od->per_attr[atom.attr];
  return lit.negated() ? po.Add(atom.more, atom.less).ok()
                       : po.Add(atom.less, atom.more).ok();
}

// How ReadOrdersOffProbe ended.
enum class ProbeRead {
  kDeduced,   // `od` holds the probe's Od
  kRefuted,   // the guards, or a totality extension, met a conflict
  kRejected,  // a trail pair closed a cycle
};

// Opens a propagation probe on `guards`, closes it under the totality
// rule when `options` asks for it, and reads Od off the quiet trail in
// one pass, which each totality extension resumes. Totality is the
// clause x_ij ∨ x_ji: a false order literal ¬x_ij enqueues x_ji.
//
// No closure is computed, and no atom is decoded through the VarMap: the
// solver's order blocks give each trail variable's (i, j), and the
// attribute is its block's. Precondition: the solver propagates an order
// block for every attribute of two or more values (LoadSolver registers
// one per attribute, AddCnf syncs a Cnf's), so a quiet trail's true order
// atoms are transitively closed and asymmetric, and each sets one bit
// (PartialOrder::SetPair). The blocks make both true atoms of a pair a
// conflict, so a quiet trail holds no cycle; SetPair's reverse-bit check
// stays as the guard that rejects one. With totality, a false atom's
// reversal is on the quiet trail as a true one; paper mode without
// totality adds the reversals through PartialOrder::Add, which closes the
// relation again.
// The probe is closed on return; without totality `od` is still empty
// when the probe was refuted.
ProbeRead ReadOrdersOffProbe(const VarMap& vm, sat::Solver* solver,
                             const DeduceOptions& options,
                             std::span<const sat::Lit> guards,
                             DeducedOrders* od) {
  solver->RecordDeduceProbe(1, false);
  // Block b's attribute: a block registers once its attribute has two
  // values, so block b need not be attribute b.
  std::vector<int> attr_of_block(vm.num_attrs(), -1);
  for (int a = 0; a < vm.num_attrs(); ++a) {
    if (vm.domain(a).size() < 2) continue;
    const int b = solver->order_pos(vm.VarOf(a, 0, 1)).block;
    CCR_DCHECK(b >= 0);
    if (b >= 0) attr_of_block[b] = a;
  }
  if (!solver->BeginProbe(guards)) return ProbeRead::kRefuted;
  const bool totality =
      options.paper_negative_units && options.totality_propagation;
  std::vector<sat::Lit> reversed;
  size_t scanned = 0;
  while (true) {
    const std::span<const sat::Lit> trail = solver->ProbeTrail();
    for (; scanned < trail.size(); ++scanned) {
      const sat::Lit l = trail[scanned];
      if (l.negated() && !totality) continue;
      const sat::OrderPos& pos = solver->order_pos(l.var());
      if (pos.block < 0) continue;  // a guard or a definitional atom
      const int attr = attr_of_block[pos.block];
      if (!l.negated()) {
        if (!od->per_attr[attr].SetPair(pos.i, pos.j)) {
          solver->EndProbe();
          return ProbeRead::kRejected;
        }
        continue;
      }
      const sat::Var rev = vm.VarOf(attr, pos.j, pos.i);
      if (solver->ProbeValue(rev) != sat::Lbool::kTrue) {
        reversed.push_back(sat::Lit::Pos(rev));
      }
    }
    if (reversed.empty()) break;
    if (!solver->ProbeExtend(reversed)) return ProbeRead::kRefuted;
    reversed.clear();
  }
  CCR_DCHECK(std::all_of(
      od->per_attr.begin(), od->per_attr.end(),
      [](const PartialOrder& po) { return po.IsTransitivelyClosed(); }));
  ProbeRead read = ProbeRead::kDeduced;
  if (options.paper_negative_units && !totality) {
    for (const sat::Lit l : solver->ProbeTrail()) {
      if (l.negated() && !RecordLiteral(vm, l, true, od)) {
        read = ProbeRead::kRejected;
        break;
      }
    }
  }
  solver->EndProbe();
  return read;
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
    (void)RecordLiteral(vm, l, options.paper_negative_units, &od);

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

    // The block's axioms holding l's variable, by the unit rules the
    // solver applies too: asymmetry (x_ij true makes x_ji false) and the
    // transitivity ternaries ¬x_ab ∨ ¬x_bc ∨ x_ac
    // (OrderBlock::PropagateAxioms). A falsified axiom's `first` is
    // already false, so the queue skips it: a conflict, ignored like
    // above.
    const sat::OrderPos pos = phi.order_pos(l.var());
    if (pos.block < 0) continue;
    const sat::OrderBlock& block = phi.order_block(pos.block);
    if (!l.negated()) queue.push_back(sat::Lit::Neg(block.at(pos.j, pos.i)));
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

DeducedOrders DeduceOrderShared(const Instantiation& inst,
                                sat::Solver* solver,
                                const DeduceOptions& options,
                                std::span<const sat::Lit> guards) {
  // The probe propagates exactly what DeduceOrder propagates only while
  // the solver holds nothing stronger than Φ's clauses: no clause learnt
  // from a conflict, none strengthened by inprocessing.
  const sat::SolverStats& st = solver->stats();
  if (st.conflicts == 0 && st.subsumed == 0 && st.vivified == 0) {
    DeducedOrders od = MakeEmptyOrders(inst.varmap);
    if (ReadOrdersOffProbe(inst.varmap, solver, options, guards, &od) ==
        ProbeRead::kDeduced) {
      return od;
    }
  }
  solver->RecordDeduceProbe(0, true);
  return DeduceOrder(inst, BuildCnf(inst), options, guards);
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
  if (solver->ProblemIsHorn()) {
    // A quiet fixpoint of a Horn formula is its least model: an atom is
    // entailed iff the probe made it true, and strict mode records
    // exactly the true order atoms. A refuted probe means Se is invalid
    // under the guards, and nothing is deduced.
    DeduceOptions strict;
    strict.paper_negative_units = false;
    DeducedOrders od = MakeEmptyOrders(inst.varmap);
    if (ReadOrdersOffProbe(inst.varmap, solver, strict, assumptions, &od) !=
        ProbeRead::kRejected) {
      return od;
    }
  }
  solver->RecordDeduceProbe(0, true);
  return Lemma6DeduceShared(inst, solver, assumptions);
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
  // An attribute of only nulls has no true value (Top() is -1), and a
  // unique value dominates vacuously (Top() is 0).
  std::vector<int> out(vm.num_attrs());
  for (int a = 0; a < vm.num_attrs(); ++a) out[a] = od.per_attr[a].Top();
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
