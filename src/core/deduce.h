// True-value deduction (§V-B): DeduceOrder (Fig. 5) and NaiveDeduce.
//
// DeduceOrder runs unit propagation over Φ(Se): every one-literal clause
// is recorded into the deduced temporal order Od and used to reduce the
// formula. Explicit clauses propagate through occurrence counters, the
// order blocks' implicit transitivity ternaries through their variable
// matrices (O(d) per assigned order atom). For a valid Se the fixpoint
// of these rules (plus totality in paper mode) has no conflict, so it
// does not depend on the propagation order: Od is the same as with the
// ternaries written out as clauses.
//
// DeduceOrderShared computes the same Od on a session's solver, which
// already holds Φ(Se) and its level-0 fixpoint: one propagation probe
// under the guards, closed under the totality rule inside the probe
// (paper mode), with Od read off the probe's trail. No closure is
// computed there: the solver propagates every attribute's transitivity
// axioms (its order blocks), so a quiet trail's true order atoms are
// already transitively closed, and each sets one bit of its attribute's
// PartialOrder rows; a pair whose reverse bit is set is a cycle. A
// conflict-free fixpoint is unique, and Od is a transitive closure, so
// outside its fallback — a refuted probe or totality extension, a pair
// Od rejects as a cycle, or a solver holding learnt or strengthened
// clauses — the result equals DeduceOrder's. The fallback is DeduceOrder
// itself.
//
// NaiveDeduce computes Lemma 6's Od exactly: the pairs x with
// Φ(Se) ∧ ¬x unsatisfiable, i.e. the order atoms Φ(Se) entails. Φ(Se) is
// Horn (every clause has at most one positive literal), so a positive
// atom is entailed iff it is true in the least model, and one unit-
// propagation fixpoint computes that model (Dowling & Gallier, "Linear-
// time algorithms for testing the satisfiability of propositional Horn
// formulae", 1984). NaiveDeduceShared therefore reads the true order
// atoms off the same kind of probe, one bit each — no solver call. A
// formula that is not Horn falls back to Lemma6DeduceShared, the paper's
// per-pair loop: one SAT call per order variable, O(d²) calls per
// attribute (Fig. 8(b)). Both return the same pair set on a Horn formula;
// tests/deduce_propagation_test.cpp checks that pair for pair, and
// DeduceOrderShared against DeduceOrder.

#ifndef CCR_CORE_DEDUCE_H_
#define CCR_CORE_DEDUCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/encode/instantiation.h"
#include "src/order/partial_order.h"
#include "src/sat/cnf.h"
#include "src/sat/solver.h"

namespace ccr {

/// \brief Od: one deduced strict partial order per attribute, over indices
/// into the VarMap's domains.
struct DeducedOrders {
  std::vector<PartialOrder> per_attr;

  /// Total deduced pairs (|Od|), including transitive consequences.
  int CountPairs() const;
};

/// DeduceOrder knobs.
struct DeduceOptions {
  /// Fig. 5 lines 6–7: a negative unit ¬x_{a1 a2} adds the *reversed*
  /// order a2 ≺ a1 to Od. Sound under completion semantics: completions
  /// totally order the tuples, so for distinct values ¬(a1 ≺ a2) entails
  /// a2 ≺ a1. With the flag off, negative units only reduce the formula
  /// (strict mode — Od then contains positive units only).
  bool paper_negative_units = true;
  /// Feed the reversed order of a negative unit back into propagation as
  /// a true literal (the paper's Fig. 5 records it in Od but does not
  /// propagate it). Justified by the same totality argument; it lets
  /// contrapositive inferences (e.g. a job order implying a status order
  /// through ϕ5) fire the downstream rules in the same pass. Requires
  /// paper_negative_units.
  bool totality_propagation = true;
};

/// Reusable state for the Deduce forms: DeduceOrder's counter-based unit
/// propagation (an append-only index of one formula plus the per-call
/// arrays), the probe readers' buffers, and the spare orders Od is
/// refilled from.
///
/// The index — per-literal occurrence lists and the unit clauses' literals
/// in clause order — covers clauses [0, indexed_clauses) of the formula
/// whose Cnf::identity() is `indexed_cnf`. (Order blocks need no index:
/// the formula knows each variable's block entry.) A session's Φ(Se) only grows
/// between rounds, so a later call on the same formula indexes just the
/// appended clauses; a formula with another identity (a new entity,
/// after Cnf::Clear, a copy or a move) rebuilds the index from scratch.
/// Only open_count, satisfied, value and queue are reset per call, and
/// the queue is still "assumptions, then unit clauses in clause order",
/// so Od is identical to indexing afresh. A caller that runs DeduceOrder
/// every round on one growing formula keeps one instance (pooled through
/// SessionScratch) warm across rounds and entities; a default-constructed
/// local works identically for one-shot callers and for
/// DeduceOrderShared's rare fallback.
///
/// Scratch contract of the probe readers (the DeduceOrderShared and
/// NaiveDeduceShared forms that take a scratch): every buffer is
/// rewritten before it is read, so the result never depends on what an
/// earlier call left, and once the buffers have grown to an entity's
/// sizes, a call allocates nothing outside its fallback. Sessions deduce
/// through these, on the instance their SessionScratch keeps.
struct DeduceScratch {
  // Index of the formula named by indexed_cnf (0 = none).
  uint64_t indexed_cnf = 0;
  int indexed_clauses = 0;
  std::vector<std::vector<int32_t>> occur;
  std::vector<sat::Lit> unit_lits;
  // Per-call propagation state.
  std::vector<int32_t> open_count;
  std::vector<uint8_t> satisfied;
  std::vector<sat::Lbool> value;
  std::vector<sat::Lit> queue;
  // The probe readers: each order block's attribute, and the reversals
  // the totality rule adds to the probe.
  std::vector<int> attr_of_block;
  std::vector<sat::Lit> reversed;
  // Orders an Od refilled here parked when it shrank (PooledResize).
  std::vector<PartialOrder> spare_orders;
};

/// Algorithm DeduceOrder (Fig. 5): unit propagation over `phi`.
/// `phi` must be the CNF built from `inst` (variable ids must agree).
/// `assume` literals are seeded as established facts before propagation —
/// the guarded session passes its active CFD guards, which re-arms the
/// guarded rule clauses exactly as if they were emitted unguarded.
/// Non-atom (auxiliary) variables propagate but are never recorded in Od.
/// `scratch`, when given, supplies the propagation buffers and the
/// occurrence index; the result never depends on what was left in them.
DeducedOrders DeduceOrder(const Instantiation& inst, const sat::Cnf& phi,
                          const DeduceOptions& options = {},
                          std::span<const sat::Lit> assume = {},
                          DeduceScratch* scratch = nullptr);

/// DeduceOrder on a caller-owned solver already holding Φ(Se)'s clauses
/// (the ResolutionSession's): one propagation probe under `guards`,
/// extended by the totality rule in paper mode, with Od read off its
/// trail (no closure computed: the solver must propagate an order block
/// for every attribute, as LoadSolver and AddCnf set it up). Equal to
/// DeduceOrder(inst, BuildCnf(inst), options, guards), which it calls as
/// its fallback (see the file comment). The fallback builds Φ afresh, so
/// it lacks the units ¬g a session asserted for its retired guards g;
/// under the live `guards` a retired guard's clauses can derive only ¬g,
/// a variable Od never reads, so Od is the same.
/// Must be called at decision level 0. SolverStats::deduce_probes /
/// deduce_fallbacks count its probes and fallbacks.
DeducedOrders DeduceOrderShared(const Instantiation& inst,
                                sat::Solver* solver,
                                const DeduceOptions& options = {},
                                std::span<const sat::Lit> guards = {});
/// DeduceOrderShared refilling `od` in place on `scratch`'s buffers (see
/// DeduceScratch); `od`'s per-attribute orders are reused.
void DeduceOrderShared(const Instantiation& inst, sat::Solver* solver,
                       const DeduceOptions& options,
                       std::span<const sat::Lit> guards,
                       DeduceScratch* scratch, DeducedOrders* od);

/// NaiveDeduce on a fresh solver loaded with `phi` (see
/// NaiveDeduceShared). Exact per Lemma 6.
DeducedOrders NaiveDeduce(const Instantiation& inst, const sat::Cnf& phi,
                          const sat::SolverOptions& options = {});

/// NaiveDeduce against a caller-owned solver already holding Φ(Se)'s
/// clauses (the ResolutionSession shares one solver across validity,
/// deduction and rounds). `assumptions` holds for every implication check
/// (active CFD guards). Must be called at decision level 0. When the
/// solver's problem is Horn, the entailed pairs are read off one
/// propagation probe's trail (the least model); otherwise — or if the
/// trail's pairs form a cycle — the per-pair loop Lemma6DeduceShared
/// answers, counted as a deduce fallback. Either way the pair set is
/// Lemma 6's, and an Se refuted under `assumptions` deduces nothing.
DeducedOrders NaiveDeduceShared(const Instantiation& inst,
                                sat::Solver* solver,
                                std::span<const sat::Lit> assumptions = {});
/// NaiveDeduceShared refilling `od` in place on `scratch`'s buffers, as
/// the DeduceOrderShared form above.
void NaiveDeduceShared(const Instantiation& inst, sat::Solver* solver,
                       std::span<const sat::Lit> assumptions,
                       DeduceScratch* scratch, DeducedOrders* od);

/// The paper's per-pair Lemma-6 loop: one SolveWithAssumptions per order
/// variable x, adding the pair iff Φ(Se) ∧ assumptions ∧ ¬x is
/// unsatisfiable (pairs already in the transitive closure are skipped).
/// Sound and complete for any formula; NaiveDeduceShared's fallback for
/// non-Horn formulas and the reference its propagation path is tested
/// and benchmarked against.
DeducedOrders Lemma6DeduceShared(const Instantiation& inst,
                                 sat::Solver* solver,
                                 std::span<const sat::Lit> assumptions = {});

/// True-value extraction (§V-B): value v is the true value of attribute A
/// iff it dominates every other domain value of A in Od. Returns one
/// domain index per attribute, or -1 when the true value is not derivable
/// (including attributes whose domain is empty).
std::vector<int> ExtractTrueValueIndices(const VarMap& vm,
                                         const DeducedOrders& od);
/// ExtractTrueValueIndices written over `out`, reusing its storage.
void ExtractTrueValueIndices(const VarMap& vm, const DeducedOrders& od,
                             std::vector<int>* out);

/// DeriveVR (§V-C): candidate true values V(A) — domain values of A not
/// dominated by any other value in Od. Computed for every attribute;
/// callers skip attributes whose true value is known.
std::vector<std::vector<int>> CandidateValues(const VarMap& vm,
                                              const DeducedOrders& od);
/// CandidateValues written over `out`: resized to one entry per attribute
/// (a no-op when it has that many already), each refilled in place.
void CandidateValues(const VarMap& vm, const DeducedOrders& od,
                     std::vector<std::vector<int>>* out);

}  // namespace ccr

#endif  // CCR_CORE_DEDUCE_H_
