// ResolutionSession: one specification's lifetime across the framework
// pipeline of Fig. 4 — encode once, solve many, one solver for everything.
//
// The framework loops validity → deduction → suggestion over the *same*
// specification, growing it by a small user delta Ot each round. A session
// therefore owns the four artifacts that survive rounds:
//   * Ω(Se): the instantiation, extended in place (ExtendWith grounds only
//     the delta's tuples/orders and appends). CFD rule bodies are guarded
//     by per-(CFD, LHS-pattern) selector variables, so even the one
//     non-append-only delta — a new value in an applicable CFD's LHS
//     attribute — extends incrementally: the stale version's guard is
//     asserted off and re-grounded guarded rules are appended. Sessions
//     never rebuild.
//   * one incremental CDCL solver holding Φ(Se) plus everything it
//     learnt. Φ is never materialized: one encoding pass over Ω(Se)
//     loads it (LoadSolver), and each extension feeds the solver only
//     what the delta adds (ExtendSolver), so the session holds no
//     sat::Cnf. Every phase queries it under assumptions: validity and both
//     Deduce pipelines open a propagation probe on the active CFD guards
//     (DeduceOrderShared extends it by the totality rule and reads Od off
//     its trail), and GetSug searches kept sets over probes extended
//     rule by rule. No phase adds a clause or a variable, so nothing a
//     round asks constrains the next.
//     After each extension the solver propagates the new level-0 facts;
//     the top-level sweep of clauses they satisfy (those deactivated by
//     retired guards among them) runs only once search work or the
//     satisfied clauses held have paid for it (Solver::MaybeSimplify),
//     so an answer costs what it adds.
//   * It, the temporal instance, appended in place (TemporalInstance::
//     Append) and truncated back when the grounding rejects the delta.
//
// RunRound is the one definition of a round's phase sequence; Resolve()
// and the service's ROUND both call it. The phases stay public so tests
// and benches can drive them one by one and observe per-round encode
// costs and solver counters.

#ifndef CCR_CORE_SESSION_H_
#define CCR_CORE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/resolver.h"
#include "src/sat/cnf.h"
#include "src/sat/solver.h"

namespace ccr {

/// \brief One framework round on a session (Fig. 4, steps 1 to 4a): its
/// verdicts and what each phase cost. RunRound refills one SessionRound
/// in the session's RoundScratch in place and returns it by reference,
/// so a warm scratch runs a round without a heap allocation.
struct SessionRound {
  bool valid = false;
  /// Step (3): every resolvable attribute (CountResolvableAttrs) has a
  /// true value. False when invalid.
  bool complete = false;
  /// Step (2): the deduced orders Od. Empty when invalid.
  DeducedOrders od;
  /// Per-attribute true value index into the VarMap domain, -1 when
  /// unresolved (ExtractTrueValueIndices). Empty when invalid.
  std::vector<int> true_idx;
  /// V(A): the candidate values per attribute (CandidateValues) the
  /// suggestion was made from. Empty when no suggestion was made.
  std::vector<std::vector<int>> candidates;
  /// Step (4a): present iff it was asked for and the round is valid but
  /// incomplete.
  std::optional<Suggestion> suggestion;
  /// The round's phases: validity_ms; deduce_ms (Deduce plus true-value
  /// extraction); suggest_ms (CandidateValues plus GetSug); the three
  /// phase solver deltas; resolved_attrs. `round`, `encode_ms` and
  /// `encode_solver` describe the extension that produced the round and
  /// are left for the caller.
  RoundTrace trace;
};

/// \brief The memory a session's rounds run in: the SessionRound that
/// RunRound returns and the buffers its phases refill. One per
/// SessionScratch, so one per worker thread, recycled across rounds and
/// entities.
///
/// Contract: each round rewrites every field of `round` before the caller
/// reads it, and the phases read no buffer they did not write in the same
/// call, so a round's result never depends on an earlier round or entity
/// (tests/round_alloc_test.cpp compares shared against fresh scratches).
/// Vectors only grow, and vectors whose elements own storage park removed
/// elements on a spare stack (src/common/pooled.h), so once an entity's
/// sizes have been seen, its rounds allocate nothing.
struct RoundScratch {
  SessionRound round;
  DeduceScratch deduce;    // Od's probe reader and its spare orders
  SuggestScratch suggest;  // TrueDer, CompGraph, MaxClique, GetSug
  // V(A) lists parked while round.candidates is empty, and the
  // suggestion's storage while round.suggestion is empty.
  std::vector<std::vector<int>> spare_candidates;
  Suggestion parked_suggestion;
};

/// \brief Reusable solver/CNF/instantiation allocations shared by
/// back-to-back sessions on one worker thread (cross-entity pooling).
///
/// A batch driver resolves thousands of entities per thread, and a
/// session on fresh objects grows its solver's clause arena, watch lists
/// and the grounding's projection tables from cold. A scratch keeps those
/// buffers alive between sessions: Acquire* hands out the same
/// objects semantically reset to their freshly-constructed state
/// (Solver::Reset, Cnf::Clear, Instantiation::BuildInto), so entity N+1
/// reuses entity N's warm allocations while every result stays
/// bit-identical to a session on a fresh scratch. A session created
/// without one owns a private scratch.
///
/// A scratch serves ONE live session at a time and must outlive it. Not
/// thread-safe — use one scratch per worker thread.
class SessionScratch {
 public:
  /// A solver observably identical to `Solver(options)`, recycled when a
  /// previous session already grew one.
  sat::Solver* AcquireSolver(const sat::SolverOptions& options);

  /// An empty CNF, recycled with its pool capacity intact. Sessions load
  /// their solver without one; perfbench's traced drive, which times the
  /// CNF build and the solver feed apart, still builds one.
  sat::Cnf* AcquireCnf();

  /// An Instantiation arena for BuildInto: projection tables, index slots
  /// and the constraint vector stay warm across entities.
  Instantiation* AcquireInstantiation();

  /// DeduceOrder's unit-propagation buffers (occurrence index, clause
  /// counters, the literal queue), kept warm across every round of every
  /// entity. The index is keyed by Cnf::identity(), which AcquireCnf's
  /// Clear renews, so no reset is needed. It is the RoundScratch's
  /// instance: sessions deduce through its probe buffers, and the
  /// perfbench traced drive, which still times DeduceOrder as its
  /// core.deduce layer, through its index.
  DeduceScratch* AcquireDeduceScratch();

  /// The buffers a session's rounds run in (RoundScratch), kept warm
  /// across every round of every entity. No reset is needed: each round
  /// rewrites what it reads.
  RoundScratch* AcquireRoundScratch();

  /// Acquire calls that recycled a warm object instead of allocating.
  int64_t solver_reuses() const { return solver_reuses_; }

 private:
  std::unique_ptr<sat::Solver> solver_;
  std::unique_ptr<sat::Cnf> cnf_;
  std::unique_ptr<Instantiation> inst_;
  std::unique_ptr<RoundScratch> round_;
  int64_t solver_reuses_ = 0;
};

/// \brief Encode-once/solve-many pipeline state for one specification.
class ResolutionSession {
 public:
  /// Grounds and encodes `se` and loads the solver. Fails with
  /// Status::Internal if the encoding fed the solver a non-Horn clause.
  static Result<ResolutionSession> Create(const Specification& se,
                                          const ResolveOptions& options = {});

  /// Step (1): does the current Se ⊕ Ot ⊕ ... have a valid completion?
  ValidityResult CheckValidity();

  /// Step (2): the deduced value-level currency orders Od, from one
  /// propagation probe on the session solver (DeduceOrderShared, or
  /// NaiveDeduceShared on the naive pipeline).
  DeducedOrders Deduce();

  /// Step (4a): suggestion from the deduced state (`candidates` from
  /// CandidateValues, `known_true` from ExtractTrueValueIndices). Runs
  /// GetSug's probe search on the session solver.
  Suggestion MakeSuggestion(const std::vector<std::vector<int>>& candidates,
                            const std::vector<int>& known_true);

  /// Steps (1) to (4a) in order: validity; if valid, Deduce and the true
  /// values; the stop test; and, if `want_suggestion` and the round is
  /// incomplete, CandidateValues and the suggestion. Resolve and the
  /// service's ROUND both run their rounds through here, so the solver
  /// sees the same call sequence from either, and snapshot replay
  /// recreates a live session's solver state. The phases run the scratch
  /// forms of Deduce, CandidateValues and SuggestOnSolver, which compute
  /// what the public one-shot phases above return, in the session's
  /// RoundScratch. The result lives there too: it stays valid until the
  /// next RunRound or ExtendWith, or the end of the session.
  const SessionRound& RunRound(bool want_suggestion);

  /// Step (4b): Se ← Se ⊕ Ot. Always extends incrementally — CFD guards
  /// absorb the one formerly non-append-only delta. Fails with
  /// Status::Internal if the extension fed the solver a non-Horn clause.
  Status ExtendWith(const PartialTemporalOrder& ot);

  const Specification& spec() const { return spec_; }
  const Instantiation& instantiation() const { return *inst_; }

  /// Wall time the last Create/ExtendWith spent grounding + encoding (ms).
  double last_encode_ms() const { return last_encode_ms_; }
  /// ExtendWith calls (every one of them appends).
  int incremental_extensions() const { return incremental_extensions_; }
  /// Cumulative statistics of the session solver. RunRound diffs these
  /// around each phase call to stamp per-phase deltas (binary
  /// propagations, glue sums, tier/inprocessing counters) into the
  /// RoundTrace. Every pipeline phase decides the Horn Φ(Se) by
  /// propagation, so `assumption_solves` stays 0 unless a caller solves
  /// on mutable_solver().
  const sat::SolverStats& solver_stats() const { return solver_->stats(); }
  /// The persistent session solver, read-only. Soak tests and the bench
  /// harness use it to watch the arena lifecycle (live vs peak words, GC
  /// runs) across a long-lived session.
  const sat::Solver& solver() const { return *solver_; }
  /// The same solver, writable: tests drive queries the pipeline does not
  /// make (the per-pair Lemma6DeduceShared loop) on the session's live
  /// solver. Its solves learn only implied clauses, so no later verdict
  /// moves; a later fast-pipeline Deduce sees the learnt clauses and
  /// answers through its DeduceOrder fallback, with the same Od.
  sat::Solver* mutable_solver() { return solver_; }

 private:
  ResolutionSession() = default;

  /// Points solver_/inst_/round_ at objects acquired from
  /// options_.scratch, or from a private scratch the session owns when
  /// that is null. All targets are heap-stable, so moving the session
  /// keeps them valid.
  void AdoptScratchObjects();

  /// Deduce, refilling `od` on the RoundScratch's deduce buffers.
  void DeduceInto(DeducedOrders* od);

  ResolveOptions options_;
  Specification spec_;
  std::unique_ptr<SessionScratch> owned_scratch_;  // null when borrowed
  Instantiation* inst_ = nullptr;
  sat::Solver* solver_ = nullptr;
  RoundScratch* round_ = nullptr;
  double last_encode_ms_ = 0;
  int incremental_extensions_ = 0;
};

}  // namespace ccr

#endif  // CCR_CORE_SESSION_H_
