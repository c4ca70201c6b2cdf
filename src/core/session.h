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
//   * Φ(Se): the CNF, extended append-only (ExtendCnf);
//   * one incremental CDCL solver holding Φ's clauses plus everything it
//     learnt. Every phase queries it under assumptions: validity and both
//     Deduce pipelines open a propagation probe on the active CFD guards
//     (DeduceOrderShared extends it by the totality rule and reads Od off
//     its trail), and GetSug opens one probe per candidate kept set. Only
//     GetSug's MaxSAT fallback (a non-Horn formula or an oversized
//     clique) allocates variables, in a released ScopedVars scope —
//     nothing a round introduces constrains the next.
//     After each extension the solver propagates the new level-0 facts;
//     the top-level sweep of clauses they satisfy (those deactivated by
//     retired guards among them) runs only once search work or the
//     satisfied clauses held have paid for it (Solver::MaybeSimplify),
//     so an answer costs what it adds.
//   * It, the temporal instance, appended in place (TemporalInstance::
//     Append) and truncated back when the grounding rejects the delta.
//
// Resolve() drives a session internally; the class is public so batch
// drivers and benches can observe per-round encode costs and the
// assumption/rebuild counters.

#ifndef CCR_CORE_SESSION_H_
#define CCR_CORE_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/resolver.h"
#include "src/maxsat/walksat.h"
#include "src/sat/cnf.h"
#include "src/sat/solver.h"

namespace ccr {

/// \brief Reusable solver/CNF/instantiation allocations shared by
/// back-to-back sessions on one worker thread (cross-entity pooling).
///
/// A batch driver resolves thousands of entities per thread, and every
/// session used to grow its solver's clause arena, watch lists, the CNF
/// literal pool and the grounding's projection tables from cold. A scratch
/// keeps those buffers alive between sessions: Acquire* hands out the same
/// objects semantically reset to their freshly-constructed state
/// (Solver::Reset, Cnf::Clear, Instantiation::BuildInto), so entity N+1
/// reuses entity N's warm allocations while every result stays
/// bit-identical to a scratch-free run.
///
/// A scratch serves ONE live session at a time and must outlive it. Not
/// thread-safe — use one scratch per worker thread.
class SessionScratch {
 public:
  /// A solver observably identical to `Solver(options)`, recycled when a
  /// previous session already grew one.
  sat::Solver* AcquireSolver(const sat::SolverOptions& options);

  /// An empty CNF, recycled with its pool capacity intact.
  sat::Cnf* AcquireCnf();

  /// An Instantiation arena for BuildInto: projection tables, hash-table
  /// buckets and the constraint vector stay warm across entities.
  Instantiation* AcquireInstantiation();

  /// WalkSAT working buffers (occurrence CSR, counters, unsat stack) for
  /// the CNF-form RunWalkSat, kept warm across calls — the same pooling
  /// pattern as AcquireInstantiation. The buffers carry no semantic state
  /// between runs (RunWalkSat reinitializes them), so no reset is needed.
  maxsat::WalkSatScratch* AcquireWalkSatScratch();

  /// DeduceOrder's unit-propagation buffers (occurrence index, clause
  /// counters, the literal queue), kept warm across every round of every
  /// entity. The index is keyed by Cnf::identity(), which AcquireCnf's
  /// Clear renews, so no reset is needed. ResolutionSession deduces on
  /// its solver (DeduceOrderShared) and never acquires one; only the
  /// perfbench traced drive, which still times DeduceOrder as its
  /// core.deduce layer, does.
  DeduceScratch* AcquireDeduceScratch();

  /// Acquire calls that recycled a warm object instead of allocating.
  int64_t solver_reuses() const { return solver_reuses_; }

 private:
  std::unique_ptr<sat::Solver> solver_;
  std::unique_ptr<sat::Cnf> cnf_;
  std::unique_ptr<Instantiation> inst_;
  std::unique_ptr<maxsat::WalkSatScratch> walksat_;
  std::unique_ptr<DeduceScratch> deduce_;
  int64_t solver_reuses_ = 0;
};

/// \brief Encode-once/solve-many pipeline state for one specification.
class ResolutionSession {
 public:
  /// Grounds and encodes `se` and loads the solver.
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
  /// GetSug on the session solver: propagation probes on the Horn Φ(Se),
  /// incremental MaxSAT otherwise.
  Suggestion MakeSuggestion(const std::vector<std::vector<int>>& candidates,
                            const std::vector<int>& known_true);

  /// Step (4b): Se ← Se ⊕ Ot. Always extends incrementally — CFD guards
  /// absorb the one formerly non-append-only delta.
  Status ExtendWith(const PartialTemporalOrder& ot);

  const Specification& spec() const { return spec_; }
  const Instantiation& instantiation() const { return *inst_; }
  const sat::Cnf& cnf() const { return *cnf_; }

  /// Wall time the last Create/ExtendWith spent grounding + encoding (ms).
  double last_encode_ms() const { return last_encode_ms_; }
  /// ExtendWith calls (every one of them appends; kept alongside
  /// `rebuilds` for the A/B counters in RoundTrace).
  int incremental_extensions() const { return incremental_extensions_; }
  /// Full re-encodes this session performed. Guarded grounding makes this
  /// 0 by construction; the counter exists so tests and traces can assert
  /// exactly that.
  int rebuilds() const { return rebuilds_; }
  /// Assumption-carrying solves answered by the session solver so far.
  /// Every pipeline phase decides the Horn Φ(Se) by propagation, so this
  /// stays 0 unless a formula is non-Horn (validity, NaiveDeduce and
  /// GetSug then fall back to solves).
  int64_t assumption_solves() const {
    return solver_->stats().assumption_solves;
  }
  /// Cumulative statistics of the session solver. Resolve diffs these
  /// around each phase call to stamp per-phase deltas (binary
  /// propagations, glue sums, tier/inprocessing counters) into the
  /// RoundTrace.
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

  /// Points solver_/cnf_/inst_ at fresh objects: the scratch's
  /// recycled ones when options_.scratch is set, privately owned ones
  /// otherwise.
  /// All targets are heap-stable, so moving the session keeps them valid.
  void AdoptScratchObjects();

  /// Feeds the solver the cnf_ suffix it has not seen yet.
  void FeedSolver();

  ResolveOptions options_;
  Specification spec_;
  std::unique_ptr<Instantiation> owned_inst_;  // null when scratch-backed
  std::unique_ptr<sat::Cnf> owned_cnf_;        // null when scratch-backed
  std::unique_ptr<sat::Solver> owned_solver_;  // null when scratch-backed
  Instantiation* inst_ = nullptr;
  sat::Cnf* cnf_ = nullptr;
  sat::Solver* solver_ = nullptr;
  int fed_clauses_ = 0;  // prefix of cnf_ already in the solver
  double last_encode_ms_ = 0;
  int incremental_extensions_ = 0;
  int rebuilds_ = 0;
};

}  // namespace ccr

#endif  // CCR_CORE_SESSION_H_
