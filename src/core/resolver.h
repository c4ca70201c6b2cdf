// The conflict resolution framework of Fig. 4 (§III).
//
// Given a specification Se, the resolver (1) checks validity, (2) deduces
// as many true values as possible, (3) stops if the entity's true value
// T(Se) is found, and otherwise (4) computes a suggestion and asks a user
// oracle for true values of the suggested attributes, extends Se ⊕ Ot and
// loops. Users may answer a subset of the suggestion or none at all
// ("settle"); everything derivable from their answers is deduced
// automatically in the next round. Resolve runs every round on one
// ResolutionSession (src/core/session.h): Se is grounded and encoded
// once, each answer extends the encoding in place, and one solver serves
// every phase.

#ifndef CCR_CORE_RESOLVER_H_
#define CCR_CORE_RESOLVER_H_

#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/constraints/specification.h"
#include "src/core/deduce.h"
#include "src/core/isvalid.h"
#include "src/core/suggest.h"

namespace ccr {

class SessionScratch;  // src/core/session.h

/// \brief Interface for the user in the framework loop. Implementations:
/// OracleUser (tests/benches, answers from ground truth), callers may
/// provide interactive ones.
class UserOracle {
 public:
  /// One validated true value.
  struct Answer {
    int attr;
    Value value;  // may be outside the active domain (new value)
  };

  virtual ~UserOracle() = default;

  /// Presented with a suggestion, returns validated true values for any
  /// subset of the suggested attributes. An empty vector means "settle":
  /// the resolver stops interacting.
  virtual std::vector<Answer> Provide(const Specification& se,
                                      const Suggestion& suggestion,
                                      const VarMap& vm) = 0;
};

/// Resolver knobs.
struct ResolveOptions {
  int max_rounds = 8;  // interaction rounds (paper needs at most 2-3)
  DeduceOptions deduce;
  SuggestOptions suggest;
  sat::SolverOptions solver;
  /// Use NaiveDeduce (Lemma 6's exact pair set) instead of DeduceOrder.
  bool naive_deduce = false;
  /// Borrowed (not owned) per-worker allocation pool the session
  /// recycles its solver, grounding and round buffers from, so
  /// back-to-back Resolve calls start warm (batch drivers resolving many
  /// entities on one thread). Null = the session owns a fresh one. Results are
  /// bit-identical either way. The scratch must outlive the Resolve call
  /// and serve one resolution at a time.
  SessionScratch* scratch = nullptr;

  /// Fails closed on out-of-range knobs: max_rounds >= 0 and
  /// solver.gc_frac in [0, 1] (0 = compact at every chance). Resolve
  /// returns this status before doing any work.
  Status Validate() const;
};

/// Per-round timings and progress, aggregated by the benchmarks
/// (Fig. 8(c)-(e)).
struct RoundTrace {
  int round = 0;              // 0 = fully automatic
  int resolved_attrs = 0;     // cumulative attrs with a true value
  double encode_ms = 0;       // grounding + CNF (round > 0: the extension)
  double validity_ms = 0;
  double deduce_ms = 0;
  double suggest_ms = 0;
  /// Per-phase session-solver statistics deltas (conflicts, binary
  /// propagations, glue sums, learnt-tier and inprocessing counters).
  /// `encode_solver` covers the extension that produced this round —
  /// clause feeding plus the between-round Simplify, which is where the
  /// inprocessing (subsumed/vivified) counters accrue.
  sat::SolverStats encode_solver;
  sat::SolverStats validity_solver;
  sat::SolverStats deduce_solver;
  sat::SolverStats suggest_solver;
};

/// Final state of a resolution run.
struct ResolveResult {
  /// False iff the initial Se was already invalid (step 1 said no and
  /// there was no user input to revise).
  bool valid = true;
  /// True iff every attribute with at least one non-null value got a true
  /// value, i.e., T(Se ⊕ Ot) exists.
  bool complete = false;
  /// Per-attribute resolved true values (null when unresolved).
  std::vector<Value> true_values;
  std::vector<bool> resolved;
  /// Attributes whose value came directly from the oracle.
  std::vector<bool> user_provided;
  int rounds_used = 0;
  std::vector<RoundTrace> trace;
  /// Snapshot of (true_values, resolved) after each completed round —
  /// round_values[k] is the state after k interactions (k = 0 is the fully
  /// automatic pass). Used by the k-interaction accuracy curves of
  /// Fig. 8(e)-(p).
  std::vector<std::vector<Value>> round_values;
  std::vector<std::vector<bool>> round_resolved;
};

/// Runs the framework loop on one ResolutionSession. `oracle` may be
/// null: the resolver then performs only the automatic step (round 0).
Result<ResolveResult> Resolve(const Specification& se, UserOracle* oracle,
                              const ResolveOptions& options = {});

/// Materializes user answers as the delta Ot of §III Remark (1): one new
/// tuple t_o carrying the validated values, ordered above every existing
/// tuple of `se` on each answered attribute. Fails on an out-of-range
/// attribute index. Shared by the framework loop and the service's ANSWER
/// request, so both extend sessions with byte-identical deltas.
Result<PartialTemporalOrder> MakeAnswerDelta(
    const Specification& se, const std::vector<UserOracle::Answer>& answers);

/// Attributes with a non-empty candidate domain — the denominator of the
/// framework's "every resolvable attribute has a true value" stop test
/// (step (3) of Fig. 4). Empty-domain attributes (all values null) have no
/// candidate true value at all.
int CountResolvableAttrs(const VarMap& vm);

}  // namespace ccr

#endif  // CCR_CORE_RESOLVER_H_
