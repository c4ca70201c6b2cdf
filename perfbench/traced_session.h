// TracedSession: ResolutionSession rebuilt from the layers' public entry
// points, with a span around every call into a layer.
//
// ResolutionSession::Create grounds, encodes, feeds and seeds inside one
// call, so a span around it cannot split its time by layer. This class
// makes the same calls in the same order (session.cc), each inside its own
// span, on the same SessionScratch objects. Its verdicts must equal the
// library's: every traced run compares the traced drive's digest with
// Resolve's, so a drift from ResolutionSession's call order fails the run.
//
// Span names are the per-layer metric names (without the _ms suffix):
//   core.create    encode.ground  encode.cnf  sat.feed  sat.seed
//   core.validity  core.deduce    core.suggest
//   core.extend    encode.extend  sat.feed    sat.simplify  sat.seed

#ifndef PERFBENCH_TRACED_SESSION_H_
#define PERFBENCH_TRACED_SESSION_H_

#include <string>
#include <vector>

#include "perfbench/util.h"

namespace perfbench {

/// Work counts gathered by the traced drive, summed over sessions.
struct LayerCounts {
  int64_t sessions = 0;
  int64_t ground_constraints = 0;  // after Create's BuildInto
  int64_t clauses = 0;             // after Create's BuildCnfInto
  int64_t validity_calls = 0;
  int64_t deduce_calls = 0;
  int64_t deduced_pairs = 0;
  int64_t suggested_attrs = 0;
  ccr::sat::SolverStats solver;      // per-session deltas, summed
  size_t arena_peak_words = 0;       // max over sessions
};

/// One round of deduction: the true-value indices plus the orders they
/// came from (needed for the suggestion).
struct TracedDeduction {
  ccr::DeducedOrders od;
  std::vector<int> true_idx;
};

class TracedSession {
 public:
  /// Mirrors ResolutionSession::Create. `scratch`, `tracer` (may be null)
  /// and `counts` must outlive the session; `owner` tags its spans.
  static ccr::Result<TracedSession> Create(const ccr::Specification& se,
                                           const ccr::ResolveOptions& options,
                                           ccr::SessionScratch* scratch,
                                           Tracer* tracer, std::string owner,
                                           LayerCounts* counts);

  /// Mirrors CheckValidity.
  ccr::ValidityResult CheckValidity();
  /// Mirrors Deduce, plus ExtractTrueValueIndices.
  TracedDeduction Deduce();
  /// Mirrors CandidateValues + MakeSuggestion.
  ccr::Suggestion MakeSuggestion(const TracedDeduction& d);
  /// Mirrors ExtendWith, including Se ⊕ Ot itself.
  ccr::Status ExtendWith(const ccr::PartialTemporalOrder& ot);
  /// Adds this session's solver counters to `counts`; call once at the end.
  void Finish();

  const ccr::Specification& spec() const { return spec_; }
  const ccr::VarMap& varmap() const { return inst_->varmap; }

 private:
  TracedSession() = default;
  void Feed();

  ccr::ResolveOptions options_;
  ccr::Specification spec_;
  ccr::Instantiation* inst_ = nullptr;
  ccr::sat::Cnf* cnf_ = nullptr;
  ccr::sat::Solver* solver_ = nullptr;
  ccr::DeduceScratch* deduce_scratch_ = nullptr;
  int fed_clauses_ = 0;
  Tracer* tracer_ = nullptr;
  std::string owner_;
  LayerCounts* counts_ = nullptr;
  ccr::sat::SolverStats stats_at_create_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_SESSION_H_
