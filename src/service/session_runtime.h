// The bridge between the wire protocol and the core engine: one place that
// knows how to (a) turn an EngineConfig into ResolveOptions, (b) run one
// framework round against a live ResolutionSession and render its verdict
// as canonical JSON, and (c) rebuild a live session from a snapshot by
// replaying the op log. The session manager and the round-trip equivalence
// tests both go through these functions, so "evicted and rehydrated" and
// "never evicted" sessions execute literally the same code path — the
// byte-identity gates compare outputs of one implementation, not two.

#ifndef CCR_SERVICE_SESSION_RUNTIME_H_
#define CCR_SERVICE_SESSION_RUNTIME_H_

#include <string>
#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/service/snapshot.h"

namespace ccr {
namespace service {

/// \brief Verdict of one framework round (validity → deduce → suggest),
/// the reply body of a ROUND request.
struct RoundOutcome {
  bool valid = false;
  bool complete = false;
  /// Deduced true values, (attr, value) in attribute order.
  std::vector<std::pair<int, Value>> resolved;
  /// Suggestion, present when the round was valid but incomplete.
  bool has_suggestion = false;
  std::vector<int> suggested_attrs;
  /// Candidate true values per suggested attribute, positionally aligned.
  std::vector<std::vector<Value>> suggested_values;
  std::vector<int> derivable_attrs;
};

/// ResolveOptions for a service session: the default solver options,
/// optional naive deduction, borrowed per-worker scratch (may be null).
Result<ResolveOptions> MakeResolveOptions(const EngineConfig& engine,
                                          SessionScratch* scratch);

/// Runs one round of the Fig. 4 pipeline against `session`
/// (ResolutionSession::RunRound, asking for the suggestion) and renders
/// its verdicts as values. Rehydration re-runs this function for every
/// logged ROUND, so a replayed solver follows the live one.
RoundOutcome RunSessionRound(ResolutionSession* session);

/// Canonical single-line JSON for a round verdict — the bytes the
/// equivalence gates compare across evicted/never-evicted sessions.
std::string RoundOutcomeToJson(const RoundOutcome& outcome);

/// Builds a live session from a snapshot: Create(spec), then replay the op
/// log in order (ROUND entries re-run RunSessionRound with the reply
/// discarded; EXTEND entries apply their delta).
Result<ResolutionSession> ReplaySnapshot(const SessionSnapshot& snapshot,
                                         SessionScratch* scratch);

}  // namespace service
}  // namespace ccr

#endif  // CCR_SERVICE_SESSION_RUNTIME_H_
