// The service legs of a traced run: an in-process Server + SessionManager
// over loopback, driven by closed-loop clients that each wait for a reply
// before sending the next request. Every session follows a script built by
// a local ResolutionSession (the expected reply bodies), so the clients
// issue only the scripted requests and check every reply.
//
// Script per session: OPEN, then up to kMaxRounds+1 ROUNDs with one ANSWER
// after each incomplete one and an EVICT after every other ANSWER, then
// SNAPSHOT. A client closes its previous session only after its current
// one is done, so live sessions (4) outnumber the resident cap (3): LRU
// evictions run next to the explicit ones.

#ifndef PERFBENCH_SERVICE_H_
#define PERFBENCH_SERVICE_H_

#include <string>
#include <vector>

#include "perfbench/batch.h"

namespace perfbench {

/// One request of a script. `expected` is the reply body the daemon must
/// send (ROUND and SNAPSHOT); empty means only the status is checked.
struct Step {
  ccr::service::RequestType type;
  std::string body;
  std::string expected;
};

/// One session's requests with everything the checks need.
struct Script {
  int entity = 0;
  std::vector<Step> steps;
  /// The ROUND body a replay of the final snapshot must produce next.
  std::string replay_round;
};

/// Builds the scripts for `entities` of `corpus` with a local session.
std::vector<Script> BuildScripts(const Corpus& corpus,
                                 const std::vector<int>& entities,
                                 bool naive_deduce, int64_t* failed);

/// Runs `scripts` through a daemon of its own: one traced pass over the
/// wire (client spans, STATS deltas), one pass straight into a fresh
/// SessionManager (manager spans), and a snapshot round trip plus
/// ReplaySnapshot per session, checked against the script. Adds the
/// service.* metrics and the spans to `out`.
void TraceServiceLegs(const std::vector<Script>& scripts, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_SERVICE_H_
