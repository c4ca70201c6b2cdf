// Session snapshots: the persistent form of a warm ResolutionSession.
//
// The engine is deterministic given its inputs (verdict-only determinism is
// a repo invariant — see docs/ARCHITECTURE.md), so a session's state is
// fully captured by *how it got here*: the initial specification plus the
// ordered log of operations applied since Create. A snapshot stores exactly
// that — spec + op log + engine config — as versioned strict JSON (sibling
// of result_io's ExperimentResult format, built on the same ccr::json
// primitives). Rehydration replays the log against a fresh session and
// lands on byte-identical verdict state. ROUND entries replay too: a
// round adds no clause or variable, but its probes move the solver's
// propagation counters (which schedule its sweeps) and saved phases, and
// a solve on a non-Horn formula learns clauses, so replaying the rounds
// leaves the rehydrated solver where the live one was.
//
// The format is strict both ways: stable field order and %.17g doubles on
// write (equal snapshots are equal bytes), unknown/duplicate/missing
// fields rejected on read.

#ifndef CCR_SERVICE_SNAPSHOT_H_
#define CCR_SERVICE_SNAPSHOT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/constraints/specification.h"

namespace ccr {
namespace service {

/// Version 2 dropped the engine's solver preset name: every session runs
/// the default solver options. A version-1 snapshot fails to parse.
inline constexpr int kSnapshotSchemaVersion = 2;

/// \brief The engine choice a session keeps across eviction: which deduce
/// pipeline its rounds run (what the client asked for at OPEN).
struct EngineConfig {
  bool naive_deduce = false;
};

/// \brief One replayable operation. kRound runs the validity → deduce →
/// suggest pipeline (replies discarded on replay); kExtend applies `delta`.
struct SessionOp {
  enum class Kind { kRound, kExtend };
  Kind kind = Kind::kRound;
  PartialTemporalOrder delta;  // kExtend only
};

/// \brief A full session snapshot: everything needed to rebuild the live
/// session from scratch.
struct SessionSnapshot {
  EngineConfig engine;
  Specification spec;
  std::vector<SessionOp> ops;
};

/// Writes `v` as the snapshot format's tagged value: `null`, `{"i": N}`,
/// `{"d": X}`, or `{"s": "..."}`. Shared with the service's reply bodies.
void WriteValue(const Value& v, json::Writer* w);

/// Parses a tagged value written by WriteValue.
Status ParseValue(json::Reader* rd, Value* out);

/// Writes a delta as `{"tuples": [...], "orders": [[attr,less,more],...]}`
/// — the body of an EXTEND request and of kExtend ops inside snapshots.
std::string DeltaToJson(const PartialTemporalOrder& delta);

/// Parses a delta object written by DeltaToJson from the reader's current
/// position (shared by the snapshot parser and the EXTEND handler).
Status ParseDelta(json::Reader* rd, PartialTemporalOrder* delta);

/// Serializes a snapshot. `indent` matches json::Writer (0 = single line).
std::string SnapshotToJson(const SessionSnapshot& snapshot, int indent = 1);

/// Parses and validates a snapshot; rejects unknown/duplicate/missing
/// fields, bad attribute indices, and any schema_version but
/// kSnapshotSchemaVersion (checked as soon as it is read, so an old
/// snapshot fails before its spec is parsed).
Result<SessionSnapshot> SnapshotFromJson(std::string_view text);

}  // namespace service
}  // namespace ccr

#endif  // CCR_SERVICE_SNAPSHOT_H_
