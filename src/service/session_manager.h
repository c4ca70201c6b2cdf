// The heart of ccr_serve: a bounded pool of warm ResolutionSessions with
// LRU eviction to their op logs, a worker pool draining a bounded
// admission queue, per-request deadlines, and counters.
//
// Capacity model: at most `max_resident` sessions hold live solver state;
// the rest keep only their in-memory SessionSnapshot (spec + op log — see
// snapshot.h) and are rehydrated by replaying it on their next request.
// Each resident session owns a SessionScratch leased from a free-list pool
// of exactly `max_resident` scratches, so evict/open churn reuses warm
// solver arenas instead of allocating cold ones (the same pooling
// RunExperiment does per worker thread).
//
// Admission control: Submit() enqueues onto a bounded queue and returns
// false when it is full — the caller maps that to an OVERLOADED reply
// immediately, on the caller's thread, so a flood of requests degrades
// into fast rejections instead of unbounded memory growth. Deadlines are
// checked when a worker dequeues the request: a request that waited out
// its deadline in the queue is answered DEADLINE_EXCEEDED without touching
// the engine (time spent queueing is the thing a deadline bounds here;
// mid-solve cancellation is out of scope and documented as such).

#ifndef CCR_SERVICE_SESSION_MANAGER_H_
#define CCR_SERVICE_SESSION_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/session.h"
#include "src/service/session_runtime.h"
#include "src/service/snapshot.h"
#include "src/service/wire.h"

namespace ccr {
namespace service {

/// Upper bounds on ServiceOptions::workers and max_resident. The manager
/// starts `workers` threads and allocates `max_resident` SessionScratch
/// pools when it is constructed, so both are capped well above any
/// useful value and well below what would exhaust threads or memory.
inline constexpr int kMaxWorkers = 256;
inline constexpr int kMaxResident = 4096;

/// Manager knobs; the daemon exposes these as flags (docs/OPERATIONS.md).
struct ServiceOptions {
  /// Live-session cap; colder sessions exist only as snapshots.
  int max_resident = 64;
  /// Worker threads draining the request queue.
  int workers = 2;
  /// Bounded admission queue; a full queue rejects (backpressure).
  int queue_capacity = 256;
  /// Default per-request deadline; 0 = no deadline. Requests may override.
  int64_t default_deadline_ms = 0;

  /// Fails closed on out-of-range knobs: max_resident in [1,
  /// kMaxResident], workers in [1, kMaxWorkers], queue_capacity >= 1,
  /// default_deadline_ms >= 0. SessionManager CCR_CHECKs it.
  Status Validate() const;
};

/// \brief One queued request. `session_id` addresses the session;
/// `payload` is the request-type-specific JSON body (see docs/PROTOCOL.md).
struct ServiceRequest {
  RequestType type = RequestType::kPing;
  std::string session_id;
  std::string payload;
  /// Overrides ServiceOptions::default_deadline_ms when > 0.
  int64_t deadline_ms = 0;
};

/// \brief Outcome of a request: a wire status plus the JSON reply body
/// (an {"error": ...} document when code != kOk).
struct ServiceReply {
  ErrorCode code = ErrorCode::kOk;
  std::string payload;
};

/// \brief Warm-session cache + worker pool. Thread-safe; one instance per
/// daemon. Destruction drains and joins the workers.
class SessionManager {
 public:
  explicit SessionManager(const ServiceOptions& options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Asynchronous entry point: enqueues the request and invokes `done`
  /// (on a worker thread) with the reply. Returns false without invoking
  /// `done` when the admission queue is full or the manager is shutting
  /// down — the caller synthesizes the OVERLOADED / SHUTTING_DOWN reply.
  bool Submit(ServiceRequest request, std::function<void(ServiceReply)> done);

  /// Synchronous wrapper over Submit; returns the OVERLOADED reply
  /// directly when admission fails.
  ServiceReply Call(ServiceRequest request);

  /// Stops accepting work, drains the queue, joins the workers. Idempotent.
  void Shutdown();

  /// Sessions currently holding live solver state.
  int resident_sessions() const;
  /// Total sessions the manager knows (resident + evicted).
  int known_sessions() const;

 private:
  struct SessionEntry;
  struct Queued;

  void WorkerLoop();
  ServiceReply Dispatch(const ServiceRequest& request);
  ServiceReply HandleOpen(const ServiceRequest& request);
  ServiceReply HandleSessionOp(const ServiceRequest& request);
  ServiceReply HandleStats();

  /// Rehydrates `entry` if evicted (replaying its op log); no-op when the
  /// session is already live. Caller holds entry->mu.
  Status EnsureLive(SessionEntry* entry);
  /// Frees `entry`'s live state and returns its scratch; the op log stays.
  /// Caller holds entry->mu.
  void EvictLocked(SessionEntry* entry);
  /// Evicts least-recently-used live sessions until the resident count is
  /// within max_resident. Never evicts `keep`.
  void EnforceResidentCap(SessionEntry* keep);
  void TouchLru(SessionEntry* entry);

  SessionScratch* AcquireScratch();
  void ReleaseScratch(SessionScratch* scratch);

  const ServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Queued> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  std::unordered_map<std::string, std::shared_ptr<SessionEntry>> sessions_;
  /// LRU order over *live* sessions only; most recent at the back.
  std::list<SessionEntry*> lru_;
  int resident_ = 0;

  std::vector<std::unique_ptr<SessionScratch>> scratch_pool_;
  std::vector<SessionScratch*> free_scratches_;

  // Counters (exposed by STATS; see docs/OPERATIONS.md).
  int64_t opens_ = 0;
  int64_t rounds_ = 0;
  int64_t answers_ = 0;
  int64_t extends_ = 0;
  int64_t evictions_lru_ = 0;
  int64_t evictions_explicit_ = 0;
  int64_t rehydrations_ = 0;
  int64_t rejected_overload_ = 0;
  int64_t rejected_deadline_ = 0;
  int64_t closed_ = 0;
};

}  // namespace service
}  // namespace ccr

#endif  // CCR_SERVICE_SESSION_MANAGER_H_
