#include "src/service/session_manager.h"

#include <chrono>
#include <string>
#include <utility>

#include "src/common/json.h"
#include "src/core/resolver.h"

namespace ccr {
namespace service {

namespace {

using Clock = std::chrono::steady_clock;

ServiceReply ErrorReply(ErrorCode code, const std::string& message) {
  json::Writer w(0);
  w.BeginObject();
  w.Key("error");
  w.Value(message);
  w.EndObject();
  return ServiceReply{code, std::move(w).Take()};
}

ServiceReply OkReply(std::string payload) {
  return ServiceReply{ErrorCode::kOk, std::move(payload)};
}

}  // namespace

/// One session's slot in the cache. `snapshot` (spec + op log) is always
/// current and is the only state an evicted session keeps: eviction drops
/// `live` and returns `scratch`, and rehydration replays `snapshot`.
struct SessionManager::SessionEntry {
  std::string id;
  std::mutex mu;
  SessionSnapshot snapshot;
  std::optional<ResolutionSession> live;
  SessionScratch* scratch = nullptr;
  std::list<SessionEntry*>::iterator lru_it;
  bool in_lru = false;
  bool closed = false;
};

struct SessionManager::Queued {
  ServiceRequest request;
  std::function<void(ServiceReply)> done;
  Clock::time_point deadline = Clock::time_point::max();
};

Status ServiceOptions::Validate() const {
  if (max_resident < 1 || max_resident > kMaxResident) {
    return Status::InvalidArgument(
        "ServiceOptions: max_resident must be in [1, " +
        std::to_string(kMaxResident) + "]");
  }
  if (workers < 1 || workers > kMaxWorkers) {
    return Status::InvalidArgument("ServiceOptions: workers must be in [1, " +
                                   std::to_string(kMaxWorkers) + "]");
  }
  if (queue_capacity < 1) {
    return Status::InvalidArgument(
        "ServiceOptions: queue_capacity must be >= 1");
  }
  if (default_deadline_ms < 0) {
    return Status::InvalidArgument(
        "ServiceOptions: default_deadline_ms must be >= 0");
  }
  return Status::OK();
}

SessionManager::SessionManager(const ServiceOptions& options)
    : options_(options) {
  CCR_CHECK(options_.Validate().ok());
  const int workers = options_.workers;
  const int pool = options_.max_resident;
  scratch_pool_.reserve(static_cast<size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    scratch_pool_.push_back(std::make_unique<SessionScratch>());
    free_scratches_.push_back(scratch_pool_.back().get());
  }
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SessionManager::~SessionManager() { Shutdown(); }

void SessionManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // Idempotent: a second caller must not double-join.
      if (workers_.empty()) return;
    }
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

bool SessionManager::Submit(ServiceRequest request,
                            std::function<void(ServiceReply)> done) {
  Queued q;
  const int64_t deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms
                              : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    q.deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  }
  q.request = std::move(request);
  q.done = std::move(done);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return false;
    if (static_cast<int>(queue_.size()) >= options_.queue_capacity) {
      ++rejected_overload_;
      return false;
    }
    queue_.push_back(std::move(q));
  }
  queue_cv_.notify_one();
  return true;
}

ServiceReply SessionManager::Call(ServiceRequest request) {
  // A tiny latch instead of std::promise: Call must work from any thread
  // and the worker invokes the callback exactly once.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    ServiceReply reply;
  };
  auto state = std::make_shared<State>();
  const bool admitted = Submit(std::move(request), [state](ServiceReply r) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->reply = std::move(r);
    state->ready = true;
    state->cv.notify_one();
  });
  if (!admitted) {
    bool down;
    {
      std::lock_guard<std::mutex> lock(mu_);
      down = shutdown_;
    }
    return down ? ErrorReply(ErrorCode::kShuttingDown, "daemon is draining")
                : ErrorReply(ErrorCode::kOverloaded,
                             "admission queue full; retry with backoff");
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->ready; });
  return std::move(state->reply);
}

void SessionManager::WorkerLoop() {
  while (true) {
    Queued q;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      q = std::move(queue_.front());
      queue_.pop_front();
    }
    ServiceReply reply;
    if (Clock::now() > q.deadline) {
      // The deadline bounds time-in-queue: an expired request is answered
      // without touching the engine (mid-solve cancellation is out of
      // scope; see docs/OPERATIONS.md).
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++rejected_deadline_;
      }
      reply = ErrorReply(ErrorCode::kDeadlineExceeded,
                         "request expired while queued");
    } else {
      reply = Dispatch(q.request);
    }
    if (q.done) q.done(std::move(reply));
  }
}

ServiceReply SessionManager::Dispatch(const ServiceRequest& request) {
  switch (request.type) {
    case RequestType::kPing: {
      if (!request.payload.empty()) {
        json::Reader rd(request.payload, "ping request");
        int sleep_ms = 0;
        Status st = rd.ParseObject([&](const std::string& f) -> Status {
          if (f == "sleep_ms") return rd.ParseInt(&sleep_ms);
          return rd.Fail("unknown ping field '" + f + "'");
        });
        if (!st.ok()) return ErrorReply(ErrorCode::kBadRequest, st.message());
        if (sleep_ms > 0) {
          // Test hook: lets suites park the workers deterministically to
          // drive the queue into overload / deadline expiry.
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        }
      }
      return OkReply("{\"pong\": true}");
    }
    case RequestType::kOpen:
      return HandleOpen(request);
    case RequestType::kRound:
    case RequestType::kAnswer:
    case RequestType::kExtend:
    case RequestType::kSnapshot:
    case RequestType::kEvict:
    case RequestType::kClose:
      return HandleSessionOp(request);
    case RequestType::kStats:
      return HandleStats();
    case RequestType::kShutdown:
      // Daemon lifecycle belongs to the server layer (it must stop
      // accepting connections); a manager seeing SHUTDOWN is a protocol
      // misuse.
      return ErrorReply(ErrorCode::kBadRequest,
                        "SHUTDOWN is handled by the server, not the manager");
  }
  return ErrorReply(ErrorCode::kBadRequest, "unknown request type");
}

ServiceReply SessionManager::HandleOpen(const ServiceRequest& request) {
  if (request.session_id.empty()) {
    return ErrorReply(ErrorCode::kBadRequest, "OPEN wants a session id");
  }
  auto parsed = SnapshotFromJson(request.payload);
  if (!parsed.ok()) {
    return ErrorReply(ErrorCode::kBadRequest, parsed.status().message());
  }
  auto entry = std::make_shared<SessionEntry>();
  entry->id = request.session_id;
  entry->snapshot = std::move(parsed).value();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return ErrorReply(ErrorCode::kShuttingDown, "daemon is draining");
    }
    if (!sessions_.emplace(entry->id, entry).second) {
      return ErrorReply(ErrorCode::kAlreadyExists,
                        "session '" + entry->id + "' is already open");
    }
  }
  // Build the live session outside mu_ (replay can be expensive); the
  // per-entry mutex keeps concurrent requests for this id waiting.
  ServiceReply reply;
  {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    SessionScratch* scratch = AcquireScratch();
    Result<ResolutionSession> live = ReplaySnapshot(entry->snapshot, scratch);
    if (!live.ok()) {
      ReleaseScratch(scratch);
      {
        std::lock_guard<std::mutex> lock(mu_);
        sessions_.erase(entry->id);
      }
      return ErrorReply(ErrorCode::kInternal, live.status().message());
    }
    entry->live.emplace(std::move(live).value());
    entry->scratch = scratch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++resident_;
      ++opens_;
    }
    TouchLru(entry.get());
    json::Writer w(0);
    w.BeginObject();
    w.Key("opened");
    w.Value(true);
    w.Key("replayed_ops");
    w.Value(static_cast<int>(entry->snapshot.ops.size()));
    w.EndObject();
    reply = OkReply(std::move(w).Take());
  }
  EnforceResidentCap(entry.get());
  return reply;
}

ServiceReply SessionManager::HandleSessionOp(const ServiceRequest& request) {
  std::shared_ptr<SessionEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(request.session_id);
    if (it != sessions_.end()) entry = it->second;
  }
  if (!entry) {
    return ErrorReply(ErrorCode::kNotFound,
                      "no session '" + request.session_id + "'");
  }
  ServiceReply reply;
  bool became_resident = false;
  {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (entry->closed) {
      return ErrorReply(ErrorCode::kNotFound,
                        "no session '" + request.session_id + "'");
    }
    switch (request.type) {
      case RequestType::kRound: {
        const bool was_live = entry->live.has_value();
        Status st = EnsureLive(entry.get());
        if (!st.ok()) return ErrorReply(ErrorCode::kInternal, st.message());
        became_resident = !was_live;
        const RoundOutcome out = RunSessionRound(&entry->live.value());
        entry->snapshot.ops.push_back(SessionOp{SessionOp::Kind::kRound, {}});
        TouchLru(entry.get());
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++rounds_;
        }
        reply = OkReply(RoundOutcomeToJson(out));
        break;
      }
      case RequestType::kAnswer:
      case RequestType::kExtend: {
        PartialTemporalOrder delta;
        if (request.type == RequestType::kAnswer) {
          json::Reader rd(request.payload, "answer request");
          std::vector<UserOracle::Answer> answers;
          Status st = rd.ParseObject([&](const std::string& f) -> Status {
            if (f != "answers") {
              return rd.Fail("unknown answer field '" + f + "'");
            }
            return rd.ParseArray([&]() -> Status {
              int slot = 0;
              UserOracle::Answer ans{-1, Value::Null()};
              CCR_RETURN_NOT_OK(rd.ParseArray([&]() -> Status {
                if (slot == 0) {
                  ++slot;
                  return rd.ParseInt(&ans.attr);
                }
                if (slot == 1) {
                  ++slot;
                  return ParseValue(&rd, &ans.value);
                }
                return rd.Fail("answer wants [attr, value]");
              }));
              if (slot != 2) return rd.Fail("answer wants [attr, value]");
              answers.push_back(std::move(ans));
              return Status::OK();
            });
          });
          if (!st.ok() || answers.empty()) {
            return ErrorReply(ErrorCode::kBadRequest,
                              st.ok() ? "ANSWER wants at least one answer"
                                      : st.message());
          }
          // The delta is built against the session's *current* spec, so
          // the session must be live first.
          const bool was_live = entry->live.has_value();
          Status live_st = EnsureLive(entry.get());
          if (!live_st.ok()) {
            return ErrorReply(ErrorCode::kInternal, live_st.message());
          }
          became_resident = !was_live;
          auto made = MakeAnswerDelta(entry->live->spec(), answers);
          if (!made.ok()) {
            return ErrorReply(ErrorCode::kBadRequest, made.status().message());
          }
          delta = std::move(made).value();
        } else {
          json::Reader rd(request.payload, "extend request");
          Status st = ParseDelta(&rd, &delta);
          if (st.ok() && !rd.AtEnd()) st = rd.Fail("trailing content");
          if (!st.ok()) return ErrorReply(ErrorCode::kBadRequest, st.message());
          const bool was_live = entry->live.has_value();
          Status live_st = EnsureLive(entry.get());
          if (!live_st.ok()) {
            return ErrorReply(ErrorCode::kInternal, live_st.message());
          }
          became_resident = !was_live;
        }
        Status st = entry->live->ExtendWith(delta);
        if (!st.ok()) {
          // The extension may be structurally invalid (out-of-range tuple
          // index); the session stays at its pre-extend state.
          return ErrorReply(ErrorCode::kBadRequest, st.message());
        }
        entry->snapshot.ops.push_back(
            SessionOp{SessionOp::Kind::kExtend, std::move(delta)});
        TouchLru(entry.get());
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (request.type == RequestType::kAnswer) {
            ++answers_;
          } else {
            ++extends_;
          }
        }
        json::Writer w(0);
        w.BeginObject();
        w.Key("extended");
        w.Value(true);
        w.Key("ops");
        w.Value(static_cast<int>(entry->snapshot.ops.size()));
        w.EndObject();
        reply = OkReply(std::move(w).Take());
        break;
      }
      case RequestType::kSnapshot:
        // Works on live and evicted sessions alike — the op log is always
        // current.
        reply = OkReply(SnapshotToJson(entry->snapshot, /*indent=*/0));
        break;
      case RequestType::kEvict: {
        const bool was_live = entry->live.has_value();
        if (was_live) {
          EvictLocked(entry.get());
          std::lock_guard<std::mutex> lock(mu_);
          ++evictions_explicit_;
        }
        json::Writer w(0);
        w.BeginObject();
        w.Key("evicted");
        w.Value(true);
        w.Key("was_live");
        w.Value(was_live);
        w.EndObject();
        reply = OkReply(std::move(w).Take());
        break;
      }
      case RequestType::kClose: {
        if (entry->live.has_value()) {
          entry->live.reset();
          SessionScratch* scratch = entry->scratch;
          entry->scratch = nullptr;
          std::lock_guard<std::mutex> lock(mu_);
          --resident_;
          if (entry->in_lru) {
            lru_.erase(entry->lru_it);
            entry->in_lru = false;
          }
          if (scratch != nullptr) free_scratches_.push_back(scratch);
        }
        entry->closed = true;
        {
          std::lock_guard<std::mutex> lock(mu_);
          sessions_.erase(entry->id);
          ++closed_;
        }
        reply = OkReply("{\"closed\": true}");
        break;
      }
      default:
        return ErrorReply(ErrorCode::kBadRequest, "unknown session op");
    }
  }
  if (became_resident) EnforceResidentCap(entry.get());
  return reply;
}

ServiceReply SessionManager::HandleStats() {
  json::Writer w(0);
  std::lock_guard<std::mutex> lock(mu_);
  w.BeginObject();
  w.Key("resident");
  w.Value(resident_);
  w.Key("known");
  w.Value(static_cast<int>(sessions_.size()));
  w.Key("queue_depth");
  w.Value(static_cast<int>(queue_.size()));
  w.Key("opens");
  w.Value(opens_);
  w.Key("rounds");
  w.Value(rounds_);
  w.Key("answers");
  w.Value(answers_);
  w.Key("extends");
  w.Value(extends_);
  w.Key("evictions_lru");
  w.Value(evictions_lru_);
  w.Key("evictions_explicit");
  w.Value(evictions_explicit_);
  w.Key("rehydrations");
  w.Value(rehydrations_);
  w.Key("rejected_overload");
  w.Value(rejected_overload_);
  w.Key("rejected_deadline");
  w.Value(rejected_deadline_);
  w.Key("closed");
  w.Value(closed_);
  w.EndObject();
  return OkReply(std::move(w).Take());
}

Status SessionManager::EnsureLive(SessionEntry* entry) {
  if (entry->live.has_value()) return Status::OK();
  SessionScratch* scratch = AcquireScratch();
  Result<ResolutionSession> live = ReplaySnapshot(entry->snapshot, scratch);
  if (!live.ok()) {
    ReleaseScratch(scratch);
    return live.status();
  }
  entry->live.emplace(std::move(live).value());
  entry->scratch = scratch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++resident_;
    ++rehydrations_;
  }
  TouchLru(entry);
  return Status::OK();
}

void SessionManager::EvictLocked(SessionEntry* entry) {
  entry->live.reset();
  SessionScratch* scratch = entry->scratch;
  entry->scratch = nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  --resident_;
  if (entry->in_lru) {
    lru_.erase(entry->lru_it);
    entry->in_lru = false;
  }
  if (scratch != nullptr) free_scratches_.push_back(scratch);
}

void SessionManager::EnforceResidentCap(SessionEntry* keep) {
  while (true) {
    std::shared_ptr<SessionEntry> victim;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (resident_ <= options_.max_resident) return;
      for (SessionEntry* candidate : lru_) {
        if (candidate == keep) continue;
        auto it = sessions_.find(candidate->id);
        if (it != sessions_.end()) victim = it->second;
        break;
      }
      if (!victim) return;  // only `keep` is resident; transient overshoot
    }
    // Locking order is entry->mu then mu_; the victim's mutex cannot be
    // taken under mu_, so a concurrent request may win the race and touch
    // the victim first — then it is simply evicted slightly later.
    std::lock_guard<std::mutex> victim_lock(victim->mu);
    if (victim->closed || !victim->live.has_value()) continue;
    EvictLocked(victim.get());
    std::lock_guard<std::mutex> lock(mu_);
    ++evictions_lru_;
  }
}

void SessionManager::TouchLru(SessionEntry* entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entry->in_lru) lru_.erase(entry->lru_it);
  lru_.push_back(entry);
  entry->lru_it = std::prev(lru_.end());
  entry->in_lru = true;
}

SessionScratch* SessionManager::AcquireScratch() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_scratches_.empty()) {
    // Transient overshoot past max_resident (a burst of opens before the
    // cap is enforced): run scratch-less; results are identical either
    // way, only allocation warmth differs.
    return nullptr;
  }
  SessionScratch* scratch = free_scratches_.back();
  free_scratches_.pop_back();
  return scratch;
}

void SessionManager::ReleaseScratch(SessionScratch* scratch) {
  if (scratch == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  free_scratches_.push_back(scratch);
}

int SessionManager::resident_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_;
}

int SessionManager::known_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sessions_.size());
}

}  // namespace service
}  // namespace ccr
