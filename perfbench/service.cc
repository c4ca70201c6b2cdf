#include "perfbench/service.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

using ccr::service::ErrorCode;
using ccr::service::RequestType;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kMaxResident = 3;  // below the 4 live sessions of 2 clients

ccr::service::ServiceOptions DaemonOptions() {
  ccr::service::ServiceOptions o;
  o.max_resident = kMaxResident;
  o.workers = kWorkers;
  return o;
}

// The request types a script uses, with their span names.
struct OpName {
  RequestType type;
  const char* op;
  const char* client_span;
  const char* manager_span;
};
constexpr OpName kOps[] = {
    {RequestType::kPing, "ping", "service.client.ping", "service.manager.ping"},
    {RequestType::kOpen, "open", "service.client.open", "service.manager.open"},
    {RequestType::kRound, "round", "service.client.round",
     "service.manager.round"},
    {RequestType::kAnswer, "answer", "service.client.answer",
     "service.manager.answer"},
    {RequestType::kEvict, "evict", "service.client.evict",
     "service.manager.evict"},
    {RequestType::kSnapshot, "snapshot", "service.client.snapshot",
     "service.manager.snapshot"},
    {RequestType::kClose, "close", "service.client.close",
     "service.manager.close"},
};

const OpName& Op(RequestType type) {
  for (const OpName& o : kOps) {
    if (o.type == type) return o;
  }
  return kOps[0];
}

// The first suggested attribute the hidden truth knows: TruthOracle's
// choice with one answer per round.
bool PickAnswer(const std::vector<int>& suggested,
                const std::vector<ccr::Value>& truth,
                ccr::UserOracle::Answer* out) {
  for (const int attr : suggested) {
    if (!truth[attr].is_null()) {
      *out = {attr, truth[attr]};
      return true;
    }
  }
  return false;
}

std::string AnswerBody(const ccr::UserOracle::Answer& ans) {
  ccr::json::Writer w(0);
  w.BeginObject();
  w.Key("answers");
  w.BeginArray();
  w.BeginArray();
  w.Value(ans.attr);
  w.ArraySep(false);
  ccr::service::WriteValue(ans.value, &w);
  w.EndArray();
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

Script BuildScript(const Corpus& corpus, int entity, bool naive,
                   ccr::SessionScratch* scratch, int64_t* failed) {
  const ccr::EntityCase& ec = corpus.ds.entities[entity];
  Script script;
  script.entity = entity;
  ccr::service::SessionSnapshot snap;
  snap.engine.naive_deduce = naive;
  snap.spec = corpus.specs[entity];
  script.steps.push_back(
      {RequestType::kOpen, ccr::service::SnapshotToJson(snap, 0), ""});
  auto options = ccr::service::MakeResolveOptions(snap.engine, scratch);
  if (!options.ok()) {
    ++*failed;
    return script;
  }
  auto session = ccr::ResolutionSession::Create(snap.spec, *options);
  if (!session.ok()) {
    ++*failed;
    return script;
  }
  for (int k = 0; k <= kMaxRounds; ++k) {
    const ccr::service::RoundOutcome out =
        ccr::service::RunSessionRound(&*session);
    snap.ops.push_back({ccr::service::SessionOp::Kind::kRound, {}});
    script.steps.push_back(
        {RequestType::kRound, "", ccr::service::RoundOutcomeToJson(out)});
    ccr::UserOracle::Answer ans{-1, ccr::Value::Null()};
    if (!out.valid || out.complete || !out.has_suggestion || k == kMaxRounds ||
        !PickAnswer(out.suggested_attrs, ec.truth, &ans)) {
      break;
    }
    auto delta = ccr::MakeAnswerDelta(session->spec(), {ans});
    if (!delta.ok() || !session->ExtendWith(*delta).ok()) {
      ++*failed;
      break;
    }
    snap.ops.push_back(
        {ccr::service::SessionOp::Kind::kExtend, std::move(delta).value()});
    script.steps.push_back({RequestType::kAnswer, AnswerBody(ans), ""});
    // Every other round, in alternating phase across sessions: about a
    // quarter of all ROUNDs then pay a replay.
    if ((k + entity) % 2 == 0) {
      script.steps.push_back({RequestType::kEvict, "", ""});
    }
  }
  script.steps.push_back(
      {RequestType::kSnapshot, "", ccr::service::SnapshotToJson(snap, 0)});
  script.replay_round = ccr::service::RoundOutcomeToJson(
      ccr::service::RunSessionRound(&*session));
  return script;
}

// ---------------------------------------------------------------------------
// Transports: the wire (ServiceClient) or the manager itself.
// ---------------------------------------------------------------------------

struct Reply {
  bool ok = false;
  std::string body;
};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual Reply Call(RequestType type, const std::string& id,
                     const std::string& body) = 0;
};

class WireTransport : public Transport {
 public:
  WireTransport(ccr::service::ServiceClient client, Tracer* tracer)
      : client_(std::move(client)), tracer_(tracer) {}

  Reply Call(RequestType type, const std::string& id,
             const std::string& body) override {
    ScopedSpan span(tracer_, Op(type).client_span, id);
    auto frame = client_.Call(type, id, body);
    Reply r;
    r.ok = frame.ok() && frame->status == ErrorCode::kOk;
    if (frame.ok()) r.body = std::move(frame->body);
    return r;
  }

 private:
  ccr::service::ServiceClient client_;
  Tracer* tracer_;
};

class ManagerTransport : public Transport {
 public:
  ManagerTransport(ccr::service::SessionManager* manager, Tracer* tracer)
      : manager_(manager), tracer_(tracer) {}

  Reply Call(RequestType type, const std::string& id,
             const std::string& body) override {
    ScopedSpan span(tracer_, Op(type).manager_span, id);
    ccr::service::ServiceRequest request;
    request.type = type;
    request.session_id = id;
    request.payload = body;
    ccr::service::ServiceReply reply = manager_->Call(std::move(request));
    return {reply.code == ErrorCode::kOk, std::move(reply.payload)};
  }

 private:
  ccr::service::SessionManager* manager_;
  Tracer* tracer_;
};

// Makes client `c`'s transport (null on failure).
using TransportFactory = std::function<std::unique_ptr<Transport>(int c)>;

TransportFactory Wire(const std::string& address,
                      std::vector<Tracer>* tracers) {
  return [address, tracers](int c) -> std::unique_ptr<Transport> {
    auto client = ccr::service::ServiceClient::Dial(address);
    if (!client.ok()) return nullptr;
    return std::make_unique<WireTransport>(
        std::move(client).value(), tracers ? &(*tracers)[c] : nullptr);
  };
}

TransportFactory Direct(ccr::service::SessionManager* manager,
                        std::vector<Tracer>* tracers) {
  return [manager, tracers](int c) -> std::unique_ptr<Transport> {
    return std::make_unique<ManagerTransport>(
        manager, tracers ? &(*tracers)[c] : nullptr);
  };
}

// Median round trip of an empty request (PING) through `t`.
double PingMs(Transport* t, Outcome* out) {
  constexpr int kPings = 200;
  Samples s;
  for (int i = 0; i < kPings; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (!t->Call(RequestType::kPing, "", "").ok) ++out->failed;
    s.Add(MsSince(t0));
  }
  out->attempted += kPings;
  bool enough = true;
  return s.Percentile(0.5, 10, &enough);
}

// What one client loop saw.
struct LoopStats {
  int64_t requests = 0;
  int64_t failed = 0;

  void Add(const LoopStats& o) {
    requests += o.requests;
    failed += o.failed;
  }
};

// Closed loop: client c drives scripts c, c + kClients, ... in order, one
// request at a time, and closes each session only when its next one is
// done. Every reply is checked against the script; `snapshots` receives
// each session's final snapshot (each slot written by one client only).
LoopStats RunLoop(const std::vector<Script>& scripts,
                  const TransportFactory& make, const std::string& prefix,
                  std::vector<std::string>* snapshots) {
  const int n = static_cast<int>(scripts.size());
  snapshots->assign(n, "");
  std::vector<LoopStats> per(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& st = per[c];
      std::unique_ptr<Transport> t = make(c);
      if (t == nullptr) {
        ++st.failed;
        return;
      }
      std::string prev;
      auto close_prev = [&] {
        if (prev.empty()) return;
        ++st.requests;
        if (!t->Call(RequestType::kClose, prev, "").ok) ++st.failed;
        prev.clear();
      };
      for (int s = c; s < n; s += kClients) {
        const std::string id = prefix + std::to_string(s);
        for (const Step& step : scripts[s].steps) {
          const Reply r = t->Call(step.type, id, step.body);
          ++st.requests;
          if (!r.ok || (!step.expected.empty() && r.body != step.expected)) {
            ++st.failed;
            break;
          }
          if (step.type == RequestType::kSnapshot) (*snapshots)[s] = r.body;
        }
        close_prev();
        prev = id;
      }
      close_prev();
    });
  }
  for (std::thread& th : threads) th.join();
  LoopStats total;
  for (const LoopStats& st : per) total.Add(st);
  return total;
}

// The daemon: a manager plus its loopback server, torn down in order.
class Daemon {
 public:
  Daemon() : manager_(DaemonOptions()), server_(&manager_, {}) {}
  ~Daemon() {
    server_.Shutdown();
    manager_.Shutdown();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  ccr::Status Start() { return server_.Start(); }
  std::string address() const {
    return "tcp:" + std::to_string(server_.port());
  }

 private:
  ccr::service::SessionManager manager_;
  ccr::service::Server server_;
};

// Counters from a STATS reply.
struct StatsView {
  bool ok = false;
  int64_t rehydrations = 0;
  int64_t evictions = 0;
  int64_t rejected = 0;
};

StatsView ReadStats(const std::string& address) {
  StatsView out;
  auto client = ccr::service::ServiceClient::Dial(address);
  if (!client.ok()) return out;
  auto reply = client->Call(RequestType::kStats, "", "");
  if (!reply.ok() || reply->status != ErrorCode::kOk) return out;
  ccr::json::Reader rd(reply->body, "stats reply");
  const ccr::Status st = rd.ParseObject([&](const std::string& f) {
    int64_t v = 0;
    CCR_RETURN_NOT_OK(rd.ParseInt64(&v));
    if (f == "rehydrations") out.rehydrations = v;
    if (f == "evictions_lru" || f == "evictions_explicit") out.evictions += v;
    if (f == "rejected_overload" || f == "rejected_deadline") {
      out.rejected += v;
    }
    return ccr::Status::OK();
  });
  out.ok = st.ok();
  return out;
}

}  // namespace

std::vector<Script> BuildScripts(const Corpus& corpus,
                                 const std::vector<int>& entities,
                                 bool naive_deduce, int64_t* failed) {
  // Scripts are independent, so the daemon's worker count builds them in
  // parallel, each thread with its own scratch.
  const size_t n = entities.size();
  std::vector<Script> scripts(n);
  std::vector<int64_t> failures(kWorkers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      ccr::SessionScratch scratch;
      for (size_t i = t; i < n; i += kWorkers) {
        scripts[i] = BuildScript(corpus, entities[i], naive_deduce, &scratch,
                                 &failures[t]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const int64_t f : failures) *failed += f;
  return scripts;
}

void TraceServiceLegs(const std::vector<Script>& scripts, Outcome* out) {
  Daemon daemon;
  if (!daemon.Start().ok()) {
    ++out->failed;
    return;
  }
  const std::string addr = daemon.address();

  // Leg 1: traced pass over the wire.
  const StatsView before = ReadStats(addr);
  std::vector<Tracer> wire_tracers(kClients);
  std::vector<std::string> snapshots;
  const LoopStats wire =
      RunLoop(scripts, Wire(addr, &wire_tracers), "tw", &snapshots);
  const StatsView after = ReadStats(addr);
  out->attempted += wire.requests;
  out->failed += wire.failed + (before.ok && after.ok ? 0 : 1) +
                 (after.rejected - before.rejected);
  double client_ping_ms = 0;
  if (std::unique_ptr<Transport> t = Wire(addr, &wire_tracers)(0)) {
    client_ping_ms = PingMs(t.get(), out);
  } else {
    ++out->failed;
  }

  // Leg 2: the same pass straight into a fresh manager. The wire's share
  // of a request is the PING round trip minus the manager's.
  std::vector<Tracer> manager_tracers(kClients);
  double manager_ping_ms = 0;
  {
    ccr::service::SessionManager manager(DaemonOptions());
    std::vector<std::string> unused;
    const LoopStats direct = RunLoop(
        scripts, Direct(&manager, &manager_tracers), "tm", &unused);
    out->attempted += direct.requests;
    out->failed += direct.failed;
    manager_ping_ms = PingMs(Direct(&manager, &manager_tracers)(0).get(), out);
    manager.Shutdown();
  }

  // Leg 3: snapshot round trip and replay of every final snapshot.
  Tracer replay_tracer;
  ccr::SessionScratch scratch;
  for (size_t s = 0; s < scripts.size(); ++s) {
    const std::string& body = snapshots[s];
    const std::string owner = "session-" + std::to_string(scripts[s].entity);
    ++out->attempted;
    ccr::Result<ccr::service::SessionSnapshot> parsed =
        ccr::Status::Internal("no snapshot");
    {
      ScopedSpan span(&replay_tracer, "service.snapshot", owner);
      parsed = ccr::service::SnapshotFromJson(body);
      if (!parsed.ok() || ccr::service::SnapshotToJson(*parsed, 0) != body) {
        ++out->failed;
        continue;
      }
    }
    ccr::Result<ccr::ResolutionSession> live = ccr::Status::Internal("");
    {
      ScopedSpan span(&replay_tracer, "service.replay", owner);
      live = ccr::service::ReplaySnapshot(*parsed, &scratch);
    }
    if (!live.ok() || ccr::service::RoundOutcomeToJson(
                          ccr::service::RunSessionRound(&*live)) !=
                          scripts[s].replay_round) {
      ++out->failed;
    }
  }

  Tracer all;
  for (const Tracer& t : wire_tracers) all.Append(t);
  for (const Tracer& t : manager_tracers) all.Append(t);
  all.Append(replay_tracer);
  const std::map<std::string, SelfTime> self = SelfTimes(all.spans());
  auto mean = [&](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() || it->second.count == 0
               ? 0.0
               : it->second.ms / static_cast<double>(it->second.count);
  };
  Metrics& m = out->metrics;
  for (const OpName& o : kOps) {
    m.Set(std::string("service.manager_ms.") + o.op, mean(o.manager_span),
          "ms");
  }
  m.Set("service.wire_ms", client_ping_ms - manager_ping_ms, "ms");
  m.Set("service.replay_ms", mean("service.replay"), "ms");
  m.Set("service.snapshot_ms", mean("service.snapshot"), "ms");
  m.Set("service.rehydrations",
        static_cast<double>(after.rehydrations - before.rehydrations),
        "count");
  m.Set("service.evictions",
        static_cast<double>(after.evictions - before.evictions), "count");
  m.Set("service.rejected",
        static_cast<double>(after.rejected - before.rejected), "count");
  out->spans.Append(all);
}

}  // namespace perfbench
