// bench_service: load generator for the resolution service (ccr_serve).
//
// Drives a mixed OPEN / ROUND / ANSWER / EVICT / SNAPSHOT / CLOSE workload
// from several client threads and reports sessions/sec plus p50/p99 ROUND
// latency. Every ROUND and SNAPSHOT reply is compared byte-for-byte
// against a local never-evicted session driven through the identical op
// sequence — with the resident cap set below the session count and an
// explicit EVICT every other round, every session is evicted and
// rehydrated mid-conversation, so `identical_after_rehydrate` is the
// serving-layer equivalence gate (scripts/bench_smoke.sh fails on false).
//
// Modes:
//   bench_service                      in-process server on a loopback port
//   bench_service --connect tcp:PORT   drive an external ccr_serve
//   bench_service --shutdown           send SHUTDOWN when done (external
//                                      daemons; implied clean_shutdown gate)
//   bench_service --merge-into FILE    also splice the section into an
//                                      existing BENCH_throughput.json as
//                                      its "service" key
//
// Knobs (flags override env, env overrides defaults; each a positive
// integer, anything else exits 2):
//   --sessions N / CCR_BENCH_SERVICE_SESSIONS  (default 24)
//   --clients N  / CCR_BENCH_SERVICE_CLIENTS   (default 4, at most 512)
//   --tuples N   / CCR_BENCH_SERVICE_TUPLES    (default 60)
//   --rounds N   / CCR_BENCH_SERVICE_ROUNDS    (default 3)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "src/common/timer.h"

namespace ccr {
namespace service {
namespace {

using bench::BenchInt;

// Most client threads: each starts a thread, and the in-process server
// runs half as many workers, which must stay within kMaxWorkers.
constexpr int kMaxClients = 2 * kMaxWorkers;
static_assert(kMaxClients <= kMaxConnections);

struct BenchConfig {
  int sessions = BenchInt("CCR_BENCH_SERVICE_SESSIONS",
                          std::getenv("CCR_BENCH_SERVICE_SESSIONS"), 24);
  int clients = BenchInt("CCR_BENCH_SERVICE_CLIENTS",
                         std::getenv("CCR_BENCH_SERVICE_CLIENTS"), 4,
                         kMaxClients);
  int tuples = BenchInt("CCR_BENCH_SERVICE_TUPLES",
                        std::getenv("CCR_BENCH_SERVICE_TUPLES"), 60);
  int rounds = BenchInt("CCR_BENCH_SERVICE_ROUNDS",
                        std::getenv("CCR_BENCH_SERVICE_ROUNDS"), 3);
  std::string connect;     // empty = in-process server
  std::string merge_into;  // empty = stdout only
  bool send_shutdown = false;
};

// Per-thread workload tally, merged after the join.
struct ClientTally {
  std::vector<double> round_ms;
  int sessions_done = 0;
  int rounds_done = 0;
  int answers_done = 0;
  int errors = 0;
  bool identical = true;
};

// Drives one session end to end: OPEN from a fresh snapshot, then rounds
// of ROUND (+ ANSWER from ground truth while the engine asks), an
// explicit EVICT every other round so the next request must rehydrate
// by replaying the session's in-memory op log, a final SNAPSHOT
// equivalence check, and CLOSE.
// The local mirror session executes the same ops and provides the
// expected reply bytes.
void DriveSession(ServiceClient* client, const Dataset& ds, int entity,
                  const std::string& id, const BenchConfig& cfg,
                  ClientTally* tally) {
  SessionSnapshot mirror;
  mirror.spec = ds.MakeSpec(entity);
  const std::vector<Value>& truth = ds.entities[entity].truth;

  auto opts = MakeResolveOptions(mirror.engine, nullptr);
  if (!opts.ok()) {
    ++tally->errors;
    return;
  }
  auto local = ResolutionSession::Create(mirror.spec, opts.value());
  if (!local.ok()) {
    ++tally->errors;
    return;
  }

  auto opened = client->Call(RequestType::kOpen, id,
                             SnapshotToJson(mirror, /*indent=*/0));
  if (!opened.ok() || opened.value().status != ErrorCode::kOk) {
    ++tally->errors;
    return;
  }

  Timer timer;
  for (int round = 0; round < cfg.rounds; ++round) {
    timer.Restart();
    auto reply = client->Call(RequestType::kRound, id, "");
    const double ms = timer.ElapsedMs();
    if (!reply.ok() || reply.value().status != ErrorCode::kOk) {
      ++tally->errors;
      return;
    }
    tally->round_ms.push_back(ms);
    ++tally->rounds_done;
    const RoundOutcome expected = RunSessionRound(&local.value());
    mirror.ops.push_back(SessionOp{SessionOp::Kind::kRound, {}});
    if (reply.value().body != RoundOutcomeToJson(expected)) {
      tally->identical = false;
    }
    if (!expected.valid || expected.complete || !expected.has_suggestion) {
      break;
    }

    // Answer up to two suggested attributes from ground truth, exactly as
    // an interactive user would.
    std::vector<UserOracle::Answer> answers;
    for (const int attr : expected.suggested_attrs) {
      if (!truth[attr].is_null()) answers.push_back({attr, truth[attr]});
      if (answers.size() == 2) break;
    }
    if (answers.empty()) break;
    json::Writer w(0);
    w.BeginObject();
    w.Key("answers");
    w.BeginArray();
    bool first = true;
    for (const auto& ans : answers) {
      w.ArraySep(first);
      first = false;
      w.BeginArray();
      w.Value(ans.attr);
      w.ArraySep(false);
      WriteValue(ans.value, &w);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
    auto extended = client->Call(RequestType::kAnswer, id, std::move(w).Take());
    if (!extended.ok() || extended.value().status != ErrorCode::kOk) {
      ++tally->errors;
      return;
    }
    ++tally->answers_done;
    auto delta = MakeAnswerDelta(local.value().spec(), answers);
    if (!delta.ok() || !local.value().ExtendWith(delta.value()).ok()) {
      ++tally->errors;
      return;
    }
    mirror.ops.push_back(
        SessionOp{SessionOp::Kind::kExtend, std::move(delta).value()});

    if (round % 2 == 0) {
      // Force the session cold so the next ROUND replays its op log —
      // the equivalence this bench exists to gate.
      auto evicted = client->Call(RequestType::kEvict, id, "");
      if (!evicted.ok() || evicted.value().status != ErrorCode::kOk) {
        ++tally->errors;
        return;
      }
    }
  }

  // The server's snapshot of this conversation must be byte-identical to
  // the locally maintained op log.
  auto snapshot = client->Call(RequestType::kSnapshot, id, "");
  if (!snapshot.ok() || snapshot.value().status != ErrorCode::kOk) {
    ++tally->errors;
    return;
  }
  if (snapshot.value().body != SnapshotToJson(mirror, /*indent=*/0)) {
    tally->identical = false;
  }
  auto closed = client->Call(RequestType::kClose, id, "");
  if (!closed.ok() || closed.value().status != ErrorCode::kOk) {
    ++tally->errors;
    return;
  }
  ++tally->sessions_done;
}

double Percentile(std::vector<double>* sorted_ms, double p) {
  if (sorted_ms->empty()) return 0.0;
  std::sort(sorted_ms->begin(), sorted_ms->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_ms->size() - 1) + 0.5);
  return (*sorted_ms)[std::min(idx, sorted_ms->size() - 1)];
}

// Pulls the counters bench cares about out of a STATS reply.
struct StatsView {
  int64_t rehydrations = 0;
  int64_t evictions = 0;
  int64_t rejected_overload = 0;
  bool ok = false;
};

StatsView ParseStats(const std::string& text) {
  StatsView out;
  json::Reader rd(text, "stats reply");
  int64_t ignored = 0;
  const Status st = rd.ParseObject([&](const std::string& f) -> Status {
    int64_t v = 0;
    CCR_RETURN_NOT_OK(rd.ParseInt64(&v));
    if (f == "rehydrations") {
      out.rehydrations = v;
    } else if (f == "evictions_lru" || f == "evictions_explicit") {
      out.evictions += v;
    } else if (f == "rejected_overload") {
      out.rejected_overload = v;
    } else {
      ignored = v;
    }
    return Status::OK();
  });
  (void)ignored;
  out.ok = st.ok();
  return out;
}

int Main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      cfg.connect = next_value("--connect");
    } else if (arg == "--merge-into") {
      cfg.merge_into = next_value("--merge-into");
    } else if (arg == "--shutdown") {
      cfg.send_shutdown = true;
    } else if (arg == "--sessions") {
      cfg.sessions = BenchInt("--sessions", next_value("--sessions"), 0);
    } else if (arg == "--clients") {
      cfg.clients =
          BenchInt("--clients", next_value("--clients"), 0, kMaxClients);
    } else if (arg == "--tuples") {
      cfg.tuples = BenchInt("--tuples", next_value("--tuples"), 0);
    } else if (arg == "--rounds") {
      cfg.rounds = BenchInt("--rounds", next_value("--rounds"), 0);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\n"
                   "usage: bench_service [--connect ADDR] [--shutdown]\n"
                   "  [--merge-into FILE] [--sessions N] [--clients N]\n"
                   "  [--tuples N] [--rounds N]\n",
                   arg.c_str());
      return 2;
    }
  }
  PersonOptions popts;
  popts.num_entities = std::min(cfg.sessions, 12);
  popts.min_tuples = cfg.tuples;
  popts.max_tuples = cfg.tuples + cfg.tuples / 5;
  popts.seed = 1337;
  const Dataset ds = GeneratePerson(popts);

  // In-process mode: a real server over a real loopback socket (the wire
  // path is part of what's measured), resident cap well below the session
  // count so LRU eviction happens alongside the explicit evicts.
  SessionManager* manager = nullptr;
  Server* server = nullptr;
  ServiceOptions service_opts;
  service_opts.max_resident = std::clamp(cfg.sessions / 4, 1, kMaxResident);
  service_opts.workers = std::max(2, cfg.clients / 2);
  std::string address = cfg.connect;
  if (address.empty()) {
    manager = new SessionManager(service_opts);
    // Every client holds one connection for the whole run.
    ServerOptions server_opts;
    server_opts.max_connections =
        std::max(server_opts.max_connections, cfg.clients);
    server = new Server(manager, server_opts);
    const Status st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "bench_service: %s\n", st.ToString().c_str());
      return 1;
    }
    address = "tcp:" + std::to_string(server->port());
  }

  std::vector<ClientTally> tallies(static_cast<size_t>(cfg.clients));
  std::vector<std::thread> threads;
  Timer wall;
  for (int c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<size_t>(c)];
      auto client = ServiceClient::Dial(address);
      if (!client.ok()) {
        ++tally.errors;
        return;
      }
      for (int s = c; s < cfg.sessions; s += cfg.clients) {
        DriveSession(&client.value(), ds,
                     s % static_cast<int>(ds.entities.size()),
                     "bench-" + std::to_string(s), cfg, &tally);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_sec = wall.ElapsedMs() / 1000.0;

  ClientTally total;
  for (const ClientTally& t : tallies) {
    total.round_ms.insert(total.round_ms.end(), t.round_ms.begin(),
                          t.round_ms.end());
    total.sessions_done += t.sessions_done;
    total.rounds_done += t.rounds_done;
    total.answers_done += t.answers_done;
    total.errors += t.errors;
    total.identical = total.identical && t.identical;
  }
  const double p50 = Percentile(&total.round_ms, 0.50);
  const double p99 = Percentile(&total.round_ms, 0.99);
  const double sessions_per_sec =
      wall_sec > 0 ? total.sessions_done / wall_sec : 0.0;

  // Final counters + shutdown, via the wire like everything else.
  StatsView stats;
  bool clean_shutdown = false;
  {
    auto client = ServiceClient::Dial(address);
    if (client.ok()) {
      auto reply = client.value().Call(RequestType::kStats, "", "");
      if (reply.ok() && reply.value().status == ErrorCode::kOk) {
        stats = ParseStats(reply.value().body);
      }
      if (cfg.send_shutdown) {
        auto bye = client.value().Call(RequestType::kShutdown, "", "");
        clean_shutdown = bye.ok() &&
                         bye.value().body == "{\"stopping\": true}";
      }
    }
  }
  if (server != nullptr) {
    // In-process: orderly teardown counts as the clean shutdown (it joins
    // every acceptor/connection/worker thread or hangs the bench).
    server->Shutdown();
    manager->Shutdown();
    delete server;
    delete manager;
    clean_shutdown = true;
  } else if (!cfg.send_shutdown) {
    // External daemon we were asked to leave running: shutdown not part
    // of this run's contract.
    clean_shutdown = true;
  }

  char section[1024];
  std::snprintf(
      section, sizeof(section),
      "{\n"
      "    \"sessions\": %d,\n"
      "    \"clients\": %d,\n"
      "    \"tuples\": %d,\n"
      "    \"sessions_done\": %d,\n"
      "    \"rounds_done\": %d,\n"
      "    \"answers_done\": %d,\n"
      "    \"errors\": %d,\n"
      "    \"wall_seconds\": %.3f,\n"
      "    \"sessions_per_sec\": %.3f,\n"
      "    \"round_p50_ms\": %.3f,\n"
      "    \"round_p99_ms\": %.3f,\n"
      "    \"rehydrations\": %lld,\n"
      "    \"evictions\": %lld,\n"
      "    \"rejected_overload\": %lld,\n"
      "    \"identical_after_rehydrate\": %s,\n"
      "    \"clean_shutdown\": %s\n"
      "  }",
      cfg.sessions, cfg.clients, cfg.tuples, total.sessions_done,
      total.rounds_done, total.answers_done, total.errors, wall_sec,
      sessions_per_sec, p50, p99,
      static_cast<long long>(stats.rehydrations),
      static_cast<long long>(stats.evictions),
      static_cast<long long>(stats.rejected_overload),
      total.identical ? "true" : "false",
      clean_shutdown ? "true" : "false");

  std::printf("{\n  \"service\": %s\n}\n", section);

  if (!cfg.merge_into.empty()) {
    std::ifstream in(cfg.merge_into);
    if (!in) {
      std::fprintf(stderr, "bench_service: cannot read %s\n",
                   cfg.merge_into.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string doc = buf.str();
    // Splice before the document's closing brace. The file is
    // bench_throughput's own output, so the last '}' closes the top-level
    // object.
    const size_t close = doc.rfind('}');
    if (close == std::string::npos) {
      std::fprintf(stderr, "bench_service: %s is not a JSON object\n",
                   cfg.merge_into.c_str());
      return 1;
    }
    std::string merged = doc.substr(0, close);
    while (!merged.empty() &&
           (merged.back() == '\n' || merged.back() == ' ')) {
      merged.pop_back();
    }
    merged += ",\n  \"service\": ";
    merged += section;
    merged += "\n}\n";
    std::ofstream out(cfg.merge_into, std::ios::trunc);
    out << merged;
    if (!out) {
      std::fprintf(stderr, "bench_service: cannot write %s\n",
                   cfg.merge_into.c_str());
      return 1;
    }
  }
  return total.errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace service
}  // namespace ccr

int main(int argc, char** argv) {
  return ccr::service::Main(argc, argv);
}
