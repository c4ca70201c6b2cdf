// Tests for the serving layer: SessionManager request flows (open, round,
// answer, snapshot, evict, close), LRU eviction under a resident cap with
// byte-identical verdicts after rehydration, bounded-queue admission
// control, queue deadlines, and the socket server end to end — including
// the robustness contract that malformed frames and bad versions never
// wedge the daemon.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/data/person_generator.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/service/session_manager.h"
#include "src/service/snapshot.h"
#include "src/service/wire.h"

namespace ccr {
namespace service {
namespace {

Dataset SmallPersonCorpus(int entities = 4) {
  PersonOptions opts;
  opts.num_entities = entities;
  opts.min_tuples = 6;
  opts.max_tuples = 16;
  opts.seed = 7;
  return GeneratePerson(opts);
}

std::string SnapshotPayload(const Dataset& ds, int entity) {
  SessionSnapshot snap;
  snap.spec = ds.MakeSpec(entity);
  return SnapshotToJson(snap, /*indent=*/0);
}

// An ANSWER body giving `value` for attribute `attr`.
std::string AnswerPayload(int attr, const Value& value) {
  json::Writer w(0);
  w.BeginObject();
  w.Key("answers");
  w.BeginArray();
  w.BeginArray();
  w.Value(attr);
  w.ArraySep(false);
  WriteValue(value, &w);
  w.EndArray();
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

ServiceReply Call(SessionManager* manager, RequestType type,
                  const std::string& session_id,
                  const std::string& payload = "",
                  int64_t deadline_ms = 0) {
  return manager->Call(ServiceRequest{type, session_id, payload, deadline_ms});
}

// --- manager request flows -------------------------------------------------

TEST(ServiceOptionsTest, ValidateFailsClosed) {
  EXPECT_TRUE(ServiceOptions{}.Validate().ok());
  const auto rejects = [](void (*mutate)(ServiceOptions*)) {
    ServiceOptions o;
    mutate(&o);
    const Status st = o.Validate();
    return !st.ok() && st.code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(rejects([](ServiceOptions* o) { o->workers = 0; }));
  EXPECT_TRUE(rejects([](ServiceOptions* o) { o->max_resident = 0; }));
  EXPECT_TRUE(rejects([](ServiceOptions* o) { o->queue_capacity = -3; }));
  EXPECT_TRUE(rejects([](ServiceOptions* o) { o->default_deadline_ms = -5; }));
  // The manager starts every worker and allocates every resident slot's
  // scratch up front, so both counts have a ceiling.
  EXPECT_TRUE(rejects([](ServiceOptions* o) { o->workers = kMaxWorkers + 1; }));
  EXPECT_TRUE(
      rejects([](ServiceOptions* o) { o->max_resident = kMaxResident + 1; }));
  ServiceOptions largest;
  largest.workers = kMaxWorkers;
  largest.max_resident = kMaxResident;
  EXPECT_TRUE(largest.Validate().ok());
  ServiceOptions minimal;
  minimal.workers = 1;
  minimal.max_resident = 1;
  minimal.queue_capacity = 1;
  EXPECT_TRUE(minimal.Validate().ok());
}

TEST(SessionManagerTest, OpenRoundAnswerSnapshotCloseFlow) {
  const Dataset ds = SmallPersonCorpus();
  SessionManager manager(ServiceOptions{});

  ServiceReply opened =
      Call(&manager, RequestType::kOpen, "alice", SnapshotPayload(ds, 0));
  ASSERT_EQ(opened.code, ErrorCode::kOk) << opened.payload;
  EXPECT_NE(opened.payload.find("\"opened\": true"), std::string::npos);
  EXPECT_EQ(manager.known_sessions(), 1);
  EXPECT_EQ(manager.resident_sessions(), 1);

  ServiceReply round = Call(&manager, RequestType::kRound, "alice");
  ASSERT_EQ(round.code, ErrorCode::kOk) << round.payload;
  EXPECT_NE(round.payload.find("\"valid\": true"), std::string::npos);

  // Answer attribute 0 with a concrete value; the manager builds the delta.
  ServiceReply answered =
      Call(&manager, RequestType::kAnswer, "alice",
           "{\"answers\": [[0, {\"s\": \"ground truth\"}]]}");
  ASSERT_EQ(answered.code, ErrorCode::kOk) << answered.payload;
  EXPECT_NE(answered.payload.find("\"extended\": true"), std::string::npos);

  // The snapshot now carries both ops and parses back.
  ServiceReply snapshot = Call(&manager, RequestType::kSnapshot, "alice");
  ASSERT_EQ(snapshot.code, ErrorCode::kOk);
  auto parsed = SnapshotFromJson(snapshot.payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ops.size(), 2u);

  ServiceReply closed = Call(&manager, RequestType::kClose, "alice");
  ASSERT_EQ(closed.code, ErrorCode::kOk);
  EXPECT_EQ(manager.known_sessions(), 0);
  EXPECT_EQ(manager.resident_sessions(), 0);
  EXPECT_EQ(Call(&manager, RequestType::kRound, "alice").code,
            ErrorCode::kNotFound);
}

TEST(SessionManagerTest, OpenRejectsDuplicatesAndMalformedSnapshots) {
  const Dataset ds = SmallPersonCorpus();
  SessionManager manager(ServiceOptions{});
  EXPECT_EQ(Call(&manager, RequestType::kOpen, "", SnapshotPayload(ds, 0))
                .code,
            ErrorCode::kBadRequest);
  EXPECT_EQ(Call(&manager, RequestType::kOpen, "a", "not json").code,
            ErrorCode::kBadRequest);
  ASSERT_EQ(
      Call(&manager, RequestType::kOpen, "a", SnapshotPayload(ds, 0)).code,
      ErrorCode::kOk);
  EXPECT_EQ(
      Call(&manager, RequestType::kOpen, "a", SnapshotPayload(ds, 1)).code,
      ErrorCode::kAlreadyExists);
  EXPECT_EQ(manager.known_sessions(), 1);
}

// A spec whose order variables exceed the solver's range (one attribute
// of 46,341 distinct values: past int32_t even before literal packing)
// fits in one OPEN; the daemon answers with an error reply instead of
// allocating the formula, and forgets the id.
TEST(SessionManagerTest, OpenOfAnOversizedDomainGetsAnErrorReply) {
  EntityInstance e(Schema::Make({"v"}).value(), "huge");
  for (int i = 0; i < 46341; ++i) {
    ASSERT_TRUE(e.Add(Tuple({Value::Int(i)})).ok());
  }
  SessionSnapshot snap;
  snap.spec.temporal = TemporalInstance(std::move(e));
  SessionManager manager(ServiceOptions{});
  const ServiceReply reply = Call(&manager, RequestType::kOpen, "huge",
                                  SnapshotToJson(snap, /*indent=*/0));
  EXPECT_NE(reply.code, ErrorCode::kOk);
  EXPECT_NE(reply.payload.find("exceed"), std::string::npos)
      << reply.payload;
  EXPECT_EQ(manager.known_sessions(), 0);
}

TEST(SessionManagerTest, SessionOpsOnUnknownIdsReturnNotFound) {
  SessionManager manager(ServiceOptions{});
  for (const RequestType type :
       {RequestType::kRound, RequestType::kAnswer, RequestType::kExtend,
        RequestType::kSnapshot, RequestType::kEvict, RequestType::kClose}) {
    EXPECT_EQ(Call(&manager, type, "ghost").code, ErrorCode::kNotFound);
  }
}

TEST(SessionManagerTest, RejectsMalformedBodies) {
  const Dataset ds = SmallPersonCorpus();
  SessionManager manager(ServiceOptions{});
  ASSERT_EQ(
      Call(&manager, RequestType::kOpen, "a", SnapshotPayload(ds, 0)).code,
      ErrorCode::kOk);
  // Unknown field, empty answers, answer against a bad attribute index.
  EXPECT_EQ(Call(&manager, RequestType::kAnswer, "a", "{\"junk\": 1}").code,
            ErrorCode::kBadRequest);
  EXPECT_EQ(Call(&manager, RequestType::kAnswer, "a", "{\"answers\": []}")
                .code,
            ErrorCode::kBadRequest);
  EXPECT_EQ(Call(&manager, RequestType::kAnswer, "a",
                 "{\"answers\": [[999, {\"i\": 1}]]}")
                .code,
            ErrorCode::kBadRequest);
  EXPECT_EQ(Call(&manager, RequestType::kExtend, "a", "[1, 2]").code,
            ErrorCode::kBadRequest);
  EXPECT_EQ(Call(&manager, RequestType::kPing, "", "{\"junk\": 1}").code,
            ErrorCode::kBadRequest);
  // The session survived every rejection.
  EXPECT_EQ(Call(&manager, RequestType::kRound, "a").code, ErrorCode::kOk);
}

// --- eviction and rehydration ---------------------------------------------

// A manager capped at one resident session must evict on every second
// session's use — and the evicted/rehydrated session must answer every
// request with the same bytes as a manager that never evicts.
TEST(SessionManagerTest, LruEvictionPreservesVerdictBytes) {
  const Dataset ds = SmallPersonCorpus();
  ServiceOptions roomy;
  roomy.max_resident = 8;
  ServiceOptions tight;
  tight.max_resident = 1;
  SessionManager never_evicts(roomy);
  SessionManager churns(tight);

  for (SessionManager* m : {&never_evicts, &churns}) {
    ASSERT_EQ(Call(m, RequestType::kOpen, "a", SnapshotPayload(ds, 0)).code,
              ErrorCode::kOk);
    ASSERT_EQ(Call(m, RequestType::kOpen, "b", SnapshotPayload(ds, 1)).code,
              ErrorCode::kOk);
  }
  EXPECT_EQ(never_evicts.resident_sessions(), 2);
  EXPECT_EQ(churns.resident_sessions(), 1);

  // Alternate sessions so the tight manager evicts + rehydrates every step.
  const struct {
    RequestType type;
    const char* id;
    const char* payload;
  } script[] = {
      {RequestType::kRound, "a", ""},
      {RequestType::kRound, "b", ""},
      {RequestType::kAnswer, "a", "{\"answers\": [[1, {\"s\": \"v\"}]]}"},
      {RequestType::kRound, "a", ""},
      {RequestType::kSnapshot, "b", ""},
      {RequestType::kRound, "b", ""},
  };
  for (const auto& step : script) {
    const ServiceReply want =
        Call(&never_evicts, step.type, step.id, step.payload);
    const ServiceReply got = Call(&churns, step.type, step.id, step.payload);
    ASSERT_EQ(want.code, ErrorCode::kOk) << want.payload;
    EXPECT_EQ(want.code, got.code);
    EXPECT_EQ(want.payload, got.payload)
        << "type " << static_cast<int>(step.type) << " on '" << step.id
        << "'";
  }

  const ServiceReply stats = Call(&churns, RequestType::kStats, "");
  ASSERT_EQ(stats.code, ErrorCode::kOk);
  EXPECT_NE(stats.payload.find("\"rehydrations\": "), std::string::npos);
  // Every switch between a and b forced a rehydration.
  EXPECT_EQ(stats.payload.find("\"rehydrations\": 0"), std::string::npos)
      << stats.payload;
  EXPECT_EQ(stats.payload.find("\"evictions_lru\": 0"), std::string::npos)
      << stats.payload;
}

TEST(SessionManagerTest, ExplicitEvictThenUseRehydrates) {
  const Dataset ds = SmallPersonCorpus();
  SessionManager manager(ServiceOptions{});
  ASSERT_EQ(
      Call(&manager, RequestType::kOpen, "a", SnapshotPayload(ds, 0)).code,
      ErrorCode::kOk);
  const ServiceReply before = Call(&manager, RequestType::kSnapshot, "a");

  ServiceReply evicted = Call(&manager, RequestType::kEvict, "a");
  ASSERT_EQ(evicted.code, ErrorCode::kOk);
  EXPECT_NE(evicted.payload.find("\"was_live\": true"), std::string::npos);
  EXPECT_EQ(manager.resident_sessions(), 0);
  EXPECT_EQ(manager.known_sessions(), 1);

  // Snapshots serve straight from the op log; a second evict is a no-op;
  // a round rehydrates by replaying the log.
  EXPECT_EQ(Call(&manager, RequestType::kSnapshot, "a").payload,
            before.payload);
  ServiceReply again = Call(&manager, RequestType::kEvict, "a");
  EXPECT_NE(again.payload.find("\"was_live\": false"), std::string::npos);
  EXPECT_EQ(Call(&manager, RequestType::kRound, "a").code, ErrorCode::kOk);
  EXPECT_EQ(manager.resident_sessions(), 1);
}

// Eviction no longer serializes, so the snapshot bytes a client sees are
// gated here: OPENing a SNAPSHOT reply under a fresh id replays it, and
// every later ROUND and ANSWER reply equals the original session's.
TEST(SessionManagerTest, SnapshotReplyReopensAsTheSameSession) {
  const Dataset ds = SmallPersonCorpus();
  const std::vector<Value>& truth = ds.entities[0].truth;
  std::vector<int> answerable;
  for (int a = 0; a < static_cast<int>(truth.size()); ++a) {
    if (!truth[a].is_null()) answerable.push_back(a);
  }
  ASSERT_GE(answerable.size(), 3u);
  SessionManager manager(ServiceOptions{});
  ASSERT_EQ(
      Call(&manager, RequestType::kOpen, "orig", SnapshotPayload(ds, 0)).code,
      ErrorCode::kOk);
  ASSERT_EQ(Call(&manager, RequestType::kRound, "orig").code, ErrorCode::kOk);
  const int first = answerable[0];
  ASSERT_EQ(Call(&manager, RequestType::kAnswer, "orig",
                 AnswerPayload(first, truth[first]))
                .code,
            ErrorCode::kOk);

  const ServiceReply snapshot = Call(&manager, RequestType::kSnapshot, "orig");
  ASSERT_EQ(snapshot.code, ErrorCode::kOk);
  const ServiceReply reopened =
      Call(&manager, RequestType::kOpen, "copy", snapshot.payload);
  ASSERT_EQ(reopened.code, ErrorCode::kOk) << reopened.payload;
  EXPECT_NE(reopened.payload.find("\"replayed_ops\": 2"), std::string::npos)
      << reopened.payload;

  for (size_t i = 1; i < answerable.size() && i <= 3; ++i) {
    const int attr = answerable[i];
    for (const auto& [type, payload] :
         {std::pair{RequestType::kRound, std::string()},
          std::pair{RequestType::kAnswer, AnswerPayload(attr, truth[attr])}}) {
      const ServiceReply want = Call(&manager, type, "orig", payload);
      const ServiceReply got = Call(&manager, type, "copy", payload);
      ASSERT_EQ(want.code, ErrorCode::kOk) << want.payload;
      EXPECT_EQ(got.code, want.code);
      EXPECT_EQ(got.payload, want.payload)
          << "type " << static_cast<int>(type) << " answering attr " << attr;
    }
  }
  EXPECT_EQ(Call(&manager, RequestType::kRound, "copy").payload,
            Call(&manager, RequestType::kRound, "orig").payload);
  EXPECT_EQ(Call(&manager, RequestType::kSnapshot, "copy").payload,
            Call(&manager, RequestType::kSnapshot, "orig").payload);
}

// Schema version 2 dropped the engine's solver preset name. A version-1
// snapshot, which always names it, fails closed: it does not parse, and its OPEN is
// answered BAD_REQUEST without creating a session. Naming the preset
// under version 2 fails the same way.
TEST(SessionManagerTest, VersionOneSnapshotFailsClosed) {
  const Dataset ds = SmallPersonCorpus();
  const std::string current = SnapshotPayload(ds, 0);
  const auto swap = [](std::string text, const std::string& from,
                       const std::string& to) {
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  const std::string v1 = swap(
      swap(current, "\"schema_version\": 2", "\"schema_version\": 1"),
      "\"engine\": {", "\"engine\": {\"solver_preset\": \"modern\", ");
  const std::string v2_with_preset =
      swap(v1, "\"schema_version\": 1", "\"schema_version\": 2");
  SessionManager manager(ServiceOptions{});
  for (const std::string& text : {v1, v2_with_preset}) {
    const auto parsed = SnapshotFromJson(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(Call(&manager, RequestType::kOpen, "old", text).code,
              ErrorCode::kBadRequest);
    EXPECT_EQ(manager.known_sessions(), 0);
  }
  EXPECT_EQ(Call(&manager, RequestType::kOpen, "old", current).code,
            ErrorCode::kOk);
}

// --- admission control and deadlines ---------------------------------------

TEST(SessionManagerTest, FullQueueRejectsWithOverload) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  SessionManager manager(opts);

  // Park the worker, then saturate the one-slot queue. Submitting sleepy
  // pings until admission fails is deterministic regardless of how fast
  // the worker drains the first one.
  std::atomic<int> completed{0};
  int admitted = 0;
  bool saw_reject = false;
  for (int i = 0; i < 64 && !saw_reject; ++i) {
    const bool ok = manager.Submit(
        ServiceRequest{RequestType::kPing, "", "{\"sleep_ms\": 100}", 0},
        [&](ServiceReply) { completed.fetch_add(1); });
    if (ok) {
      ++admitted;
    } else {
      saw_reject = true;
    }
  }
  EXPECT_TRUE(saw_reject);
  EXPECT_GE(admitted, 1);

  // The synchronous wrapper surfaces the rejection as OVERLOADED. Keep
  // trying while the queue drains; at least the first attempt (queue still
  // full) must reject.
  const ServiceReply reply =
      Call(&manager, RequestType::kPing, "", "{\"sleep_ms\": 1}");
  if (reply.code != ErrorCode::kOk) {
    EXPECT_EQ(reply.code, ErrorCode::kOverloaded);
    EXPECT_NE(reply.payload.find("retry"), std::string::npos);
  }

  // Admitted requests all complete; counters recorded the rejections.
  while (completed.load() < admitted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServiceReply stats = Call(&manager, RequestType::kStats, "");
  EXPECT_EQ(stats.payload.find("\"rejected_overload\": 0"),
            std::string::npos)
      << stats.payload;
}

TEST(SessionManagerTest, QueuedRequestsExpireAtTheirDeadline) {
  ServiceOptions opts;
  opts.workers = 1;
  SessionManager manager(opts);

  // Occupy the only worker long enough that the next request's 1 ms
  // deadline is long gone by the time it is dequeued.
  std::atomic<bool> sleeper_done{false};
  ASSERT_TRUE(manager.Submit(
      ServiceRequest{RequestType::kPing, "", "{\"sleep_ms\": 150}", 0},
      [&](ServiceReply) { sleeper_done.store(true); }));
  const ServiceReply late =
      Call(&manager, RequestType::kPing, "", "", /*deadline_ms=*/1);
  EXPECT_EQ(late.code, ErrorCode::kDeadlineExceeded);
  EXPECT_NE(late.payload.find("expired"), std::string::npos);
  while (!sleeper_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(SessionManagerTest, ShutdownRejectsNewWorkAndIsIdempotent) {
  SessionManager manager(ServiceOptions{});
  EXPECT_EQ(Call(&manager, RequestType::kPing, "").code, ErrorCode::kOk);
  manager.Shutdown();
  manager.Shutdown();
  EXPECT_EQ(Call(&manager, RequestType::kPing, "").code,
            ErrorCode::kShuttingDown);
  EXPECT_FALSE(manager.Submit(ServiceRequest{RequestType::kPing, "", "", 0},
                              [](ServiceReply) {}));
}

// --- socket server end to end ----------------------------------------------

TEST(ServerTest, ServesTheFullSessionLifecycleOverTcp) {
  const Dataset ds = SmallPersonCorpus();
  SessionManager manager(ServiceOptions{});
  Server server(&manager, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto client = ServiceClient::Dial("tcp:" + std::to_string(server.port()));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto pong = client.value().Call(RequestType::kPing, "", "");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong.value().is_response());
  EXPECT_EQ(pong.value().status, ErrorCode::kOk);
  EXPECT_EQ(pong.value().body, "{\"pong\": true}");

  auto opened = client.value().Call(RequestType::kOpen, "sess",
                                    SnapshotPayload(ds, 0));
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(opened.value().status, ErrorCode::kOk) << opened.value().body;
  EXPECT_EQ(opened.value().session_id, "sess");

  auto round = client.value().Call(RequestType::kRound, "sess", "");
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().status, ErrorCode::kOk);
  EXPECT_NE(round.value().body.find("\"valid\""), std::string::npos);

  auto missing = client.value().Call(RequestType::kRound, "nope", "");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, ErrorCode::kNotFound);

  server.Shutdown();
}

TEST(ServerTest, BadVersionGetsAnErrorAndTheConnectionSurvives) {
  SessionManager manager(ServiceOptions{});
  Server server(&manager, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::Dial("tcp:" + std::to_string(server.port()));
  ASSERT_TRUE(client.ok());

  Frame bad;
  bad.version = 99;
  bad.type = static_cast<uint8_t>(RequestType::kPing);
  auto reply = client.value().Call(bad);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().status, ErrorCode::kBadVersion);

  // Same connection keeps working afterwards.
  auto pong = client.value().Call(RequestType::kPing, "", "");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().status, ErrorCode::kOk);
  server.Shutdown();
}

TEST(ServerTest, MalformedFramesDropOnlyTheOffendingConnection) {
  SessionManager manager(ServiceOptions{});
  Server server(&manager, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto good = ServiceClient::Dial("tcp:" + std::to_string(server.port()));
  ASSERT_TRUE(good.ok());

  // A raw socket writes garbage whose length prefix (0x58585858) blows the
  // frame cap: the server must answer with a TOO_LARGE error frame and
  // close only this connection.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "XXXXXXXXXXXXXXXX";
  ASSERT_GT(::write(fd, garbage, sizeof(garbage) - 1), 0);
  FrameDecoder decoder;
  Frame error_frame;
  char buf[4096];
  bool got_error = false;
  while (!got_error) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;  // server may close right after the error frame
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    if (decoder.Next(&error_frame) == FrameDecoder::Outcome::kFrame) {
      got_error = true;
    }
  }
  ASSERT_TRUE(got_error);
  EXPECT_EQ(error_frame.status, ErrorCode::kTooLarge);
  ::close(fd);

  // The well-behaved connection is unaffected.
  auto pong = good.value().Call(RequestType::kPing, "", "");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.value().status, ErrorCode::kOk);
  server.Shutdown();
}

TEST(ServerTest, ShutdownFrameStopsTheServerCleanly) {
  SessionManager manager(ServiceOptions{});
  Server server(&manager, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = ServiceClient::Dial("tcp:" + std::to_string(server.port()));
  ASSERT_TRUE(client.ok());

  auto reply = client.value().Call(RequestType::kShutdown, "", "");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().body, "{\"stopping\": true}");

  // Wait() returns because the SHUTDOWN frame requested the stop; the
  // orderly teardown then joins every thread (the daemon's exit path).
  server.Wait();
  server.Shutdown();
  EXPECT_EQ(Call(&manager, RequestType::kPing, "").code, ErrorCode::kOk);
}

TEST(ServerTest, ServesOverUnixSockets) {
  char tmpl[] = "/tmp/ccr_service_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/ccr.sock";

  SessionManager manager(ServiceOptions{});
  ServerOptions opts;
  opts.listen = "unix:" + path;
  Server server(&manager, opts);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.port(), -1);

  auto client = ServiceClient::Dial("unix:" + path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto pong = client.value().Call(RequestType::kPing, "", "");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().status, ErrorCode::kOk);

  server.Shutdown();
  // The socket file is unlinked on shutdown.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  ::rmdir(tmpl);
}

TEST(ServerTest, ConnectionCapIsBounded) {
  // One thread per connection: a cap above kMaxConnections fails closed,
  // in Validate and in Start, before anything is bound or accepted.
  ServerOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.max_connections = kMaxConnections;
  EXPECT_TRUE(opts.Validate().ok());
  for (int bad : {0, -1, kMaxConnections + 1}) {
    opts.max_connections = bad;
    EXPECT_FALSE(opts.Validate().ok()) << bad;
  }
  SessionManager manager(ServiceOptions{});
  opts.max_connections = kMaxConnections + 1;
  Server server(&manager, opts);
  const Status st = server.Start();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(server.port(), -1);  // nothing was bound
}

TEST(ServerTest, RejectsBadListenSpecs) {
  SessionManager manager(ServiceOptions{});
  // A port that is empty, not a whole decimal or outside [0, 65535] must
  // not bind some other port; a unix path must fit sockaddr_un.
  const std::string long_path = "unix:/" + std::string(200, 'x');
  for (const std::string& spec :
       {std::string(), std::string("udp:1234"), std::string("unix:"),
        std::string("http://x"), std::string("tcp:"), std::string("tcp:abc"),
        std::string("tcp:-1"), std::string("tcp:65536"),
        std::string("tcp:80x"), long_path}) {
    ServerOptions opts;
    opts.listen = spec;
    EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument) << spec;
    Server server(&manager, opts);
    EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument) << spec;
  }
  for (const char* spec : {"tcp:0", "tcp:65535", "unix:/tmp/ccr.sock"}) {
    ServerOptions opts;
    opts.listen = spec;
    EXPECT_TRUE(opts.Validate().ok()) << spec;
  }
}

TEST(ServiceClientTest, DialRejectsABadPort) {
  for (const char* address :
       {"tcp:", "tcp:abc", "tcp:-1", "tcp:65536", "tcp:80x",
        "tcp:127.0.0.1:70000", "tcp:127.0.0.1:"}) {
    EXPECT_EQ(ServiceClient::Dial(address).status().code(),
              StatusCode::kInvalidArgument)
        << address;
  }
}

}  // namespace
}  // namespace service
}  // namespace ccr
