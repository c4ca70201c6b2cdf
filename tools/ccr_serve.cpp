// ccr_serve: the resolution-as-a-service daemon. Keeps warm
// ResolutionSessions resident up to a cap, evicts cold sessions to
// snapshots and rehydrates them on demand, and serves the framed protocol
// of docs/PROTOCOL.md on a Unix or TCP socket.
//
//   # loopback TCP on an OS-picked port (printed on the READY line)
//   ccr_serve --listen tcp:0
//   # unix socket, 4 workers, at most 128 warm sessions
//   ccr_serve --listen unix:/tmp/ccr.sock --workers 4 --max-resident 128
//
// The daemon prints exactly one "READY <address>" line on stdout once the
// socket is listening (scripts wait for it), then serves until SIGINT,
// SIGTERM, or a SHUTDOWN frame, and exits 0 after printing final stats.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "src/ccr.h"
#include "src/common/strings.h"

namespace ccr {
namespace service {
namespace {

Server* g_server = nullptr;

void HandleSignal(int) {
  // Async-signal-safe: just request the stop; main does the real work.
  if (g_server != nullptr) g_server->RequestShutdown();
}

void PrintUsage(std::FILE* to) {
  std::fprintf(to,
               "Usage: ccr_serve [flags]\n"
               "\n"
               "  --listen SPEC     unix:/path or tcp:PORT (default tcp:0;\n"
               "                    port 0 = OS-picked, see the READY line)\n"
               "  --workers N       request worker threads, at most %d\n"
               "                    (default 2)\n"
               "  --max-resident N  warm session cap, at most %d; colder\n"
               "                    sessions are evicted to snapshots\n"
               "                    (default 64)\n"
               "  --queue-cap N     admission queue bound; a full queue\n"
               "                    rejects with OVERLOADED (default 256)\n"
               "  --deadline-ms N   default per-request deadline, 0 = none\n"
               "                    (default 0)\n"
               "  --max-conns N     concurrent connection cap, at most %d\n"
               "                    (default 256)\n"
               "  --help            this text\n"
               "\n"
               "Protocol: docs/PROTOCOL.md. Tuning: docs/OPERATIONS.md.\n",
               kMaxWorkers, kMaxResident, kMaxConnections);
}

// Parses the whole of `text` as a decimal integer in [lo, hi] ("4x",
// overflow and out-of-range values fail, with a message on stderr).
bool ParseFlagInt(const char* flag, const char* text, int64_t lo, int64_t hi,
                  int64_t* out) {
  if (ParseInt64(text, out) && *out >= lo && *out <= hi) return true;
  std::fprintf(stderr, "%s wants an integer in [%lld, %lld], got '%s'\n",
               flag, static_cast<long long>(lo), static_cast<long long>(hi),
               text);
  return false;
}

int Main(int argc, char** argv) {
  ServiceOptions service;
  ServerOptions server_opts;
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s wants a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    // Reads flag `name`'s value as an integer in [lo, hi] into *out.
    auto int_flag = [&](const char* name, int64_t lo, int64_t hi,
                        auto* out) {
      const char* v = next_value(name);
      int64_t n = 0;
      if (v == nullptr || !ParseFlagInt(name, v, lo, hi, &n)) return false;
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(n);
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    if (arg == "--listen") {
      const char* v = next_value("--listen");
      if (v == nullptr) return 2;
      server_opts.listen = v;
      continue;
    }
    bool parsed = true;
    if (arg == "--workers") {
      parsed = int_flag("--workers", 1, kMaxWorkers, &service.workers);
    } else if (arg == "--max-resident") {
      parsed =
          int_flag("--max-resident", 1, kMaxResident, &service.max_resident);
    } else if (arg == "--queue-cap") {
      parsed = int_flag("--queue-cap", 1, kIntMax, &service.queue_capacity);
    } else if (arg == "--deadline-ms") {
      parsed = int_flag("--deadline-ms", 0,
                        std::numeric_limits<int64_t>::max(),
                        &service.default_deadline_ms);
    } else if (arg == "--max-conns") {
      parsed = int_flag("--max-conns", 1, kMaxConnections,
                        &server_opts.max_connections);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
    if (!parsed) return 2;
  }
  // The flag ranges above already imply these; they stay the one rule the
  // daemon shares with SessionManager and Server::Start.
  Status valid = service.Validate();
  if (valid.ok()) valid = server_opts.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "ccr_serve: %s\n", valid.ToString().c_str());
    return 2;
  }

  SessionManager manager(service);
  Server server(&manager, server_opts);
  const Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "ccr_serve: %s\n", st.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  if (server.port() >= 0) {
    std::printf("READY tcp:%d\n", server.port());
  } else {
    std::printf("READY %s\n", server_opts.listen.c_str());
  }
  std::fflush(stdout);

  server.Wait();
  server.Shutdown();
  g_server = nullptr;

  const ServiceReply stats =
      manager.Call(ServiceRequest{RequestType::kStats, "", "", 0});
  manager.Shutdown();
  std::printf("STATS %s\n", stats.payload.c_str());
  return 0;
}

}  // namespace
}  // namespace service
}  // namespace ccr

int main(int argc, char** argv) {
  return ccr::service::Main(argc, argv);
}
