// Socket front end for the session manager: accepts Unix-domain or TCP
// connections and speaks the framed protocol of wire.h. One thread per
// connection, strictly sequential request → response per connection;
// concurrency across sessions comes from connections, and the manager's
// worker pool bounds how much engine work runs at once.
//
// Robustness contract (tested in service_test.cpp): a malformed or
// oversize frame gets a best-effort error frame and the connection is
// dropped — framing is lost, resynchronizing would be guesswork. An
// unknown request type or bad version is answered with an error frame and
// the connection survives (framing is intact). One bad client never
// wedges the accept loop or other connections.

#ifndef CCR_SERVICE_SERVER_H_
#define CCR_SERVICE_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/service/session_manager.h"

namespace ccr {
namespace service {

/// Upper bound on ServerOptions::max_connections. The server starts one
/// thread per accepted connection, so this also bounds its connection
/// threads; it sits well above any useful value (requests run on at most
/// kMaxWorkers workers) and well below what would exhaust threads.
inline constexpr int kMaxConnections = 1024;

struct ServerOptions {
  /// "unix:/path/to.sock" or "tcp:PORT" (TCP binds 127.0.0.1; port 0 picks
  /// a free port, readable from port() after Start).
  std::string listen = "tcp:0";
  /// Connections over this cap are greeted with an OVERLOADED error frame
  /// and closed.
  int max_connections = 256;

  /// Fails closed on max_connections outside [1, kMaxConnections] and on a
  /// malformed listen spec: a unix: path must be non-empty and fit
  /// sockaddr_un, a tcp: port must be a whole decimal in [0, 65535].
  /// Server::Start runs this before it binds.
  Status Validate() const;
};

/// \brief The daemon's accept loop. Owns the listening socket and the
/// per-connection threads; requests are executed synchronously through
/// SessionManager::Call (admission control and deadlines live there).
class Server {
 public:
  /// `manager` must outlive the server.
  Server(SessionManager* manager, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Validates the options, binds, listens, and starts the accept thread.
  Status Start();

  /// Bound TCP port (after Start with a tcp: listen spec); -1 for unix.
  int port() const { return port_; }

  /// Blocks until a stop is requested (SHUTDOWN frame, RequestShutdown,
  /// or Shutdown from another thread).
  void Wait();

  /// Async-signal-safe stop request: a single atomic store, no locks, no
  /// joins. Wait() observes it within its poll interval; the caller then
  /// runs the real Shutdown() from a normal context.
  void RequestShutdown() { stopping_.store(true); }

  /// Stops accepting, closes the listening socket, joins connection
  /// threads. Idempotent.
  void Shutdown();

 private:
  struct Connection;

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  void JoinFinishedConnections();

  SessionManager* const manager_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = -1;
  std::string unix_path_;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread acceptor_;

  std::mutex conn_mu_;
  std::condition_variable stop_cv_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace service
}  // namespace ccr

#endif  // CCR_SERVICE_SERVER_H_
