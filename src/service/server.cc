#include "src/service/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace ccr {
namespace service {

namespace {

// write(2) until done; sockets may take partial writes under pressure.
bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool SendErrorFrame(int fd, uint8_t req_type, ErrorCode code,
                    const std::string& message) {
  Frame reply;
  reply.type = static_cast<uint8_t>(req_type | kResponseBit);
  reply.status = code;
  reply.body = "{\"error\": \"" + message + "\"}";
  std::string bytes;
  if (!EncodeFrame(reply, &bytes)) return false;
  return WriteAll(fd, bytes);
}

}  // namespace

struct Server::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};
};

Status ServerOptions::Validate() const {
  if (max_connections < 1 || max_connections > kMaxConnections) {
    return Status::InvalidArgument(
        "ServerOptions: max_connections must be in [1, " +
        std::to_string(kMaxConnections) + "]");
  }
  if (listen.rfind("unix:", 0) == 0) {
    const size_t path_len = listen.size() - 5;
    if (path_len == 0 || path_len >= sizeof(sockaddr_un::sun_path)) {
      return Status::InvalidArgument(
          "ServerOptions: unix listen spec wants a path of 1 to " +
          std::to_string(sizeof(sockaddr_un::sun_path) - 1) +
          " bytes, got '" + listen + "'");
    }
  } else if (listen.rfind("tcp:", 0) == 0) {
    uint16_t port = 0;
    if (!ParseTcpPort(std::string_view(listen).substr(4), &port)) {
      return Status::InvalidArgument(
          "ServerOptions: tcp listen spec wants a port in [0, 65535], got '" +
          listen + "'");
    }
  } else {
    return Status::InvalidArgument(
        "ServerOptions: listen spec wants unix:/path or tcp:PORT, got '" +
        listen + "'");
  }
  return Status::OK();
}

Server::Server(SessionManager* manager, const ServerOptions& options)
    : manager_(manager), options_(options) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (Status valid = options_.Validate(); !valid.ok()) return valid;
  const std::string& spec = options_.listen;
  if (spec.rfind("unix:", 0) == 0) {
    unix_path_ = spec.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, unix_path_.c_str(), unix_path_.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Internal("socket() failed");
    ::unlink(unix_path_.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::Internal("bind(" + unix_path_ +
                              ") failed: " + std::strerror(errno));
    }
  } else {
    uint16_t want_port = 0;  // Validate accepted the spec: a tcp: port
    ParseTcpPort(std::string_view(spec).substr(4), &want_port);
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Internal("socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(want_port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::Internal("bind(tcp:" + std::to_string(want_port) +
                              ") failed: " + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed");
  }
  started_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(conn_mu_);
  while (!stopping_.load()) {
    // Bounded waits so a RequestShutdown() from a signal handler (atomic
    // store only — it cannot notify a condition variable) is seen promptly.
    stop_cv_.wait_for(lock, std::chrono::milliseconds(200));
  }
}

void Server::Shutdown() {
  if (!started_) return;
  stopping_.store(true);
  stop_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // Force-wake blocked reads so connection threads exit promptly.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& conn : connections_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::unique_ptr<Connection>> to_join;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    to_join.swap(connections_);
  }
  for (const auto& conn : to_join) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
  started_ = false;
}

void Server::JoinFinishedConnections() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (size_t i = 0; i < connections_.size();) {
    if (connections_[i]->done.load()) {
      if (connections_[i]->thread.joinable()) connections_[i]->thread.join();
      connections_.erase(connections_.begin() +
                         static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (stopping_.load()) return;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    JoinFinishedConnections();
    int live;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      live = static_cast<int>(connections_.size());
    }
    if (live >= options_.max_connections) {
      SendErrorFrame(fd, 0, ErrorCode::kOverloaded,
                     "connection cap reached");
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void Server::ServeConnection(Connection* conn) {
  FrameDecoder decoder;
  char buf[64 * 1024];
  bool open = true;
  while (open && !stopping_.load()) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    Frame frame;
    while (open) {
      const FrameDecoder::Outcome got = decoder.Next(&frame);
      if (got == FrameDecoder::Outcome::kNeedMore) break;
      if (got == FrameDecoder::Outcome::kError) {
        // Framing is lost; resynchronizing would be guesswork. Report and
        // drop the connection — other connections are unaffected.
        const ErrorCode code =
            decoder.error().find("cap") != std::string::npos
                ? ErrorCode::kTooLarge
                : ErrorCode::kBadRequest;
        SendErrorFrame(conn->fd, 0, code, decoder.error());
        open = false;
        break;
      }
      if (frame.version != kWireVersion) {
        // Framing is intact — reject the request, keep the connection.
        if (!SendErrorFrame(conn->fd, frame.type, ErrorCode::kBadVersion,
                            "unsupported protocol version")) {
          open = false;
        }
        continue;
      }
      if (frame.request_type() == RequestType::kShutdown) {
        Frame reply;
        reply.type = static_cast<uint8_t>(frame.type | kResponseBit);
        reply.body = "{\"stopping\": true}";
        std::string bytes;
        EncodeFrame(reply, &bytes);
        WriteAll(conn->fd, bytes);
        // Wake Wait(); the daemon main performs the orderly Shutdown()
        // (this thread cannot join itself).
        stopping_.store(true);
        stop_cv_.notify_all();
        open = false;
        break;
      }
      ServiceRequest request;
      request.type = frame.request_type();
      request.session_id = frame.session_id;
      request.payload = std::move(frame.body);
      ServiceReply reply = manager_->Call(std::move(request));
      Frame out;
      out.type = static_cast<uint8_t>(frame.type | kResponseBit);
      out.status = reply.code;
      out.session_id = frame.session_id;
      out.body = std::move(reply.payload);
      std::string bytes;
      if (!EncodeFrame(out, &bytes)) {
        SendErrorFrame(conn->fd, frame.type, ErrorCode::kInternal,
                       "reply exceeds the frame size cap");
        open = false;
        break;
      }
      if (!WriteAll(conn->fd, bytes)) {
        open = false;
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true);
}

}  // namespace service
}  // namespace ccr
