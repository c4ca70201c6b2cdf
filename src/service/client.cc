#include "src/service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ccr {
namespace service {

Result<ServiceClient> ServiceClient::Dial(const std::string& address) {
  int fd = -1;
  if (address.rfind("unix:", 0) == 0) {
    const std::string path = address.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("bad unix socket path: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("socket() failed");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return Status::Internal("connect(" + path +
                              ") failed: " + std::strerror(errno));
    }
  } else if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    std::string host = "127.0.0.1";
    std::string port = rest;
    const size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      host = rest.substr(0, colon);
      port = rest.substr(colon + 1);
    }
    uint16_t port_num = 0;
    if (!ParseTcpPort(port, &port_num)) {
      return Status::InvalidArgument("bad tcp port: '" + port + "'");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_num);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad IPv4 host: " + host);
    }
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("socket() failed");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return Status::Internal("connect(" + rest +
                              ") failed: " + std::strerror(errno));
    }
  } else {
    return Status::InvalidArgument(
        "address wants unix:/path or tcp:[host:]port, got '" + address + "'");
  }
  return ServiceClient(fd);
}

void ServiceClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Frame> ServiceClient::Call(const Frame& request) {
  if (fd_ < 0) return Status::Internal("client is not connected");
  std::string bytes;
  if (!EncodeFrame(request, &bytes)) {
    return Status::InvalidArgument("request exceeds the frame size cap");
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Close();
      return Status::Internal("write failed: " + std::string(strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  Frame reply;
  char buf[64 * 1024];
  while (true) {
    const FrameDecoder::Outcome got = decoder_.Next(&reply);
    if (got == FrameDecoder::Outcome::kFrame) return reply;
    if (got == FrameDecoder::Outcome::kError) {
      Close();
      return Status::Internal("reply framing error: " + decoder_.error());
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return Status::Internal("connection closed mid-reply");
    }
    decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

Result<Frame> ServiceClient::Call(RequestType type,
                                  const std::string& session_id,
                                  const std::string& body) {
  Frame request;
  request.type = static_cast<uint8_t>(type);
  request.session_id = session_id;
  request.body = body;
  return Call(request);
}

}  // namespace service
}  // namespace ccr
