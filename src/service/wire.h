// Length-prefixed binary framing for the resolution service.
//
// One frame per request, one frame per response, strictly sequential per
// connection. The layout (all multi-byte integers little-endian) is:
//
//   offset  size  field
//   0       4     payload_len   = frame size minus this 4-byte prefix
//   4       1     version       (kWireVersion)
//   5       1     type          (RequestType, or 0x80|RequestType in replies)
//   6       1     status        (ErrorCode; always kOk in requests)
//   7       2     session_id_len
//   9       n     session_id    (opaque bytes, n = session_id_len)
//   9+n     m     body          (JSON payload; m = payload_len - 5 - n)
//
// The decoder is incremental (sockets deliver partial reads) and fails
// closed: an oversize length prefix or a malformed header is kError and the
// server drops the connection rather than resynchronize. See
// docs/PROTOCOL.md for the full contract.

#ifndef CCR_SERVICE_WIRE_H_
#define CCR_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace ccr {
namespace service {

/// Protocol version carried in every frame. Bumped on any incompatible
/// layout or semantics change; servers reject other versions with
/// kBadVersion rather than guess.
inline constexpr uint8_t kWireVersion = 1;

/// Hard cap on payload_len. A 16 MiB frame comfortably holds the largest
/// snapshot the bench produces; anything bigger is a corrupt or hostile
/// length prefix, and bounding it keeps one client from ballooning server
/// memory before the first sanity check.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// Fixed bytes after the length prefix: version, type, status,
/// session_id_len (2).
inline constexpr uint32_t kFrameHeaderBytes = 5;

/// Request kinds. Replies echo the request type with the high bit set.
enum class RequestType : uint8_t {
  kPing = 0x01,      ///< liveness probe; body may carry {"sleep_ms": N}
  kOpen = 0x02,      ///< create a session from a spec/snapshot JSON body
  kRound = 0x03,     ///< run one resolve round, stream back the verdict
  kAnswer = 0x04,    ///< apply user answers [{"attr", "value"}, ...]
  kExtend = 0x05,    ///< append a raw PartialTemporalOrder delta
  kSnapshot = 0x06,  ///< serialize the session; body of reply is the JSON
  kEvict = 0x07,     ///< force the session cold (free its live state)
  kClose = 0x08,     ///< drop the session entirely
  kStats = 0x09,     ///< server counters as JSON
  kShutdown = 0x0A,  ///< orderly daemon shutdown (reply sent first)
};

/// Bit set on `type` in every response frame.
inline constexpr uint8_t kResponseBit = 0x80;

/// Wire status byte. kOk responses carry the result payload; error
/// responses carry a JSON body {"error": "..."} with a human-readable
/// message.
enum class ErrorCode : uint8_t {
  kOk = 0,
  kBadRequest = 1,        ///< malformed body or unknown request type
  kNotFound = 2,          ///< no such session
  kAlreadyExists = 3,     ///< OPEN of a live session id
  kOverloaded = 4,        ///< admission queue full; retry with backoff
  kDeadlineExceeded = 5,  ///< request expired before a worker picked it up
  kBadVersion = 6,        ///< frame version != kWireVersion
  kTooLarge = 7,          ///< payload_len exceeds kMaxFrameBytes
  kInternal = 8,          ///< engine error; body has details
  kShuttingDown = 9,      ///< daemon is draining; no new work accepted
};

const char* ErrorCodeName(ErrorCode code);

/// A decoded frame. `type` holds the raw byte (response bit included for
/// replies); `session_id` and `body` are owned copies.
struct Frame {
  uint8_t version = kWireVersion;
  uint8_t type = 0;
  ErrorCode status = ErrorCode::kOk;
  std::string session_id;
  std::string body;

  RequestType request_type() const {
    return static_cast<RequestType>(type & ~kResponseBit);
  }
  bool is_response() const { return (type & kResponseBit) != 0; }
};

/// Reads the PORT of a `tcp:PORT` address: a decimal integer in
/// [0, 65535] that spans all of `text`. False on anything else, so a
/// malformed listen or dial spec fails closed instead of reading as 0.
bool ParseTcpPort(std::string_view text, uint16_t* port);

/// Appends the encoded frame to `out`. Returns false (and appends nothing)
/// if the frame would exceed kMaxFrameBytes or the session id exceeds
/// 65535 bytes.
bool EncodeFrame(const Frame& frame, std::string* out);

/// \brief Incremental frame decoder. Feed() raw socket bytes, then drain
/// Next() until it stops returning kFrame. Once kError is returned the
/// stream is poisoned: framing is lost and the connection must be closed.
class FrameDecoder {
 public:
  enum class Outcome { kFrame, kNeedMore, kError };

  void Feed(std::string_view bytes) { buf_.append(bytes); }

  /// On kFrame, `*frame` holds the next complete frame (consumed from the
  /// buffer). On kError, `error()` describes the fault.
  Outcome Next(Frame* frame);

  const std::string& error() const { return error_; }

 private:
  std::string buf_;
  size_t off_ = 0;  // consumed prefix of buf_
  std::string error_;
};

}  // namespace service
}  // namespace ccr

#endif  // CCR_SERVICE_WIRE_H_
