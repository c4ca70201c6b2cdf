#include "src/service/wire.h"

#include <cstring>

#include "src/common/strings.h"

namespace ccr {
namespace service {

namespace {

void PutU16(uint16_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint16_t GetU16(const char* p) {
  return static_cast<uint16_t>(static_cast<unsigned char>(p[0]) |
                               (static_cast<unsigned char>(p[1]) << 8));
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kBadRequest:
      return "bad_request";
    case ErrorCode::kNotFound:
      return "not_found";
    case ErrorCode::kAlreadyExists:
      return "already_exists";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case ErrorCode::kBadVersion:
      return "bad_version";
    case ErrorCode::kTooLarge:
      return "too_large";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

bool EncodeFrame(const Frame& frame, std::string* out) {
  if (frame.session_id.size() > 0xFFFF) return false;
  const uint64_t payload = static_cast<uint64_t>(kFrameHeaderBytes) +
                           frame.session_id.size() + frame.body.size();
  if (payload > kMaxFrameBytes) return false;
  out->reserve(out->size() + 4 + static_cast<size_t>(payload));
  PutU32(static_cast<uint32_t>(payload), out);
  out->push_back(static_cast<char>(frame.version));
  out->push_back(static_cast<char>(frame.type));
  out->push_back(static_cast<char>(frame.status));
  PutU16(static_cast<uint16_t>(frame.session_id.size()), out);
  out->append(frame.session_id);
  out->append(frame.body);
  return true;
}

FrameDecoder::Outcome FrameDecoder::Next(Frame* frame) {
  if (!error_.empty()) return Outcome::kError;
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived connection doesn't grow the buffer without bound.
  if (off_ > 0 && off_ >= buf_.size() / 2) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  const size_t avail = buf_.size() - off_;
  if (avail < 4) return Outcome::kNeedMore;
  const char* p = buf_.data() + off_;
  const uint32_t payload = GetU32(p);
  // Validate the length prefix before waiting for the body: a hostile
  // 4 GiB prefix must fail now, not after the buffer fills.
  if (payload > kMaxFrameBytes) {
    error_ = "frame payload of " + std::to_string(payload) +
             " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
             "-byte cap";
    return Outcome::kError;
  }
  if (payload < kFrameHeaderBytes) {
    error_ = "frame payload of " + std::to_string(payload) +
             " bytes is shorter than the fixed header";
    return Outcome::kError;
  }
  if (avail < 4u + payload) return Outcome::kNeedMore;
  const char* h = p + 4;
  const uint16_t sid_len = GetU16(h + 3);
  if (static_cast<uint32_t>(sid_len) + kFrameHeaderBytes > payload) {
    error_ = "session id length " + std::to_string(sid_len) +
             " overruns the frame payload";
    return Outcome::kError;
  }
  frame->version = static_cast<uint8_t>(h[0]);
  frame->type = static_cast<uint8_t>(h[1]);
  frame->status = static_cast<ErrorCode>(static_cast<unsigned char>(h[2]));
  frame->session_id.assign(h + kFrameHeaderBytes, sid_len);
  frame->body.assign(h + kFrameHeaderBytes + sid_len,
                     payload - kFrameHeaderBytes - sid_len);
  off_ += 4u + payload;
  return Outcome::kFrame;
}

bool ParseTcpPort(std::string_view text, uint16_t* port) {
  int64_t n = 0;
  if (!ParseInt64(text, &n) || n < 0 || n > 65535) return false;
  *port = static_cast<uint16_t>(n);
  return true;
}

}  // namespace service
}  // namespace ccr
