// Minimal JSON emitter and recursive-descent reader shared by every
// module that speaks the repo's versioned JSON formats (ExperimentResult
// files, session snapshots, service replies).
//
// The writer produces a *stable* byte encoding: fixed field order is the
// caller's job, doubles format as "%.17g" (round-trippable, and equal
// doubles format to equal bytes), and strings escape only what must be
// escaped — so equal values serialize to equal bytes and byte comparison
// works as a cross-process regression check.
//
// The reader is strict where it matters: field handlers are driven off the
// key so any field order parses, but callers reject unknown keys, and
// numbers/strings fail loudly instead of coercing. Strings are byte
// strings: the writer emits control bytes as \u00XX and the reader maps
// \uXXXX escapes with XXXX <= 0xFF back to single bytes, so any byte
// sequence round-trips exactly.

#ifndef CCR_COMMON_JSON_H_
#define CCR_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace ccr {
namespace json {

/// Appends `v` JSON-escaped (no surrounding quotes) to `out`.
void AppendEscaped(std::string_view v, std::string* out);

/// \brief Stable-byte JSON emitter. Objects newline-indent their fields
/// (indent 0 emits a single line); arrays are emitted inline.
class Writer {
 public:
  explicit Writer(int indent) : indent_(indent) {}

  std::string Take() && { return std::move(out_); }

  void BeginObject() {
    out_.push_back('{');
    ++depth_;
    first_ = true;
  }
  void EndObject() {
    --depth_;
    Newline();
    out_.push_back('}');
    first_ = false;
  }
  void Key(const char* name) {
    if (!first_) out_.push_back(',');
    Newline();
    out_.push_back('"');
    out_.append(name);
    out_.append("\": ");
    first_ = true;  // the value is the first token after the key
  }
  void Value(int v) {
    out_.append(std::to_string(v));
    first_ = false;
  }
  void Value(int64_t v) {
    out_.append(std::to_string(v));
    first_ = false;
  }
  void Value(double v);
  void Value(bool v) {
    out_.append(v ? "true" : "false");
    first_ = false;
  }
  void Value(const char* v) { Value(std::string_view(v)); }
  void Value(std::string_view v) {
    out_.push_back('"');
    AppendEscaped(v, &out_);
    out_.push_back('"');
    first_ = false;
  }
  /// Emits the null literal.
  void NullValue() {
    out_.append("null");
    first_ = false;
  }
  void BeginArray() {
    out_.push_back('[');
    first_ = false;
  }
  void ArraySep(bool first) {
    if (!first) out_.append(", ");
  }
  void EndArray() { out_.push_back(']'); }

 private:
  void Newline() {
    if (indent_ <= 0) return;
    out_.push_back('\n');
    out_.append(static_cast<size_t>(indent_ * depth_), ' ');
  }

  std::string out_;
  int indent_;
  int depth_ = 0;
  bool first_ = true;
};

/// \brief Recursive-descent reader over the subset the schemas need:
/// objects, arrays, numbers, strings, bools, null. `context` prefixes
/// every error message (e.g. "ExperimentResult JSON").
class Reader {
 public:
  Reader(std::string_view text, std::string context)
      : text_(text), context_(std::move(context)) {}

  Status Fail(const std::string& what) {
    return Status::InvalidArgument(context_ + ": " + what + " near offset " +
                                   std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Consumes the literal `word` (e.g. "null", "true") if present.
  bool ConsumeWord(std::string_view word);

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  /// Offset of the next unread byte.
  size_t pos() const { return pos_; }
  /// The text read since offset `begin`.
  std::string_view Since(size_t begin) const {
    return text_.substr(begin, pos_ - begin);
  }

  Status ParseString(std::string* out);
  Status ParseDouble(double* out);
  /// Integral double in int range; rejects fractions ("expected integer").
  Status ParseInt(int* out);
  /// Exact 64-bit parse (no double round trip — int64 values beyond 2^53
  /// must survive).
  Status ParseInt64(int64_t* out);
  Status ParseBool(bool* out);

  /// Parses `{ "k": ..., ... }`, calling `field(key)` for each value; the
  /// callback must consume the value.
  template <typename FieldFn>
  Status ParseObject(FieldFn field) {
    if (!Consume('{')) return Fail("expected '{'");
    if (Consume('}')) return Status::OK();
    while (true) {
      std::string key;
      CCR_RETURN_NOT_OK(ParseString(&key));
      if (!Consume(':')) return Fail("expected ':'");
      CCR_RETURN_NOT_OK(field(key));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  /// Parses `[ ... ]`, calling `element()` once per element.
  template <typename ElementFn>
  Status ParseArray(ElementFn element) {
    if (!Consume('[')) return Fail("expected '['");
    if (Consume(']')) return Status::OK();
    while (true) {
      CCR_RETURN_NOT_OK(element());
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

 private:
  std::string_view text_;
  std::string context_;
  size_t pos_ = 0;
};

}  // namespace json
}  // namespace ccr

#endif  // CCR_COMMON_JSON_H_
