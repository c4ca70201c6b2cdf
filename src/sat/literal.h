// Boolean variables and literals for the SAT substrate (§V-A).
//
// Variables are dense 0-based integers; a literal packs a variable and a
// sign into one int so it can index watch lists directly (MiniSat layout).

#ifndef CCR_SAT_LITERAL_H_
#define CCR_SAT_LITERAL_H_

#include <cstdint>
#include <string>

namespace ccr::sat {

/// 0-based Boolean variable identifier.
using Var = int32_t;

inline constexpr Var kVarUndef = -1;

/// Most variables a formula may have: every literal index 2*var+1 and the
/// watch-list count 2*num_vars fit in int32_t.
inline constexpr Var kMaxVars = (1 << 30) - 1;

/// \brief A possibly negated variable; index() = 2*var + sign.
class Lit {
 public:
  constexpr Lit() : x_(-2) {}
  constexpr Lit(Var v, bool negated) : x_(v + v + (negated ? 1 : 0)) {}

  /// Positive literal of v.
  static constexpr Lit Pos(Var v) { return Lit(v, false); }
  /// Negative literal of v.
  static constexpr Lit Neg(Var v) { return Lit(v, true); }
  /// Reconstructs a literal from its index().
  static constexpr Lit FromIndex(int32_t idx) {
    Lit l;
    l.x_ = idx;
    return l;
  }

  constexpr Var var() const { return x_ >> 1; }
  constexpr bool negated() const { return x_ & 1; }
  constexpr int32_t index() const { return x_; }

  constexpr Lit operator~() const { return FromIndex(x_ ^ 1); }

  constexpr bool operator==(const Lit& o) const { return x_ == o.x_; }
  constexpr bool operator!=(const Lit& o) const { return x_ != o.x_; }
  constexpr bool operator<(const Lit& o) const { return x_ < o.x_; }

  /// Renders "v3" or "~v3".
  std::string ToString() const {
    return (negated() ? "~v" : "v") + std::to_string(var());
  }

 private:
  int32_t x_;
};

inline constexpr Lit kLitUndef{};

/// Three-valued assignment state.
enum class Lbool : uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

/// Applies a literal's sign to a variable's value.
inline Lbool LboolOf(Lbool var_value, bool negated) {
  if (var_value == Lbool::kUndef) return Lbool::kUndef;
  const bool b = (var_value == Lbool::kTrue) != negated;
  return b ? Lbool::kTrue : Lbool::kFalse;
}

}  // namespace ccr::sat

#endif  // CCR_SAT_LITERAL_H_
