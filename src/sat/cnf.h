// CNF formula container with pooled clause storage.
//
// The encoder (Φ(Se), §V-A) can emit hundreds of thousands of clauses per
// entity; storing every clause as its own vector would fragment the heap,
// so literals live in one contiguous pool with an offset table — the same
// layout database engines use for packed row storage.

#ifndef CCR_SAT_CNF_H_
#define CCR_SAT_CNF_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/sat/literal.h"

namespace ccr::sat {

/// \brief An immutable-after-append list of clauses over vars [0, num_vars).
class Cnf {
 public:
  Cnf() = default;
  // Copies and moves give both sides' contents a new identity().
  Cnf(const Cnf& o)
      : num_vars_(o.num_vars_), pool_(o.pool_), starts_(o.starts_) {}
  Cnf(Cnf&& o) noexcept
      : num_vars_(o.num_vars_),
        pool_(std::move(o.pool_)),
        starts_(std::move(o.starts_)) {
    o.Clear();
  }
  Cnf& operator=(const Cnf& o) {
    if (this != &o) {
      num_vars_ = o.num_vars_;
      pool_ = o.pool_;
      starts_ = o.starts_;
      id_ = NextId();
    }
    return *this;
  }
  Cnf& operator=(Cnf&& o) noexcept {
    if (this != &o) {
      num_vars_ = o.num_vars_;
      pool_ = std::move(o.pool_);
      starts_ = std::move(o.starts_);
      id_ = NextId();
      o.Clear();
    }
    return *this;
  }

  /// Grows the variable universe to at least `n` variables.
  void EnsureVars(int n) {
    if (n > num_vars_) num_vars_ = n;
  }

  /// Allocates one fresh variable; returns its id.
  Var NewVar() { return num_vars_++; }

  int num_vars() const { return num_vars_; }
  int num_clauses() const { return static_cast<int>(starts_.size()) - 1; }

  /// Total number of literal slots across clauses.
  int64_t num_literals() const {
    return static_cast<int64_t>(pool_.size());
  }

  /// Appends a clause (disjunction of `lits`). Empty clauses are allowed
  /// and make the formula trivially unsatisfiable.
  void AddClause(std::span<const Lit> lits);
  void AddClause(std::initializer_list<Lit> lits) {
    AddClause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Convenience: unit / binary / ternary clauses.
  void AddUnit(Lit a) { AddClause({a}); }
  void AddBinary(Lit a, Lit b) { AddClause({a, b}); }
  void AddTernary(Lit a, Lit b, Lit c) { AddClause({a, b, c}); }

  /// View of clause `i`'s literals.
  std::span<const Lit> clause(int i) const {
    return std::span<const Lit>(pool_.data() + starts_[i],
                                starts_[i + 1] - starts_[i]);
  }

  /// A token naming this formula's contents: it is unique per Cnf object
  /// and changes on Clear, copy and move, while AddClause only appends.
  /// So a consumer that saw clauses [0, k) of a formula with this token
  /// (DeduceScratch) may index just the suffix the next time it sees the
  /// same token.
  uint64_t identity() const { return id_; }

  /// Renders a compact textual summary ("p cnf V C" plus clause list when
  /// small) for diagnostics.
  std::string ToString() const;

  /// Removes every variable and clause but keeps the literal pool's and
  /// offset table's capacity, so a recycled formula (SessionScratch) can
  /// be refilled without re-growing its buffers from cold.
  void Clear() {
    num_vars_ = 0;
    pool_.clear();
    starts_.clear();
    starts_.push_back(0);
    id_ = NextId();
  }

 private:
  static uint64_t NextId();

  uint64_t id_ = NextId();
  int num_vars_ = 0;
  std::vector<Lit> pool_;
  std::vector<uint32_t> starts_{0};
};

}  // namespace ccr::sat

#endif  // CCR_SAT_CNF_H_
