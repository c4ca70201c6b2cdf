// CNF formula container with pooled clause storage and implicit order
// blocks.
//
// Explicit clauses live in one contiguous literal pool with an offset
// table — the same layout database engines use for packed row storage.
//
// The encoder's transitivity axioms (Φ(Se), §V-A) are not stored as
// clauses. An attribute with d domain values would need d(d-1)(d-2)
// ternaries ¬x_ij ∨ ¬x_jk ∨ x_ik, about 92% of Φ on the Person corpus.
// Instead the formula carries one *order block* per attribute: the d×d
// matrix of its order variables, which stands for every one of those
// ternaries. Consumers that propagate (Solver, DeduceOrder) apply the
// ternaries' unit rules straight from the matrix; consumers that need
// the clauses spelled out (DIMACS output, the CNF-form WalkSAT, tests)
// call Materialized().

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

/// \brief The transitivity axioms of one strict order, kept implicit.
///
/// `vars` is the size×size matrix, row-major, of the variables x_ij
/// ("value i precedes value j"); the diagonal holds kVarUndef. The block
/// stands for the clause ¬x_ij ∨ ¬x_jk ∨ x_ik for every ordered triple of
/// distinct values i, j, k: size·(size-1)·(size-2) clauses in all.
struct OrderBlock {
  int size = 0;
  std::vector<Var> vars;

  Var at(int i, int j) const { return vars[static_cast<size_t>(i) * size + j]; }
  int64_t num_axioms() const {
    return static_cast<int64_t>(size) * (size - 1) * (size - 2);
  }

  /// The unit rules of the two or three ternaries that hold x_ij and the
  /// third value k (i, j, k distinct), once x_ij is assigned: true
  /// (`positive`) makes it a premise of (i, j, k) and (k, i, j), false the
  /// conclusion of (i, k, j). `value(a, b)` gives x_ab's current Lbool.
  /// For each such ternary (a, b, c) = ¬x_ab ∨ ¬x_bc ∨ x_ac that is now
  /// unit or falsified, calls `fire(a, b, c, first, other)`: `first` is
  /// its open literal (an implication) or, if falsified, its third false
  /// one (a conflict); `other` is its remaining false literal besides
  /// x_ij's. `first` is never true. Stops, returning false, as soon as
  /// `fire` returns false. Solver propagation and DeduceOrder share these
  /// rules.
  template <class ValueFn, class FireFn>
  bool PropagateAxioms(int i, int j, int k, bool positive, ValueFn value,
                       FireFn fire) const {
    constexpr Lbool kTrue = Lbool::kTrue;
    constexpr Lbool kUndef = Lbool::kUndef;
    if (positive) {
      // (i, j, k): unit once x_jk is true or x_ik is false.
      const Lbool jk = value(j, k);
      const Lbool ik = value(i, k);
      if (jk == kTrue) {
        if (ik != kTrue &&
            !fire(i, j, k, Lit::Pos(at(i, k)), Lit::Neg(at(j, k)))) {
          return false;
        }
      } else if (jk == kUndef && ik == Lbool::kFalse) {
        if (!fire(i, j, k, Lit::Neg(at(j, k)), Lit::Pos(at(i, k)))) {
          return false;
        }
      }
      // (k, i, j): unit once x_ki is true or x_kj is false.
      const Lbool ki = value(k, i);
      const Lbool kj = value(k, j);
      if (ki == kTrue) {
        return kj == kTrue ||
               fire(k, i, j, Lit::Pos(at(k, j)), Lit::Neg(at(k, i)));
      }
      return !(ki == kUndef && kj == Lbool::kFalse) ||
             fire(k, i, j, Lit::Neg(at(k, i)), Lit::Pos(at(k, j)));
    }
    // (i, k, j): unit once x_ik or x_kj is true.
    const Lbool ik = value(i, k);
    const Lbool kj = value(k, j);
    if (ik == kTrue) {
      return kj == Lbool::kFalse ||
             fire(i, k, j, Lit::Neg(at(k, j)), Lit::Neg(at(i, k)));
    }
    return !(ik == kUndef && kj == kTrue) ||
           fire(i, k, j, Lit::Neg(at(i, k)), Lit::Neg(at(k, j)));
  }

  /// Ternaries the assignment `value(var)` (true/false per variable)
  /// falsifies, counting at most `limit`: 0 iff it is transitively closed.
  template <class ValueFn>
  int64_t CountOpenAxioms(ValueFn value, int64_t limit) const {
    int64_t open = 0;
    for (int i = 0; i < size; ++i) {
      for (int j = 0; j < size; ++j) {
        if (j == i || !value(at(i, j))) continue;
        for (int k = 0; k < size; ++k) {
          if (k == i || k == j || !value(at(j, k)) || value(at(i, k))) {
            continue;
          }
          if (++open >= limit) return open;
        }
      }
    }
    return open;
  }
};

/// Where an order-block variable sits: its block and matrix entry x_ij.
struct OrderPos {
  int32_t block = -1;  // -1: the variable is in no block
  int32_t i = 0;
  int32_t j = 0;
};

/// \brief An append-only formula over vars [0, num_vars): explicit clauses
/// plus order blocks.
class Cnf {
 public:
  Cnf() = default;
  // Copies and moves give both sides' contents a new identity().
  Cnf(const Cnf& o)
      : num_vars_(o.num_vars_),
        pool_(o.pool_),
        starts_(o.starts_),
        blocks_(o.blocks_),
        order_pos_(o.order_pos_) {}
  Cnf(Cnf&& o) noexcept
      : num_vars_(o.num_vars_),
        pool_(std::move(o.pool_)),
        starts_(std::move(o.starts_)),
        blocks_(std::move(o.blocks_)),
        order_pos_(std::move(o.order_pos_)) {
    o.Clear();
  }
  Cnf& operator=(const Cnf& o) {
    if (this != &o) {
      num_vars_ = o.num_vars_;
      pool_ = o.pool_;
      starts_ = o.starts_;
      blocks_ = o.blocks_;
      order_pos_ = o.order_pos_;
      id_ = NextId();
    }
    return *this;
  }
  Cnf& operator=(Cnf&& o) noexcept {
    if (this != &o) {
      num_vars_ = o.num_vars_;
      pool_ = std::move(o.pool_);
      starts_ = std::move(o.starts_);
      blocks_ = std::move(o.blocks_);
      order_pos_ = std::move(o.order_pos_);
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
  /// Explicit clauses only; num_implicit_clauses() counts the rest.
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

  // --- order blocks ------------------------------------------------------

  /// Appends an empty order block (size 0); returns its index.
  int AddOrderBlock() {
    blocks_.emplace_back();
    return static_cast<int>(blocks_.size()) - 1;
  }

  /// Grows block `b` to `size` values. Existing entries keep their
  /// variables; the new ones (row or column >= the old size) start as
  /// kVarUndef and must each be set with SetOrderVar.
  void GrowOrderBlock(int b, int size);

  /// Sets x_ij of block `b` (i != j, both below its size) to `v`, a
  /// variable in no block yet.
  void SetOrderVar(int b, int i, int j, Var v);

  int num_order_blocks() const { return static_cast<int>(blocks_.size()); }
  const OrderBlock& order_block(int b) const { return blocks_[b]; }

  /// The block entry `v` fills (block -1 when it is in none).
  OrderPos order_pos(Var v) const {
    return static_cast<size_t>(v) < order_pos_.size() ? order_pos_[v]
                                                      : OrderPos{};
  }

  /// Transitivity clauses the order blocks stand for (Σ d(d-1)(d-2)).
  /// num_clauses() + num_implicit_clauses() is the size of the
  /// materialized formula.
  int64_t num_implicit_clauses() const;

  /// The same formula with every order block spelled out as clauses and
  /// no blocks: the explicit clauses in order, then each block's
  /// ternaries ¬x_ij ∨ ¬x_jk ∨ x_ik (i, then j, then k ascending). For
  /// consumers that read clauses directly: DIMACS output, the CNF-form
  /// WalkSAT and tests that compare against a fully explicit formula.
  Cnf Materialized() const;

  /// A token naming this formula's contents: it is unique per Cnf object
  /// and changes on Clear, copy and move, while AddClause and block
  /// growth only append. So a consumer that saw clauses [0, k) of a
  /// formula with this token (DeduceScratch) may index just the suffix
  /// the next time it sees the same token.
  uint64_t identity() const { return id_; }

  /// Renders a compact textual summary ("p cnf V C" plus clause list when
  /// small) for diagnostics.
  std::string ToString() const;

  /// Removes every variable, clause and order block but keeps the literal
  /// pool's and offset table's capacity, so a recycled formula
  /// (SessionScratch) can be refilled without re-growing its buffers from
  /// cold.
  void Clear() {
    num_vars_ = 0;
    pool_.clear();
    starts_.clear();
    starts_.push_back(0);
    blocks_.clear();
    order_pos_.clear();
    id_ = NextId();
  }

 private:
  static uint64_t NextId();

  uint64_t id_ = NextId();
  int num_vars_ = 0;
  std::vector<Lit> pool_;
  std::vector<uint32_t> starts_{0};
  std::vector<OrderBlock> blocks_;
  std::vector<OrderPos> order_pos_;  // per var, grown by SetOrderVar
};

}  // namespace ccr::sat

#endif  // CCR_SAT_CNF_H_
