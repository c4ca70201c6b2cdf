#include "src/sat/cnf.h"

#include <atomic>

#include "src/common/status.h"

namespace ccr::sat {

uint64_t Cnf::NextId() {
  // Shared by every thread's formulas; only uniqueness matters.
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Cnf::AddClause(std::span<const Lit> lits) {
  for (Lit l : lits) {
    CCR_DCHECK(l.var() >= 0);
    EnsureVars(l.var() + 1);
    pool_.push_back(l);
  }
  starts_.push_back(static_cast<uint32_t>(pool_.size()));
}

void Cnf::RecordOrderPos(int b, int i, int j, Var v) {
  CCR_DCHECK(v >= 0);
  EnsureVars(v + 1);
  if (order_pos_.size() <= static_cast<size_t>(v)) order_pos_.resize(v + 1);
  CCR_DCHECK(order_pos_[v].block < 0);
  order_pos_[v] = {b, i, j};
}

int64_t Cnf::num_implicit_clauses() const {
  int64_t total = 0;
  for (const OrderBlock& block : blocks_) total += block.num_axioms();
  return total;
}

Cnf Cnf::Materialized() const {
  Cnf out;
  out.num_vars_ = num_vars_;
  out.pool_ = pool_;
  out.starts_ = starts_;
  for (const OrderBlock& block : blocks_) {
    const int d = block.size;
    for (int i = 0; i < d; ++i) {
      for (int j = i + 1; j < d; ++j) {
        out.AddBinary(Lit::Neg(block.at(i, j)), Lit::Neg(block.at(j, i)));
      }
    }
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (j == i) continue;
        for (int k = 0; k < d; ++k) {
          if (k == i || k == j) continue;
          out.AddTernary(Lit::Neg(block.at(i, j)), Lit::Neg(block.at(j, k)),
                         Lit::Pos(block.at(i, k)));
        }
      }
    }
  }
  return out;
}

std::string Cnf::ToString() const {
  std::string out = "p cnf " + std::to_string(num_vars_) + " " +
                    std::to_string(num_clauses()) + "\n";
  if (!blocks_.empty()) {
    out += "c " + std::to_string(blocks_.size()) + " order blocks, " +
           std::to_string(num_implicit_clauses()) + " implicit clauses\n";
  }
  if (num_clauses() > 200) return out + "(too many clauses to print)\n";
  for (int i = 0; i < num_clauses(); ++i) {
    for (Lit l : clause(i)) {
      out += l.ToString();
      out += " ";
    }
    out += "\n";
  }
  return out;
}

}  // namespace ccr::sat
