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

std::string Cnf::ToString() const {
  std::string out = "p cnf " + std::to_string(num_vars_) + " " +
                    std::to_string(num_clauses()) + "\n";
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
