#include "src/sat/dimacs.h"

#include <sstream>
#include <string>
#include <vector>

#include "src/common/strings.h"

namespace ccr::sat {

std::string ToDimacs(const Cnf& cnf) {
  // DIMACS has no order blocks: spell their axioms out as clauses.
  if (cnf.num_order_blocks() > 0) return ToDimacs(cnf.Materialized());
  std::string out = "p cnf " + std::to_string(cnf.num_vars()) + " " +
                    std::to_string(cnf.num_clauses()) + "\n";
  for (int i = 0; i < cnf.num_clauses(); ++i) {
    for (Lit l : cnf.clause(i)) {
      const int signed_var = (l.var() + 1) * (l.negated() ? -1 : 1);
      out += std::to_string(signed_var);
      out += " ";
    }
    out += "0\n";
  }
  return out;
}

Result<Cnf> FromDimacs(const std::string& text) {
  Cnf cnf;
  std::istringstream in(text);
  std::string line;
  std::vector<Lit> clause;
  while (std::getline(in, line)) {
    std::string_view sv = StripWhitespace(line);
    if (sv.empty() || sv[0] == 'c') continue;
    if (sv[0] == 'p') {
      // "p cnf V C": pre-size the variable universe.
      auto parts = Split(sv, ' ');
      for (const auto& p : parts) {
        int64_t v = 0;
        if (ParseInt64(StripWhitespace(p), &v) && v > 0) {
          if (v > kMaxVars) {
            return Status::InvalidArgument(
                "DIMACS header declares " + std::to_string(v) +
                " variables, more than the solver's " +
                std::to_string(kMaxVars));
          }
          cnf.EnsureVars(static_cast<int>(v));
          break;
        }
      }
      continue;
    }
    std::istringstream ls{std::string(sv)};
    int64_t x = 0;
    while (ls >> x) {
      if (x == 0) {
        cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
        clause.clear();
      } else {
        // Checked before negating: -x overflows for INT64_MIN.
        if (x > kMaxVars || x < -static_cast<int64_t>(kMaxVars)) {
          return Status::InvalidArgument(
              "DIMACS literal " + std::to_string(x) +
              " names a variable past the solver's " +
              std::to_string(kMaxVars));
        }
        const Var v = static_cast<Var>((x > 0 ? x : -x) - 1);
        // Headerless input must still satisfy the Cnf invariant that every
        // clause ranges over [0, num_vars).
        cnf.EnsureVars(v + 1);
        clause.push_back(Lit(v, x < 0));
      }
    }
  }
  if (!clause.empty()) {
    return Status::InvalidArgument("unterminated clause in DIMACS input");
  }
  return cnf;
}

}  // namespace ccr::sat
