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

namespace {

// Reads the problem line "p cnf V C": exactly these four fields, with
// 0 <= V <= kMaxVars and C >= 0.
Status ParseHeader(std::string_view line, int64_t* vars, int64_t* clauses) {
  std::istringstream in{std::string(line)};
  std::string p, format, v, c, extra;
  in >> p >> format >> v >> c;
  if (p != "p" || format != "cnf" || !ParseInt64(v, vars) ||
      !ParseInt64(c, clauses) || *vars < 0 || *clauses < 0 ||
      static_cast<bool>(in >> extra)) {
    return Status::InvalidArgument("malformed DIMACS header \"" +
                                   std::string(line) +
                                   "\": expected \"p cnf V C\"");
  }
  if (*vars > kMaxVars) {
    return Status::InvalidArgument(
        "DIMACS header declares " + std::to_string(*vars) +
        " variables, more than the solver's " + std::to_string(kMaxVars));
  }
  return Status::OK();
}

}  // namespace

Result<Cnf> FromDimacs(const std::string& text) {
  Cnf cnf;
  std::istringstream in(text);
  std::string line;
  std::vector<Lit> clause;
  // The header's counts; -1 until a header is read.
  int64_t header_vars = -1, header_clauses = -1;
  bool seen_clause_data = false;
  while (std::getline(in, line)) {
    std::string_view sv = StripWhitespace(line);
    if (sv.empty() || sv[0] == 'c') continue;
    if (sv[0] == 'p') {
      if (header_vars >= 0) {
        return Status::InvalidArgument("repeated DIMACS header");
      }
      if (seen_clause_data) {
        return Status::InvalidArgument("DIMACS header after clause data");
      }
      CCR_RETURN_NOT_OK(ParseHeader(sv, &header_vars, &header_clauses));
      cnf.EnsureVars(static_cast<int>(header_vars));
      continue;
    }
    std::istringstream ls{std::string(sv)};
    int64_t x = 0;
    while (ls >> x) {
      seen_clause_data = true;
      if (x == 0) {
        cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
        clause.clear();
        continue;
      }
      // Checked before negating: -x overflows for INT64_MIN.
      if (x > kMaxVars || x < -static_cast<int64_t>(kMaxVars)) {
        return Status::InvalidArgument(
            "DIMACS literal " + std::to_string(x) +
            " names a variable past the solver's " +
            std::to_string(kMaxVars));
      }
      const int64_t var_number = x > 0 ? x : -x;
      if (header_vars >= 0 && var_number > header_vars) {
        return Status::InvalidArgument(
            "DIMACS literal " + std::to_string(x) +
            " names a variable past the header's " +
            std::to_string(header_vars));
      }
      const Var v = static_cast<Var>(var_number - 1);
      // Headerless input must still satisfy the Cnf invariant that every
      // clause ranges over [0, num_vars).
      cnf.EnsureVars(v + 1);
      clause.push_back(Lit(v, x < 0));
    }
    // Extraction stops early at a token that is not an int64.
    if (!ls.eof()) {
      return Status::InvalidArgument("DIMACS line \"" + std::string(sv) +
                                     "\" holds a token that is not an "
                                     "integer literal");
    }
  }
  if (!clause.empty()) {
    return Status::InvalidArgument("unterminated clause in DIMACS input");
  }
  if (header_clauses >= 0 && cnf.num_clauses() != header_clauses) {
    return Status::InvalidArgument(
        "DIMACS header declares " + std::to_string(header_clauses) +
        " clauses, the input holds " + std::to_string(cnf.num_clauses()));
  }
  return cnf;
}

}  // namespace ccr::sat
