// DIMACS CNF serialization, for interoperability with external SAT tooling
// and for snapshotting Φ(Se) instances in tests.

#ifndef CCR_SAT_DIMACS_H_
#define CCR_SAT_DIMACS_H_

#include <string>

#include "src/common/status.h"
#include "src/sat/cnf.h"

namespace ccr::sat {

/// Renders `cnf` in DIMACS format ("p cnf <vars> <clauses>" header,
/// 1-based signed literals, 0-terminated clauses). Order blocks are
/// written out as their transitivity clauses (Cnf::Materialized), so
/// parsing the text back yields the materialized formula.
std::string ToDimacs(const Cnf& cnf);

/// Parses DIMACS text. Accepts comment lines ('c ...') and tolerates a
/// missing header; literal 0 terminates each clause. A header must read
/// exactly "p cnf V C" and come once, before any clause: the formula then
/// has V variables and must hold exactly C clauses, none naming a
/// variable past V. Fails closed with InvalidArgument on a malformed,
/// repeated or late header, a clause count other than C, a token that is
/// not an integer literal, a literal past V, or a variable count or
/// literal past kMaxVars, the most a Solver can hold.
Result<Cnf> FromDimacs(const std::string& text);

}  // namespace ccr::sat

#endif  // CCR_SAT_DIMACS_H_
