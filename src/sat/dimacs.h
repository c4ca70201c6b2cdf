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
/// missing header; literal 0 terminates each clause. Fails closed with
/// InvalidArgument on a header variable count or a literal whose variable
/// lies past kMaxVars, the most a Solver can hold.
Result<Cnf> FromDimacs(const std::string& text);

}  // namespace ccr::sat

#endif  // CCR_SAT_DIMACS_H_
