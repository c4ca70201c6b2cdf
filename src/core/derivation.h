// True-value derivation rules and compatibility graphs (§V-C.1).
//
// A derivation rule (X, P[X]) → (B, b) asserts: if P[X] are the true
// values of X, then b is the true value of B. Rules are mined from the
// instance constraints Ω(Se) (procedure TrueDer) and from the applicable
// constant CFDs. The compatibility graph connects rules that can fire
// together (different consequents, agreeing premises); cliques in it are
// candidate "scenarios" from which suggestions are computed.

#ifndef CCR_CORE_DERIVATION_H_
#define CCR_CORE_DERIVATION_H_

#include <string>
#include <utility>
#include <vector>

#include "src/core/deduce.h"
#include "src/encode/instantiation.h"
#include "src/graph/graph.h"

namespace ccr {

/// \brief One true-value derivation rule (X, P[X]) → (B, b); values are
/// indices into the VarMap domains.
struct DerivationRule {
  std::vector<std::pair<int, int>> lhs;  // (attr, value index), sorted by attr
  int rhs_attr = -1;
  int rhs_value = -1;
  GroundSource origin = GroundSource::kCurrencyConstraint;
  int source_index = -1;

  std::string ToString(const VarMap& vm, const Schema& schema) const;
};

/// Procedure TrueDer: derives rules from Ω(Se).
///
/// `candidates` is V(A) per attribute (from CandidateValues); `known_true`
/// holds the validated/deduced true value index per attribute, or -1.
/// Rules are only generated for attributes whose true value is unknown,
/// and only with premises drawn from candidate (or known) values.
///
/// Cost: one pass over Ω(Se) with a constant-time test per constraint;
/// indexing and rule search then touch only the Σ constraints whose head
/// orders two candidates of an unknown attribute.
std::vector<DerivationRule> TrueDer(
    const Instantiation& inst,
    const std::vector<std::vector<int>>& candidates,
    const std::vector<int>& known_true);

/// Procedure CompGraph: builds the compatibility graph of `rules`
/// (Fig. 6). Nodes x and y are adjacent iff their consequent attributes
/// differ and their attribute→value maps (premises plus consequent) agree
/// on every shared attribute.
graph::Graph CompGraph(const std::vector<DerivationRule>& rules);

}  // namespace ccr

#endif  // CCR_CORE_DERIVATION_H_
