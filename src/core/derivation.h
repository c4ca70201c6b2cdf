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

/// \brief Working buffers of TrueDer and CompGraph, and their results,
/// reused across calls (a SuggestScratch holds one).
///
/// Scratch contract: every buffer is rewritten before it is read, so a
/// result never depends on what an earlier call left, and once the
/// buffers have grown to a round's sizes a call allocates nothing. Rules
/// removed from `rules` are parked on `spare_rules` (PooledResize), so
/// each position keeps its premise storage.
struct DerivationScratch {
  // TrueDer's admissibility table: per attribute its first entry, per
  // (attribute, value index) the value's candidate position or -1.
  std::vector<int> adm_offset;
  std::vector<int> adm_position;
  // TrueDer's head index: per attribute its first bucket, per bucket its
  // first entry, the constraints filed by bucket, and the fill cursors.
  std::vector<int> head_base;
  std::vector<int> head_begin;
  std::vector<std::pair<int, const GroundConstraint*>> head_pending;
  std::vector<const GroundConstraint*> head_entries;
  std::vector<int> head_fill;
  // TrueDer's CFD rules: each CFD's first ground constraint, a pattern.
  std::vector<const GroundConstraint*> first_of_cfd;
  std::vector<std::pair<int, int>> pattern;
  // TrueDer's premises: per attribute a stamp and an assumed value, and
  // the attributes assumed for the rule under construction.
  std::vector<int> premise_stamp;
  std::vector<int> premise_value;
  std::vector<int> premise_attrs;
  // An attribute's candidates in value order.
  std::vector<int> sorted_cands;
  // TrueDer's result, and the rules parked when it shrank.
  std::vector<DerivationRule> rules;
  std::vector<DerivationRule> spare_rules;
  // CompGraph: each rule's attribute→value run in one flat array.
  std::vector<std::pair<int, int>> maps;
  std::vector<int> map_begin;
  graph::Graph graph;  // CompGraph's result
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
/// TrueDer on `scratch`'s buffers: the rules are left in scratch->rules,
/// which the result refers to until the next call on `scratch`.
const std::vector<DerivationRule>& TrueDer(
    const Instantiation& inst,
    const std::vector<std::vector<int>>& candidates,
    const std::vector<int>& known_true, DerivationScratch* scratch);

/// Procedure CompGraph: builds the compatibility graph of `rules`
/// (Fig. 6). Nodes x and y are adjacent iff their consequent attributes
/// differ and their attribute→value maps (premises plus consequent) agree
/// on every shared attribute.
graph::Graph CompGraph(const std::vector<DerivationRule>& rules);
/// CompGraph on `scratch`'s buffers: the graph is left in scratch->graph,
/// which the result refers to until the next call on `scratch`. `rules`
/// may be scratch->rules.
const graph::Graph& CompGraph(const std::vector<DerivationRule>& rules,
                              DerivationScratch* scratch);

}  // namespace ccr

#endif  // CCR_CORE_DERIVATION_H_
