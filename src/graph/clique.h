// Maximum clique solvers for the compatibility graph (§V-C).
//
// The paper plugs in an approximate MaxClique tool (Feige [16]); we provide
// (a) a fast greedy heuristic and (b) an exact branch-and-bound with a
// greedy-coloring upper bound (Tomita-style). Compatibility graphs have at
// most |R|·|It| vertices and in practice a few dozen, so the exact solver
// is the default; the ablation bench compares both.

#ifndef CCR_GRAPH_CLIQUE_H_
#define CCR_GRAPH_CLIQUE_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace ccr::graph {

/// \brief Working buffers of GreedyClique and MaxClique, and their
/// results, reused across calls (a SuggestScratch holds one).
///
/// Scratch contract: every buffer is rewritten before it is read, so a
/// result never depends on what an earlier call left, and once the
/// buffers have grown to a graph's sizes a call allocates nothing. The
/// search's levels are indexed by depth and only ever added, so each
/// depth keeps its storage.
struct CliqueScratch {
  // The vertices by degree, highest first, and the degrees.
  std::vector<int> order;
  std::vector<int> degree;
  // GreedyClique: the members' common neighbors, and its result.
  std::vector<uint64_t> common;
  std::vector<int> greedy;
  // MaxClique: per search depth, its candidates in the order the parent
  // handed them over, the same reordered by color class, and their
  // colors.
  struct Level {
    std::vector<int> candidates;
    std::vector<int> ordered;
    std::vector<int> colors;
  };
  std::vector<Level> levels;
  // MaxClique's coloring: the neighbors of the class being filled, and the
  // vertices not yet colored and deferred to the next class.
  std::vector<uint64_t> forbidden;
  std::vector<int> uncolored;
  std::vector<int> deferred;
  // MaxClique: the clique being extended, and its result.
  std::vector<int> current;
  std::vector<int> best;
};

/// Greedy heuristic: repeatedly adds the highest-degree compatible vertex.
/// Linear-time and typically near-optimal on dense compatibility graphs.
std::vector<int> GreedyClique(const Graph& g);
/// GreedyClique on `scratch`'s buffers: the clique is left in
/// scratch->greedy, which the result refers to.
const std::vector<int>& GreedyClique(const Graph& g, CliqueScratch* scratch);

/// Exact maximum clique via branch-and-bound with greedy coloring bound.
/// `max_nodes` caps the search-tree size; on hitting the cap the best
/// clique found so far is returned (still a valid clique).
std::vector<int> MaxClique(const Graph& g, int64_t max_nodes = 1 << 22);
/// MaxClique on `scratch`'s buffers: the clique is left in scratch->best,
/// which the result refers to.
const std::vector<int>& MaxClique(const Graph& g, CliqueScratch* scratch,
                                  int64_t max_nodes = 1 << 22);

}  // namespace ccr::graph

#endif  // CCR_GRAPH_CLIQUE_H_
