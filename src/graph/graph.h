// Undirected graphs for the compatibility graph of derivation rules
// (§V-C, Fig. 6).

#ifndef CCR_GRAPH_GRAPH_H_
#define CCR_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace ccr::graph {

/// \brief Simple undirected graph over vertices {0, ..., n-1} with an
/// adjacency matrix of bit rows (compatibility graphs are small and dense).
class Graph {
 public:
  explicit Graph(int num_vertices);

  int num_vertices() const { return n_; }
  int num_edges() const { return num_edges_; }

  /// Adds edge {u, v}; self-loops and duplicates are ignored.
  void AddEdge(int u, int v);

  bool HasEdge(int u, int v) const {
    return (Row(u)[v >> 6] >> (v & 63)) & 1u;
  }

  /// Adjacency row of `v`: bit u of word u / 64 is set iff {u, v} is an
  /// edge. words_per_row() words long.
  const uint64_t* Row(int v) const {
    return adj_.data() + static_cast<size_t>(v) * words_;
  }
  int words_per_row() const { return words_; }

  /// Degree of vertex v.
  int Degree(int v) const;

  /// Neighbors of v in increasing order.
  std::vector<int> Neighbors(int v) const;

  /// True iff every pair of vertices in `vs` is adjacent.
  bool IsClique(const std::vector<int>& vs) const;

  std::string ToString() const;

 private:
  int n_;
  int words_;  // 64-bit words per adjacency row
  int num_edges_ = 0;
  std::vector<uint64_t> adj_;  // n_ rows of words_ words
};

}  // namespace ccr::graph

#endif  // CCR_GRAPH_GRAPH_H_
