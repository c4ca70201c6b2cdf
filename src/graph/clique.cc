#include "src/graph/clique.h"

#include <algorithm>

namespace ccr::graph {

namespace {

// Vertices 0..n-1 by degree, highest first. std::sort is not stable, so
// ties land wherever its comparisons leave them; degrees are computed
// once, and the comparisons — hence the order — are those of sorting by
// Graph::Degree directly.
std::vector<int> ByDegreeDescending(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<int> degree(n);
  std::vector<int> order(n);
  for (int v = 0; v < n; ++v) {
    degree[v] = g.Degree(v);
    order[v] = v;
  }
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return degree[a] > degree[b]; });
  return order;
}

bool TestBit(const uint64_t* bits, int v) {
  return (bits[v >> 6] >> (v & 63)) & 1u;
}

}  // namespace

std::vector<int> GreedyClique(const Graph& g) {
  // `common` is the intersection of the clique members' adjacency rows: a
  // vertex is compatible iff it is adjacent to every member.
  std::vector<uint64_t> common(g.words_per_row(), ~uint64_t{0});
  std::vector<int> clique;
  for (int v : ByDegreeDescending(g)) {
    if (!TestBit(common.data(), v)) continue;
    clique.push_back(v);
    const uint64_t* row = g.Row(v);
    for (int w = 0; w < g.words_per_row(); ++w) common[w] &= row[w];
  }
  std::sort(clique.begin(), clique.end());
  return clique;
}

namespace {

// Branch-and-bound with a greedy-coloring bound. A search node at depth d
// works in the buffers of index d — its candidates in the order its parent
// handed them over, the same reordered by color class, and their colors —
// so buffers are allocated once per depth reached, not once per node.
class CliqueSearch {
 public:
  CliqueSearch(const Graph& g, std::vector<int> warm_start, int64_t max_nodes)
      : g_(g),
        best_(std::move(warm_start)),
        nodes_left_(max_nodes),
        levels_(static_cast<size_t>(g.num_vertices()) + 1),
        forbidden_(g.words_per_row()) {}

  std::vector<int> Run(std::vector<int> all) {
    levels_[0].candidates = std::move(all);
    Expand(0);
    return std::move(best_);
  }

 private:
  struct Level {
    std::vector<int> candidates;
    std::vector<int> ordered;
    std::vector<int> colors;
  };

  // Greedy coloring of the depth's candidates: each takes the lowest color
  // whose class so far has no neighbor of it. Colors are filled one class
  // at a time, scanning the uncolored candidates in order, which gives the
  // same classes. Output is the candidates by class, colors ascending; the
  // color of a vertex bounds the size of any clique among it and its
  // predecessors.
  void ColorSort(Level* level) {
    level->ordered.clear();
    level->colors.clear();
    uncolored_ = level->candidates;
    for (int color = 1; !uncolored_.empty(); ++color) {
      std::fill(forbidden_.begin(), forbidden_.end(), 0);
      deferred_.clear();
      for (int v : uncolored_) {
        if (TestBit(forbidden_.data(), v)) {
          deferred_.push_back(v);
          continue;
        }
        level->ordered.push_back(v);
        level->colors.push_back(color);
        const uint64_t* row = g_.Row(v);
        for (size_t w = 0; w < forbidden_.size(); ++w) forbidden_[w] |= row[w];
      }
      uncolored_.swap(deferred_);
    }
  }

  void Expand(int depth) {
    if (nodes_left_-- <= 0) return;
    Level& level = levels_[depth];
    ColorSort(&level);
    for (int i = static_cast<int>(level.ordered.size()) - 1; i >= 0; --i) {
      const int bound = static_cast<int>(current_.size()) + level.colors[i];
      if (bound <= static_cast<int>(best_.size())) return;
      const int v = level.ordered[i];
      const uint64_t* row = g_.Row(v);
      current_.push_back(v);
      std::vector<int>& next = levels_[depth + 1].candidates;
      next.clear();
      for (int j = 0; j < i; ++j) {
        if (TestBit(row, level.ordered[j])) next.push_back(level.ordered[j]);
      }
      if (next.empty()) {
        if (current_.size() > best_.size()) best_ = current_;
      } else {
        Expand(depth + 1);
      }
      current_.pop_back();
    }
  }

  const Graph& g_;
  std::vector<int> best_;
  std::vector<int> current_;
  int64_t nodes_left_;
  std::vector<Level> levels_;  // one per depth; depth <= clique size <= n
  std::vector<uint64_t> forbidden_;  // neighbors of the class being filled
  std::vector<int> uncolored_;
  std::vector<int> deferred_;
};

}  // namespace

std::vector<int> MaxClique(const Graph& g, int64_t max_nodes) {
  // Warm start for pruning; ordering by degree descending helps the
  // coloring bound.
  CliqueSearch search(g, GreedyClique(g), max_nodes);
  std::vector<int> best = search.Run(ByDegreeDescending(g));
  std::sort(best.begin(), best.end());
  return best;
}

}  // namespace ccr::graph
