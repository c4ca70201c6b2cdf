#include "src/graph/clique.h"

#include <algorithm>
#include <utility>

namespace ccr::graph {

namespace {

// Vertices 0..n-1 by degree, highest first, into scratch->order.
// std::sort is not stable, so ties land wherever its comparisons leave
// them; degrees are computed once, and the comparisons — hence the order
// — are those of sorting by Graph::Degree directly.
void ByDegreeDescending(const Graph& g, CliqueScratch* s) {
  const int n = g.num_vertices();
  s->degree.resize(n);
  s->order.resize(n);
  for (int v = 0; v < n; ++v) {
    s->degree[v] = g.Degree(v);
    s->order[v] = v;
  }
  const std::vector<int>& degree = s->degree;
  std::sort(s->order.begin(), s->order.end(),
            [&](int a, int b) { return degree[a] > degree[b]; });
}

bool TestBit(const uint64_t* bits, int v) {
  return (bits[v >> 6] >> (v & 63)) & 1u;
}

}  // namespace

std::vector<int> GreedyClique(const Graph& g) {
  CliqueScratch scratch;
  GreedyClique(g, &scratch);
  return std::move(scratch.greedy);
}

const std::vector<int>& GreedyClique(const Graph& g, CliqueScratch* scratch) {
  // `common` is the intersection of the clique members' adjacency rows: a
  // vertex is compatible iff it is adjacent to every member.
  std::vector<uint64_t>& common = scratch->common;
  std::vector<int>& clique = scratch->greedy;
  common.assign(g.words_per_row(), ~uint64_t{0});
  clique.clear();
  ByDegreeDescending(g, scratch);
  for (int v : scratch->order) {
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
// works in the scratch's level d, so buffers are allocated once per depth
// reached, not once per node, and kept across searches.
class CliqueSearch {
 public:
  CliqueSearch(const Graph& g, int64_t max_nodes, CliqueScratch* s)
      : g_(g), nodes_left_(max_nodes), s_(*s) {
    // Depth <= clique size <= n.
    const size_t depths = static_cast<size_t>(g.num_vertices()) + 1;
    if (s_.levels.size() < depths) s_.levels.resize(depths);
    s_.forbidden.resize(g.words_per_row());
    s_.current.clear();
  }

  // Searches from the candidates in levels[0], improving on s->best.
  void Run() { Expand(0); }

 private:
  using Level = CliqueScratch::Level;

  // Greedy coloring of the depth's candidates: each takes the lowest color
  // whose class so far has no neighbor of it. Colors are filled one class
  // at a time, scanning the uncolored candidates in order, which gives the
  // same classes. Output is the candidates by class, colors ascending; the
  // color of a vertex bounds the size of any clique among it and its
  // predecessors.
  void ColorSort(Level* level) {
    std::vector<uint64_t>& forbidden = s_.forbidden;
    level->ordered.clear();
    level->colors.clear();
    s_.uncolored = level->candidates;
    for (int color = 1; !s_.uncolored.empty(); ++color) {
      std::fill(forbidden.begin(), forbidden.end(), 0);
      s_.deferred.clear();
      for (int v : s_.uncolored) {
        if (TestBit(forbidden.data(), v)) {
          s_.deferred.push_back(v);
          continue;
        }
        level->ordered.push_back(v);
        level->colors.push_back(color);
        const uint64_t* row = g_.Row(v);
        for (size_t w = 0; w < forbidden.size(); ++w) forbidden[w] |= row[w];
      }
      s_.uncolored.swap(s_.deferred);
    }
  }

  void Expand(int depth) {
    if (nodes_left_-- <= 0) return;
    Level& level = s_.levels[depth];
    ColorSort(&level);
    std::vector<int>& current = s_.current;
    std::vector<int>& best = s_.best;
    for (int i = static_cast<int>(level.ordered.size()) - 1; i >= 0; --i) {
      const int bound = static_cast<int>(current.size()) + level.colors[i];
      if (bound <= static_cast<int>(best.size())) return;
      const int v = level.ordered[i];
      const uint64_t* row = g_.Row(v);
      current.push_back(v);
      std::vector<int>& next = s_.levels[depth + 1].candidates;
      next.clear();
      for (int j = 0; j < i; ++j) {
        if (TestBit(row, level.ordered[j])) next.push_back(level.ordered[j]);
      }
      if (next.empty()) {
        if (current.size() > best.size()) best = current;
      } else {
        Expand(depth + 1);
      }
      current.pop_back();
    }
  }

  const Graph& g_;
  int64_t nodes_left_;
  CliqueScratch& s_;
};

}  // namespace

std::vector<int> MaxClique(const Graph& g, int64_t max_nodes) {
  CliqueScratch scratch;
  MaxClique(g, &scratch, max_nodes);
  return std::move(scratch.best);
}

const std::vector<int>& MaxClique(const Graph& g, CliqueScratch* scratch,
                                  int64_t max_nodes) {
  // Warm start for pruning; ordering by degree descending helps the
  // coloring bound. GreedyClique leaves that order in scratch->order.
  scratch->best = GreedyClique(g, scratch);
  CliqueSearch search(g, max_nodes, scratch);
  scratch->levels[0].candidates = scratch->order;
  search.Run();
  std::sort(scratch->best.begin(), scratch->best.end());
  return scratch->best;
}

}  // namespace ccr::graph
