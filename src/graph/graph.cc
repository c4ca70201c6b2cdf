#include "src/graph/graph.h"

#include <bit>

namespace ccr::graph {

Graph::Graph(int num_vertices) { Reset(num_vertices); }

void Graph::Reset(int num_vertices) {
  CCR_CHECK(num_vertices >= 0);
  n_ = num_vertices;
  words_ = (num_vertices + 63) / 64;
  num_edges_ = 0;
  adj_.assign(static_cast<size_t>(n_) * words_, 0);
}

void Graph::AddEdge(int u, int v) {
  CCR_DCHECK(u >= 0 && v >= 0 && u < n_ && v < n_);
  if (u == v) return;
  if (HasEdge(u, v)) return;
  adj_[static_cast<size_t>(u) * words_ + (v >> 6)] |= uint64_t{1} << (v & 63);
  adj_[static_cast<size_t>(v) * words_ + (u >> 6)] |= uint64_t{1} << (u & 63);
  ++num_edges_;
}

int Graph::Degree(int v) const {
  int d = 0;
  for (int w = 0; w < words_; ++w) d += std::popcount(Row(v)[w]);
  return d;
}

std::vector<int> Graph::Neighbors(int v) const {
  std::vector<int> out;
  for (int u = 0; u < n_; ++u) {
    if (HasEdge(v, u)) out.push_back(u);
  }
  return out;
}

bool Graph::IsClique(const std::vector<int>& vs) const {
  for (size_t i = 0; i < vs.size(); ++i) {
    for (size_t j = i + 1; j < vs.size(); ++j) {
      if (!HasEdge(vs[i], vs[j])) return false;
    }
  }
  return true;
}

std::string Graph::ToString() const {
  std::string out = "graph n=" + std::to_string(n_) + " m=" +
                    std::to_string(num_edges_) + "\n";
  for (int u = 0; u < n_; ++u) {
    for (int v = u + 1; v < n_; ++v) {
      if (HasEdge(u, v)) {
        out += "  " + std::to_string(u) + " -- " + std::to_string(v) + "\n";
      }
    }
  }
  return out;
}

}  // namespace ccr::graph
