// Tests for src/graph: Graph, GreedyClique, exact MaxClique.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/graph/clique.h"

namespace ccr::graph {
namespace {

// Brute-force maximum clique size for small graphs.
int BruteForceMaxClique(const Graph& g) {
  const int n = g.num_vertices();
  int best = 0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<int> vs;
    for (int v = 0; v < n; ++v) {
      if (mask & (1u << v)) vs.push_back(v);
    }
    if (static_cast<int>(vs.size()) <= best) continue;
    if (g.IsClique(vs)) best = static_cast<int>(vs.size());
  }
  return best;
}

TEST(GraphTest, AddAndQueryEdges) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.Neighbors(1), (std::vector<int>{0, 2}));
}

TEST(GraphTest, SelfLoopsAndDuplicatesIgnored) {
  Graph g(3);
  g.AddEdge(1, 1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(GraphTest, IsClique) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.IsClique({0, 1, 2}));
  EXPECT_FALSE(g.IsClique({0, 1, 3}));
  EXPECT_TRUE(g.IsClique({2}));
  EXPECT_TRUE(g.IsClique({}));
}

TEST(CliqueTest, EmptyGraph) {
  Graph g(0);
  EXPECT_TRUE(MaxClique(g).empty());
  EXPECT_TRUE(GreedyClique(g).empty());
}

TEST(CliqueTest, NoEdgesGivesSingleton) {
  Graph g(5);
  EXPECT_EQ(MaxClique(g).size(), 1u);
}

TEST(CliqueTest, TriangleInPath) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  const auto c = MaxClique(g);
  EXPECT_EQ(c, (std::vector<int>{0, 1, 2}));
}

TEST(CliqueTest, CompleteGraph) {
  Graph g(6);
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) g.AddEdge(u, v);
  }
  EXPECT_EQ(MaxClique(g).size(), 6u);
  EXPECT_EQ(GreedyClique(g).size(), 6u);
}

TEST(CliqueTest, PaperFig6Structure) {
  // The compatibility graph of Fig. 6: nodes n1..n9 (0-indexed 0..8);
  // clique {n1..n5} and clique {n6, n7, n8, n9} linked as in Example 11/12.
  Graph g(9);
  // n1-n5 pairwise compatible (all premised on status=retired).
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) g.AddEdge(u, v);
  }
  // n6-n9 pairwise compatible (premised on status=unemployed).
  for (int u = 5; u < 9; ++u) {
    for (int v = u + 1; v < 9; ++v) g.AddEdge(u, v);
  }
  const auto c = MaxClique(g);
  EXPECT_EQ(c, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(GreedyClique(g), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(CliqueTest, GreedyIsAValidClique) {
  Rng rng(3);
  for (int round = 0; round < 30; ++round) {
    const int n = 4 + static_cast<int>(rng.Below(12));
    Graph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Chance(0.45)) g.AddEdge(u, v);
      }
    }
    EXPECT_TRUE(g.IsClique(GreedyClique(g)));
  }
}

TEST(CliqueTest, ExactMatchesBruteForceOnRandomGraphs) {
  // Which maximum clique is returned decides which derivation rules
  // Suggest keeps, so the exact vertex sets are pinned, not only their
  // size: the search order, node budget and tie-breaks must not drift.
  const std::vector<std::vector<int>> kExpected = {
      {0, 1}, {2, 3, 5, 6}, {1, 4, 5}, {1, 3, 4}, {0, 1, 3}, {0, 1, 3, 4, 5},
      {0, 1}, {0, 1}, {0, 2, 6, 7}, {2, 3, 5}, {0, 3, 4, 5}, {3, 7, 8},
      {0, 2, 6}, {0, 1, 2}, {0}, {0, 1, 2, 5}, {1, 2, 6}, {3, 5, 9},
      {7, 9}, {0, 2, 3}, {0, 1, 2, 5}, {0, 1, 4}, {1, 3, 5, 6, 8}, {4, 5, 6},
      {0, 2}, {0, 1, 5}, {0, 1, 3, 4}, {0, 3, 4}, {0, 3, 4, 10}, {0, 2, 3},
      {0, 3, 5, 7}, {0, 1, 2, 4, 5}, {0, 3, 4, 5, 6, 7}, {0, 1, 3, 4}, {1, 2},
      {0, 3}, {1, 4, 7, 9, 10}, {1, 3}, {0, 2, 3}, {0, 4, 5}, {1, 6},
      {2, 5, 8, 9}, {1, 4, 5, 7, 8}, {1, 3, 5}, {3, 4, 6, 8, 11}, {1, 4, 5},
      {0, 2, 3, 5}, {2, 3, 6}, {3, 4, 6}, {0, 3, 8}, {0, 1, 2}, {0, 2, 6, 7},
      {0, 2}, {0, 1}, {0, 1}, {0, 3, 5, 8}, {0, 2, 4}, {1, 3, 4, 8, 9},
      {1, 9, 10}, {4, 5, 8}};
  Rng rng(1234);
  for (int round = 0; round < 60; ++round) {
    const int n = 3 + static_cast<int>(rng.Below(10));
    Graph g(n);
    const double density = 0.2 + 0.6 * rng.NextDouble();
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Chance(density)) g.AddEdge(u, v);
      }
    }
    const auto c = MaxClique(g);
    EXPECT_TRUE(g.IsClique(c)) << "round " << round;
    EXPECT_EQ(static_cast<int>(c.size()), BruteForceMaxClique(g))
        << "round " << round;
    EXPECT_EQ(c, kExpected[round]) << "round " << round;
  }
}

TEST(CliqueTest, PinnedOnDenseRandomGraphs) {
  // Deeper searches than the brute-force sizes allow (bench_micro's
  // BM_MaxClique graphs), pinned the same way.
  const std::vector<std::pair<int, std::vector<int>>> kExpected = {
      {20, {0, 8, 9, 17, 18, 19}},
      {40, {5, 9, 18, 26, 35, 38}},
      {60, {3, 17, 19, 40, 41, 48, 57, 58}}};
  for (const auto& [n, expected] : kExpected) {
    Rng rng(7);
    Graph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Chance(0.5)) g.AddEdge(u, v);
      }
    }
    EXPECT_EQ(MaxClique(g), expected) << "n = " << n;
  }
}

TEST(CliqueTest, GreedyLowerBoundsExact) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    const int n = 8 + static_cast<int>(rng.Below(10));
    Graph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.Chance(0.5)) g.AddEdge(u, v);
      }
    }
    EXPECT_LE(GreedyClique(g).size(), MaxClique(g).size());
  }
}

}  // namespace
}  // namespace ccr::graph
