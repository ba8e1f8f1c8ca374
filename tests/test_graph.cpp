// Tests for the CSR graph type: construction, transpose, symmetrize.
#include <gtest/gtest.h>

#include <vector>

#include "graphs/graph.h"
#include "parlay/hash_rng.h"

namespace pasgal {
namespace {

Graph diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  std::vector<Edge> edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  return Graph::from_edges(4, edges);
}

TEST(Graph, EmptyGraph) {
  Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, VerticesWithoutEdges) {
  Graph g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.out_degree(v), 0u);
}

TEST(Graph, FromEdgesBasic) {
  Graph g = diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
  auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()),
            (std::vector<VertexId>{1, 2}));
}

TEST(Graph, AdjacencyListsSorted) {
  std::vector<Edge> edges = {{0, 3}, {0, 1}, {0, 2}, {1, 0}};
  Graph g = Graph::from_edges(4, edges);
  auto n0 = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(n0.begin(), n0.end()));
}

TEST(Graph, DedupRemovesParallelEdges) {
  std::vector<Edge> edges = {{0, 1}, {0, 1}, {0, 1}, {1, 2}};
  Graph g = Graph::from_edges(3, edges, /*dedup=*/true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out_degree(0), 1u);
}

TEST(Graph, DropSelfLoops) {
  std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 1}, {1, 2}};
  Graph g = Graph::from_edges(3, edges, /*dedup=*/false, /*drop_self_loops=*/true);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, TransposeReversesEdges) {
  Graph g = diamond();
  Graph t = g.transpose();
  EXPECT_EQ(t.num_edges(), 4u);
  EXPECT_EQ(t.out_degree(3), 2u);
  EXPECT_EQ(t.out_degree(0), 0u);
  auto n3 = t.neighbors(3);
  EXPECT_EQ(std::vector<VertexId>(n3.begin(), n3.end()),
            (std::vector<VertexId>{1, 2}));
}

TEST(Graph, TransposeIsInvolution) {
  std::vector<Edge> edges;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    edges.push_back(Edge{static_cast<VertexId>(hash64(i) % 500),
                         static_cast<VertexId>(hash64(i + 999999) % 500)});
  }
  Graph g = Graph::from_edges(500, edges);
  EXPECT_EQ(g.transpose().transpose(), g);
}

TEST(Graph, SymmetrizeMakesSymmetric) {
  Graph g = diamond();
  Graph s = g.symmetrize();
  EXPECT_TRUE(s.is_symmetric());
  EXPECT_EQ(s.num_edges(), 8u);  // each edge both ways, no duplicates
}

TEST(Graph, SymmetrizeDropsLoopsAndDups) {
  std::vector<Edge> edges = {{0, 1}, {1, 0}, {0, 0}, {0, 1}};
  Graph s = Graph::from_edges(2, edges).symmetrize();
  EXPECT_EQ(s.num_edges(), 2u);  // just 0<->1
  EXPECT_TRUE(s.is_symmetric());
}

TEST(Graph, IsSymmetricDetectsAsymmetry) {
  EXPECT_FALSE(diamond().is_symmetric());
}

TEST(Graph, ToEdgesRoundTrip) {
  Graph g = diamond();
  Graph rebuilt = Graph::from_edges(4, g.to_edges());
  EXPECT_EQ(rebuilt, g);
}

TEST(WeightedGraphTest, FromEdgesKeepsWeights) {
  std::vector<WeightedEdge<std::uint32_t>> edges = {
      {0, 1, 10}, {0, 2, 20}, {1, 2, 5}};
  auto g = WeightedGraph<std::uint32_t>::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  // Weight attached to the right target.
  auto nbrs = g.neighbors(0);
  auto wts = g.neighbor_weights(0);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == 1) {
      EXPECT_EQ(wts[i], 10u);
    }
    if (nbrs[i] == 2) {
      EXPECT_EQ(wts[i], 20u);
    }
  }
}

TEST(WeightedGraphTest, TransposeKeepsWeights) {
  std::vector<WeightedEdge<std::uint32_t>> edges = {{0, 1, 7}, {2, 1, 9}};
  auto g = WeightedGraph<std::uint32_t>::from_edges(3, edges);
  auto t = g.transpose();
  EXPECT_EQ(t.out_degree(1), 2u);
  auto nbrs = t.neighbors(1);
  auto wts = t.neighbor_weights(1);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == 0) {
      EXPECT_EQ(wts[i], 7u);
    }
    if (nbrs[i] == 2) {
      EXPECT_EQ(wts[i], 9u);
    }
  }
}

TEST(Graph, LargeRandomGraphDegreesSumToEdges) {
  const std::size_t n = 10000, m = 100000;
  std::vector<Edge> edges(m);
  for (std::size_t i = 0; i < m; ++i) {
    edges[i] = Edge{static_cast<VertexId>(hash64(i) % n),
                    static_cast<VertexId>(hash64(i * 2 + 1) % n)};
  }
  Graph g = Graph::from_edges(n, edges);
  EdgeId total = 0;
  for (VertexId v = 0; v < n; ++v) total += g.out_degree(v);
  EXPECT_EQ(total, m);
}

}  // namespace
}  // namespace pasgal
