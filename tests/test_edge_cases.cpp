// Degenerate and adversarial inputs across the whole library: empty graphs,
// single vertices, self-loop-heavy graphs, parallel (duplicate) edges, and
// maximum-degree hubs. Most algorithm contracts assume deduplicated CSR
// (what Graph::from_edges(dedup=true) / symmetrize produce); these tests pin
// down behaviour at the boundaries of those contracts.
#include <gtest/gtest.h>

#include "algorithms/bcc/bcc.h"
#include "algorithms/bfs/bfs.h"
#include "algorithms/cc/cc.h"
#include "algorithms/kcore/kcore.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "algorithms/toposort/toposort.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

class EdgeCases : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, EdgeCases, ::testing::Values(1, 4));

TEST_P(EdgeCases, EmptyGraphEverywhere) {
  Graph g = Graph::from_edges(0, {});
  EXPECT_TRUE(pasgal_scc(g, g, {}).output.empty());
  EXPECT_TRUE(tarjan_scc(g).empty());
  EXPECT_TRUE(multistep_scc(g, g, {}).output.empty());
  EXPECT_EQ(connected_components(g).num_components, 0u);
  EXPECT_EQ(fast_bcc(g).num_bccs, 0u);
  EXPECT_TRUE(seq_kcore(g).empty());
  EXPECT_TRUE(pasgal_kcore(g, {}).output.empty());
  std::vector<std::uint32_t> levels;
  EXPECT_NO_THROW(levels = pasgal_toposort(g, {}).output);
  EXPECT_TRUE(levels.empty());
}

TEST_P(EdgeCases, SingleVertexEverywhere) {
  Graph g = Graph::from_edges(1, {});
  EXPECT_EQ(seq_bfs(g, 0)[0], 0u);
  EXPECT_EQ(pasgal_bfs(g, g, {}).output[0], 0u);
  EXPECT_EQ(normalize_scc_labels(pasgal_scc(g, g, {}).output)[0], 0u);
  EXPECT_EQ(pasgal_kcore(g, {}).output[0], 0u);
  std::vector<std::uint32_t> topo;
  ASSERT_NO_THROW(topo = pasgal_toposort(g, {}).output);
  ASSERT_EQ(topo.size(), 1u);
  EXPECT_EQ(topo[0], 0u);
}

TEST_P(EdgeCases, SelfLoopOnlyGraph) {
  // Every vertex has only a self loop: n singleton SCCs, BFS reaches only
  // the source.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 20; ++v) edges.push_back({v, v});
  Graph g = Graph::from_edges(20, edges);
  Graph gt = g.transpose();
  auto scc = normalize_scc_labels(pasgal_scc(g, gt, {}).output);
  for (VertexId v = 0; v < 20; ++v) EXPECT_EQ(scc[v], v);
  auto d = pasgal_bfs(g, gt, {.source = 3}).output;
  for (VertexId v = 0; v < 20; ++v) {
    EXPECT_EQ(d[v], v == 3 ? 0u : kInfDist);
  }
}

TEST_P(EdgeCases, ParallelEdgesBfsAndScc) {
  // Duplicate edges kept (dedup=false): traversal algorithms must tolerate
  // scanning the same neighbour repeatedly.
  std::vector<Edge> edges = {{0, 1}, {0, 1}, {0, 1}, {1, 2}, {1, 2}, {2, 0}};
  Graph g = Graph::from_edges(3, edges);
  Graph gt = g.transpose();
  auto d = pasgal_bfs(g, gt, {}).output;
  EXPECT_EQ(d, seq_bfs(g, 0));
  EXPECT_EQ(normalize_scc_labels(pasgal_scc(g, gt, {}).output),
            normalize_scc_labels(tarjan_scc(g)));
}

TEST_P(EdgeCases, HubGraphAllAlgorithms) {
  // One vertex adjacent to everything (max frontier in one hop).
  Graph g = gen::star(5000);
  EXPECT_EQ(pasgal_bfs(g, g, {}).output, seq_bfs(g, 0));
  EXPECT_EQ(pasgal_kcore(g, {}).output, seq_kcore(g));
  auto bcc = fast_bcc(g);
  EXPECT_EQ(bcc.num_bccs, 4999u);  // every spoke its own component
  auto arts = articulation_points(g, bcc);
  ASSERT_EQ(arts.size(), 1u);
  EXPECT_EQ(arts[0], 0u);
}

TEST_P(EdgeCases, TwoVertexCycle) {
  std::vector<Edge> edges = {{0, 1}, {1, 0}};
  Graph g = Graph::from_edges(2, edges);
  Graph gt = g.transpose();
  auto scc = normalize_scc_labels(pasgal_scc(g, gt, {}).output);
  EXPECT_EQ(scc[0], scc[1]);
  auto d = pasgal_bfs(g, gt, {}).output;
  EXPECT_EQ(d[1], 1u);
}

TEST_P(EdgeCases, SourceWithNoOutEdges) {
  Graph g = gen::chain(10, /*directed=*/true);
  Graph gt = g.transpose();
  auto d = pasgal_bfs(g, gt, {.source = 9}).output;  // out-degree 0
  EXPECT_EQ(d[9], 0u);
  for (VertexId v = 0; v < 9; ++v) EXPECT_EQ(d[v], kInfDist);
}

TEST_P(EdgeCases, MaxWeightSssp) {
  // Weights at the top of the u32 range still fit the 32-bit tentative
  // distance on short paths.
  std::vector<WeightedEdge<std::uint32_t>> edges = {
      {0, 1, 2000000000u}, {1, 2, 100000000u}};
  auto g = WeightedGraph<std::uint32_t>::from_edges(3, edges);
  auto d = stepping_sssp(g, {}).output;  // rho-stepping
  EXPECT_EQ(d[2], 2100000000u);
  EXPECT_EQ(d, dijkstra(g, 0));
}

TEST_P(EdgeCases, DisconnectedManyComponents) {
  // 100 disjoint triangles.
  std::vector<Edge> edges;
  for (VertexId t = 0; t < 100; ++t) {
    VertexId base = 3 * t;
    edges.push_back({base, static_cast<VertexId>(base + 1)});
    edges.push_back({static_cast<VertexId>(base + 1), static_cast<VertexId>(base + 2)});
    edges.push_back({static_cast<VertexId>(base + 2), base});
  }
  Graph g = Graph::from_edges(300, edges);
  Graph gt = g.transpose();
  auto cc = connected_components(g);
  EXPECT_EQ(cc.num_components, 100u);
  auto scc = normalize_scc_labels(pasgal_scc(g, gt, {}).output);
  EXPECT_EQ(scc, normalize_scc_labels(tarjan_scc(g)));
  Graph sym = g.symmetrize();
  EXPECT_EQ(fast_bcc(sym).num_bccs, 100u);
}

TEST_P(EdgeCases, CompleteGraphEverything) {
  Graph g = gen::complete(40);
  Graph gt = g.transpose();
  auto scc = normalize_scc_labels(pasgal_scc(g, gt, {}).output);
  for (auto l : scc) EXPECT_EQ(l, 0u);
  Graph sym = g.symmetrize();
  EXPECT_EQ(fast_bcc(sym).num_bccs, 1u);
  auto core = pasgal_kcore(sym, {}).output;
  for (auto c : core) EXPECT_EQ(c, 39u);
  auto d = pasgal_bfs(g, gt, {.source = 17}).output;
  for (VertexId v = 0; v < 40; ++v) EXPECT_EQ(d[v], v == 17 ? 0u : 1u);
}

}  // namespace
}  // namespace pasgal
