// k-core decomposition: parallel peeling must match Batagelj-Zaversnik, and
// both must satisfy the defining property of coreness.
#include <gtest/gtest.h>

#include "algorithms/kcore/kcore.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

class KcoreTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, KcoreTest, ::testing::Values(1, 4));

std::vector<std::pair<std::string, Graph>> kcore_graphs() {
  std::vector<std::pair<std::string, Graph>> cases;
  cases.emplace_back("edgeless", Graph::from_edges(5, {}));
  cases.emplace_back("chain", gen::chain(300));
  cases.emplace_back("cycle", gen::cycle(100).symmetrize());
  cases.emplace_back("star", gen::star(100));
  cases.emplace_back("tree", gen::binary_tree(511));
  cases.emplace_back("grid", gen::rectangle_grid(20, 25));
  cases.emplace_back("clique", gen::complete(20).symmetrize());
  cases.emplace_back("rmat", gen::rmat(11, 30000, 3).symmetrize());
  cases.emplace_back("random", gen::random_graph(2000, 14000, 5).symmetrize());
  cases.emplace_back("knn", gen::knn_graph(2000, 5, 7).symmetrize());
  cases.emplace_back("bubbles", gen::bubbles(30, 10));
  cases.emplace_back("clique_with_tail", [] {
    std::vector<Edge> e;
    for (VertexId i = 0; i < 10; ++i) {
      for (VertexId j = 0; j < 10; ++j) {
        if (i != j) e.push_back({i, j});
      }
    }
    for (VertexId i = 10; i < 50; ++i) e.push_back({static_cast<VertexId>(i - 1), i});
    return Graph::from_edges(50, e).symmetrize();
  }());
  return cases;
}

TEST_P(KcoreTest, ParallelMatchesSequential) {
  for (const auto& [name, g] : kcore_graphs()) {
    EXPECT_EQ(pasgal_kcore(g, {}).output, seq_kcore(g)) << name;
  }
}

TEST_P(KcoreTest, TauSweepMatches) {
  Graph g = gen::rmat(10, 12000, 9).symmetrize();
  auto expected = seq_kcore(g);
  for (std::uint32_t tau : {1u, 16u, 512u, 4096u}) {
    EXPECT_EQ(pasgal_kcore(g, {.vgc = {tau}}).output, expected)
        << "tau=" << tau;
  }
}

TEST_P(KcoreTest, KnownCorenessValues) {
  // Chain: everything coreness 1 (ends peel first but land at level 1).
  auto chain_core = seq_kcore(gen::chain(50));
  for (auto c : chain_core) EXPECT_EQ(c, 1u);
  // Cycle: coreness 2 everywhere.
  auto cyc = seq_kcore(gen::cycle(30).symmetrize());
  for (auto c : cyc) EXPECT_EQ(c, 2u);
  // k-clique: coreness k-1.
  auto clique = seq_kcore(gen::complete(12).symmetrize());
  for (auto c : clique) EXPECT_EQ(c, 11u);
  // Star: leaves and center all coreness 1.
  auto star = seq_kcore(gen::star(20));
  for (auto c : star) EXPECT_EQ(c, 1u);
  // Tree: coreness 1 except... no, all 1.
  auto tree = seq_kcore(gen::binary_tree(127));
  for (auto c : tree) EXPECT_EQ(c, 1u);
}

TEST_P(KcoreTest, CorenessDefiningProperty) {
  // For each vertex v with coreness c: the subgraph induced by
  // {u : core(u) >= c} has min degree >= c (v's c-core exists), and v has
  // degree < c+1 within {u : core(u) >= c+1} union {v}.
  Graph g = gen::random_graph(800, 6000, 11).symmetrize();
  auto core = pasgal_kcore(g, {}).output;
  std::uint32_t max_core = 0;
  for (auto c : core) max_core = std::max(max_core, c);
  for (std::uint32_t c = 1; c <= max_core; ++c) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (core[v] < c) continue;
      std::size_t deg_in_core = 0;
      for (VertexId u : g.neighbors(v)) {
        if (core[u] >= c) ++deg_in_core;
      }
      EXPECT_GE(deg_in_core, c) << "v=" << v << " c=" << c;
    }
  }
}

TEST(KcoreRounds, VgcCollapsesPeelingChains) {
  Scheduler::reset(1);
  // A long path peels end-inward: one wave per position without VGC.
  Graph g = gen::chain(20000);
  Tracer chain_stats, vgc_stats;
  auto a = pasgal_kcore(g, {.vgc = {1}, .tracer = &chain_stats}).output;
  auto b = pasgal_kcore(g, {.vgc = {512}, .tracer = &vgc_stats}).output;
  EXPECT_EQ(a, b);
  EXPECT_LT(vgc_stats.rounds() * 10, chain_stats.rounds())
      << "in-task peeling chains must collapse rounds";
}

TEST(KcoreStats, WorkIsLinear) {
  Scheduler::reset(1);
  Graph g = gen::rectangle_grid(40, 40);
  Tracer stats;
  pasgal_kcore(g, {.tracer = &stats});
  // Every edge is scanned O(1) times during peeling.
  EXPECT_LE(stats.edges_scanned(), 3 * g.num_edges());
  EXPECT_GE(stats.edges_scanned(), g.num_edges());
}

}  // namespace
}  // namespace pasgal
