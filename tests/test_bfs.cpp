// BFS correctness: every parallel variant must produce exactly the
// sequential hop distances on a matrix of graph families, worker counts, and
// sources — plus VGC-specific behavioural checks.
#include <gtest/gtest.h>

#include "algorithms/bfs/bfs.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

struct BfsCase {
  std::string name;
  Graph g;
  bool symmetric;
};

std::vector<BfsCase> test_graphs() {
  std::vector<BfsCase> cases;
  cases.push_back({"empty1", Graph::from_edges(1, {}), true});
  cases.push_back({"two_isolated", Graph::from_edges(2, {}), true});
  cases.push_back({"self_loop", Graph::from_edges(2, std::vector<Edge>{{0, 0}, {0, 1}}), false});
  cases.push_back({"chain200", gen::chain(200), true});
  cases.push_back({"dchain200", gen::chain(200, true), false});
  cases.push_back({"cycle100", gen::cycle(100), false});
  cases.push_back({"star1000", gen::star(1000), true});
  cases.push_back({"tree4095", gen::binary_tree(4095), true});
  cases.push_back({"grid30x40", gen::rectangle_grid(30, 40), true});
  cases.push_back({"road20x50", gen::road_grid(20, 50, 0.7, 3), false});
  cases.push_back({"rmat11", gen::rmat(11, 20000, 5), false});
  cases.push_back({"random2k", gen::random_graph(2000, 10000, 9), false});
  cases.push_back({"knn2k", gen::knn_graph(2000, 4, 11), false});
  cases.push_back({"bubbles", gen::bubbles(20, 10), true});
  // Note: sampling directed edges independently breaks symmetry.
  cases.push_back({"disconnected", gen::sampled_edges(gen::rectangle_grid(20, 20), 0.5, 7), false});
  cases.push_back({"disconnected_sym",
                   gen::sampled_edges(gen::rectangle_grid(20, 20), 0.5, 7).symmetrize(),
                   true});
  return cases;
}

class BfsVariants : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, BfsVariants, ::testing::Values(1, 4));

TEST_P(BfsVariants, AllVariantsMatchSequential) {
  for (const auto& c : test_graphs()) {
    if (c.g.num_vertices() == 0) continue;
    Graph gt = c.symmetric ? c.g : c.g.transpose();
    for (VertexId source :
         {VertexId{0}, static_cast<VertexId>(c.g.num_vertices() / 2),
          static_cast<VertexId>(c.g.num_vertices() - 1)}) {
      auto expected = seq_bfs(c.g, source);
      EXPECT_EQ(gbbs_bfs(c.g, gt, source), expected)
          << "gbbs_bfs on " << c.name << " src=" << source;
      EXPECT_EQ(gapbs_bfs(c.g, gt, {.source = source}).output, expected)
          << "gapbs_bfs on " << c.name << " src=" << source;
      EXPECT_EQ(pasgal_bfs(c.g, gt, {.source = source}).output, expected)
          << "pasgal_bfs on " << c.name << " src=" << source;
    }
  }
}

TEST_P(BfsVariants, PasgalBfsTauSweep) {
  Graph g = gen::road_grid(15, 80, 0.75, 5);
  Graph gt = g.transpose();
  auto expected = seq_bfs(g, 0);
  for (std::uint32_t tau : {1u, 2u, 16u, 256u, 4096u}) {
    EXPECT_EQ(pasgal_bfs(g, gt, {.vgc = {tau}}).output, expected)
        << "tau=" << tau;
  }
}

TEST_P(BfsVariants, PasgalBfsNoDenseMatches)
{
  Graph g = gen::rmat(11, 30000, 3);
  Graph gt = g.transpose();
  auto expected = seq_bfs(g, 1);
  EXPECT_EQ(pasgal_bfs(g, gt, {.source = 1, .use_dense = false}).output,
            expected);
}

TEST(BfsRounds, VgcReducesRoundsOnLargeDiameter) {
  Scheduler::reset(1);
  // A long skinny grid: diameter ~ 500. GBBS needs one round per level;
  // PASGAL's VGC should advance many hops per round.
  Graph g = gen::rectangle_grid(4, 500);
  Tracer gbbs_stats, pasgal_stats;
  auto a = gbbs_bfs(g, g, 0, &gbbs_stats);
  auto b = pasgal_bfs(g, g, {.vgc = {512}, .tracer = &pasgal_stats}).output;
  EXPECT_EQ(a, b);
  EXPECT_GT(gbbs_stats.rounds(), 400u);
  EXPECT_LT(pasgal_stats.rounds(), gbbs_stats.rounds() / 5)
      << "VGC should cut rounds by ~tau-driven factor";
}

TEST(BfsRounds, DirectionOptimizationKicksInOnSocialGraphs) {
  Scheduler::reset(1);
  Graph g = gen::rmat(13, 120000, 3);
  Graph gt = g.transpose();
  Tracer stats;
  // Pick a high-degree source so the frontier explodes.
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  }
  auto d = pasgal_bfs(g, gt, {.source = best, .tracer = &stats}).output;
  EXPECT_EQ(d, seq_bfs(g, best));
  // Low-diameter graph: few rounds.
  EXPECT_LT(stats.rounds(), 40u);
}

TEST(BfsStats, EdgesScannedAtLeastReachableEdges) {
  Scheduler::reset(1);
  Graph g = gen::rectangle_grid(10, 100);
  Tracer stats;
  pasgal_bfs(g, g, {.tracer = &stats});
  EXPECT_GE(stats.edges_scanned(), g.num_edges());  // every edge looked at
  EXPECT_GE(stats.vertices_visited(), g.num_vertices());
}

TEST(BfsSeq, HandlesUnreachable) {
  Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  auto d = seq_bfs(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kInfDist);
  EXPECT_EQ(d[3], kInfDist);
}

TEST(BfsSeq, DistancesOnChain) {
  Graph g = gen::chain(50);
  auto d = seq_bfs(g, 10);
  for (VertexId v = 0; v < 50; ++v) {
    EXPECT_EQ(d[v], static_cast<std::uint32_t>(std::abs(static_cast<int>(v) - 10)));
  }
}

}  // namespace
}  // namespace pasgal
