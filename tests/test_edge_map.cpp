// Tests for the direction-optimized edge_map (sparse push vs dense pull).
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "graphs/generators.h"
#include "pasgal/edge_map.h"

namespace pasgal {
namespace {

class EdgeMapTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, EdgeMapTest, ::testing::Values(1, 4));

// One BFS level computed through edge_map must equal the brute-force
// neighbourhood, in both forced-sparse and forced-dense modes.
void check_one_hop(const Graph& g, const Graph& gt,
                   const std::vector<VertexId>& frontier_verts) {
  std::set<VertexId> in_frontier(frontier_verts.begin(), frontier_verts.end());
  std::set<VertexId> expected;
  for (VertexId u : frontier_verts) {
    for (VertexId v : g.neighbors(u)) {
      if (!in_frontier.count(v)) expected.insert(v);
    }
  }
  for (bool force_dense : {false, true}) {
    std::vector<std::atomic<std::uint8_t>> visited(g.num_vertices());
    for (auto& x : visited) x.store(0, std::memory_order_relaxed);
    for (VertexId u : frontier_verts) visited[u].store(1, std::memory_order_relaxed);
    auto update = [&](VertexId, VertexId v) {
      std::uint8_t expected_flag = 0;
      return visited[v].compare_exchange_strong(expected_flag, 1,
                                                std::memory_order_relaxed);
    };
    auto cond = [&](VertexId v) {
      return visited[v].load(std::memory_order_relaxed) == 0;
    };
    EdgeMapOptions opt;
    opt.allow_dense = force_dense;
    opt.dense_threshold_den = force_dense ? 1'000'000'000 : 20;
    if (force_dense) {
      // force dense: threshold 0-ish
      opt.dense_threshold_den = 1;
      opt.allow_dense = true;
    } else {
      opt.allow_dense = false;
    }
    VertexSubset frontier = VertexSubset::sparse(g.num_vertices(), frontier_verts);
    VertexSubset next = edge_map(g, gt, frontier, update, update, cond, opt);
    next.to_sparse();
    std::set<VertexId> got(next.sparse_vertices().begin(),
                           next.sparse_vertices().end());
    EXPECT_EQ(got, expected) << "dense=" << force_dense;
  }
}

TEST_P(EdgeMapTest, OneHopOnGrid) {
  Graph g = gen::rectangle_grid(15, 15);
  check_one_hop(g, g, {0});
  check_one_hop(g, g, {112});
  check_one_hop(g, g, {0, 1, 15, 16});
}

TEST_P(EdgeMapTest, OneHopOnDirectedGraph) {
  Graph g = gen::rmat(10, 6000, 9);
  Graph gt = g.transpose();
  check_one_hop(g, gt, {1, 2, 3});
  check_one_hop(g, gt, {100});
}

TEST_P(EdgeMapTest, EmptyFrontierYieldsEmpty) {
  Graph g = gen::rectangle_grid(5, 5);
  VertexSubset frontier = VertexSubset::empty(g.num_vertices());
  auto next = edge_map(
      g, g, frontier, [](VertexId, VertexId) { return true; },
      [](VertexId) { return true; });
  EXPECT_TRUE(next.empty());
}

TEST_P(EdgeMapTest, CondFiltersTargets) {
  Graph g = gen::star(10);
  VertexSubset frontier = VertexSubset::single(10, 0);
  auto next = edge_map(
      g, g, frontier, [](VertexId, VertexId) { return true; },
      [](VertexId v) { return v % 2 == 0; });
  next.to_sparse();
  for (VertexId v : next.sparse_vertices()) EXPECT_EQ(v % 2, 0u);
  EXPECT_EQ(next.size(), 4u);  // 2,4,6,8
}

TEST_P(EdgeMapTest, AutoSwitchesToDenseOnHugeFrontier) {
  Graph g = gen::rmat(11, 30000, 4);
  Graph gt = g.transpose();
  // Frontier = all vertices: must pick the dense path (outdeg sum = m > m/20).
  auto all = iota<VertexId>(g.num_vertices());
  VertexSubset frontier = VertexSubset::sparse(g.num_vertices(), all);
  Tracer stats;
  auto next = edge_map(
      g, gt, frontier, [](VertexId, VertexId) { return false; },
      [](VertexId) { return true; }, EdgeMapOptions{}, &stats);
  EXPECT_TRUE(next.is_dense());
  EXPECT_EQ(next.size(), 0u);
}

TEST_P(EdgeMapTest, DenseRoundSizeAgreesWithSparseList) {
  // The dense path reports the next frontier's cardinality from a trusted
  // running count instead of an O(n) recount; it must agree exactly with
  // the materialized sparse list.
  Graph g = gen::rmat(10, 12000, 6);
  Graph gt = g.transpose();
  std::vector<std::atomic<std::uint8_t>> visited(g.num_vertices());
  for (auto& x : visited) x.store(0, std::memory_order_relaxed);
  auto update = [&](VertexId, VertexId v) {
    std::uint8_t expected_flag = 0;
    return visited[v].compare_exchange_strong(expected_flag, 1,
                                              std::memory_order_relaxed);
  };
  auto cond = [&](VertexId v) {
    return visited[v].load(std::memory_order_relaxed) == 0;
  };
  auto seed = iota<VertexId>(g.num_vertices() / 4);
  for (VertexId u : seed) visited[u].store(1, std::memory_order_relaxed);
  VertexSubset frontier = VertexSubset::sparse(g.num_vertices(), seed);
  EdgeMapOptions opt;
  opt.dense_threshold_den = 1'000'000'000;  // force the dense path
  VertexSubset next = edge_map(g, gt, frontier, update, update, cond, opt);
  ASSERT_TRUE(next.is_dense());
  std::size_t counted = next.size();
  next.to_sparse();
  EXPECT_EQ(counted, next.sparse_vertices().size());
}

TEST_P(EdgeMapTest, StatsCountEdges) {
  Graph g = gen::rectangle_grid(10, 10);
  Tracer stats;
  VertexSubset frontier = VertexSubset::single(g.num_vertices(), 0);
  EdgeMapOptions opt;
  opt.allow_dense = false;
  edge_map(
      g, g, frontier, [](VertexId, VertexId) { return true; },
      [](VertexId) { return true; }, opt, &stats);
  EXPECT_EQ(stats.edges_scanned(), g.out_degree(0));
  EXPECT_EQ(stats.vertices_visited(), 1u);
}

}  // namespace
}  // namespace pasgal
