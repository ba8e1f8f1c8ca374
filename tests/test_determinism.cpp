// Determinism across schedules: building the same graph and running the
// same algorithm under different worker counts must give identical results.
// (Internal orderings may differ — hash bags are unordered — but all public
// outputs are normalized values, which this suite pins down.)
#include <gtest/gtest.h>

#include "algorithms/bcc/bcc.h"
#include "algorithms/bfs/bfs.h"
#include "algorithms/cc/cc.h"
#include "algorithms/kcore/kcore.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

template <typename F>
auto with_workers(int workers, F&& f) {
  Scheduler::reset(workers);
  auto result = f();
  Scheduler::reset(1);
  return result;
}

TEST(Determinism, GeneratorsScheduleIndependent) {
  for (int workers : {2, 4}) {
    EXPECT_EQ(with_workers(1, [] { return gen::rmat(12, 30000, 7); }),
              with_workers(workers, [] { return gen::rmat(12, 30000, 7); }));
    EXPECT_EQ(with_workers(1, [] { return gen::knn_graph(3000, 4, 9); }),
              with_workers(workers, [] { return gen::knn_graph(3000, 4, 9); }));
    EXPECT_EQ(
        with_workers(1, [] { return gen::random_graph(2000, 9000, 5); }),
        with_workers(workers, [] { return gen::random_graph(2000, 9000, 5); }));
  }
}

TEST(Determinism, TransposeAndSymmetrizeScheduleIndependent) {
  Graph g = gen::rmat(11, 12000, 3);
  // transpose() memoizes per storage handle, so a second call on the same
  // graph would just return the cached result — build a fresh copy of the
  // graph for each worker count to actually exercise both schedules.
  auto t1 = with_workers(1, [] { return gen::rmat(11, 12000, 3).transpose(); });
  auto t4 = with_workers(4, [] { return gen::rmat(11, 12000, 3).transpose(); });
  EXPECT_EQ(t1, t4);
  auto s1 = with_workers(1, [&] { return g.symmetrize(); });
  auto s4 = with_workers(4, [&] { return g.symmetrize(); });
  EXPECT_EQ(s1, s4);
}

TEST(Determinism, BfsDistancesScheduleIndependent) {
  Graph g = gen::road_grid(25, 40, 0.75, 11);
  Graph gt = g.transpose();
  auto d1 = with_workers(1, [&] { return pasgal_bfs(g, gt, {}).output; });
  auto d4 = with_workers(4, [&] { return pasgal_bfs(g, gt, {}).output; });
  EXPECT_EQ(d1, d4);  // distances are unique, so full equality holds
}

TEST(Determinism, SccPartitionScheduleIndependent) {
  Graph g = gen::random_graph(1500, 6000, 13);
  Graph gt = g.transpose();
  auto l1 = with_workers(1, [&] {
    return normalize_scc_labels(pasgal_scc(g, gt, {}).output);
  });
  auto l4 = with_workers(4, [&] {
    return normalize_scc_labels(pasgal_scc(g, gt, {}).output);
  });
  EXPECT_EQ(l1, l4);
}

TEST(Determinism, BccPartitionScheduleIndependent) {
  Graph g = gen::random_graph(800, 2500, 17).symmetrize();
  auto l1 = with_workers(1, [&] {
    return normalize_bcc_labels(fast_bcc(g).edge_label);
  });
  auto l4 = with_workers(4, [&] {
    return normalize_bcc_labels(fast_bcc(g).edge_label);
  });
  // The spanning forest itself may differ by schedule (union-find races),
  // but the biconnectivity PARTITION may not.
  EXPECT_EQ(l1, l4);
}

TEST(Determinism, SsspAndKcoreScheduleIndependent) {
  auto g = gen::add_weights(gen::rectangle_grid(20, 40), 50, 19);
  auto d1 = with_workers(1, [&] { return stepping_sssp(g, {}).output; });
  auto d4 = with_workers(4, [&] { return stepping_sssp(g, {}).output; });
  EXPECT_EQ(d1, d4);
  Graph u = gen::rmat(10, 8000, 23).symmetrize();
  auto c1 = with_workers(1, [&] { return pasgal_kcore(u, {}).output; });
  auto c4 = with_workers(4, [&] { return pasgal_kcore(u, {}).output; });
  EXPECT_EQ(c1, c4);
}

TEST(Determinism, ConnectivityLabelsScheduleIndependent) {
  Graph g = gen::sampled_edges(gen::rectangle_grid(30, 30), 0.5, 29).symmetrize();
  auto l1 = with_workers(1, [&] { return connected_components(g).label; });
  auto l4 = with_workers(4, [&] { return connected_components(g).label; });
  EXPECT_EQ(l1, l4);  // labels are component minima: schedule-free
}

}  // namespace
}  // namespace pasgal
