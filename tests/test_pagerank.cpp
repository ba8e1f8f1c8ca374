// PageRank: the parallel dense pull must match the sequential power
// iteration, ranks must stay a probability distribution (dangling mass
// redistributed, sum 1), and the pasgal variant must be byte-identical
// across worker counts — the property the bench identity gates rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "algorithms/pagerank/pagerank.h"
#include "graphs/generators.h"
#include "pasgal/error.h"

namespace pasgal {
namespace {

class PagerankTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, PagerankTest, ::testing::Values(1, 4));

std::vector<std::pair<std::string, Graph>> pagerank_graphs() {
  std::vector<std::pair<std::string, Graph>> cases;
  cases.emplace_back("edgeless", Graph::from_edges(5, {}));
  cases.emplace_back("chain", gen::chain(500, true));    // dangling tail
  cases.emplace_back("cycle", gen::cycle(100));
  cases.emplace_back("star", gen::star(100));
  cases.emplace_back("tree", gen::binary_tree(511));
  cases.emplace_back("grid", gen::rectangle_grid(20, 25));
  cases.emplace_back("clique", gen::complete(20));
  cases.emplace_back("rmat", gen::rmat(11, 30000, 3));
  cases.emplace_back("random", gen::random_graph(2000, 14000, 5));
  return cases;
}

double l1_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

TEST_P(PagerankTest, ParallelMatchesSequential) {
  for (const auto& [name, g] : pagerank_graphs()) {
    Graph gt = g.transpose();
    PagerankResult seq = seq_pagerank(g, gt, {}).output;
    PagerankResult par = pasgal_pagerank(g, gt, {}).output;
    ASSERT_EQ(seq.rank.size(), par.rank.size()) << name;
    EXPECT_EQ(seq.iterations, par.iterations) << name;
    // Same math, different summation order: agree to well below epsilon.
    EXPECT_LT(l1_distance(seq.rank, par.rank), 1e-9) << name;
  }
}

TEST_P(PagerankTest, RanksSumToOne) {
  for (const auto& [name, g] : pagerank_graphs()) {
    if (g.num_vertices() == 0) continue;
    Graph gt = g.transpose();
    PagerankResult r = pasgal_pagerank(g, gt, {}).output;
    double sum = std::accumulate(r.rank.begin(), r.rank.end(), 0.0);
    // Dangling mass is redistributed each round, so the distribution stays
    // normalized even on graphs full of zero-out-degree vertices.
    EXPECT_NEAR(sum, 1.0, 1e-9) << name;
  }
}

TEST_P(PagerankTest, CycleConvergesToUniform) {
  Graph g = gen::cycle(64);
  Graph gt = g.transpose();
  PagerankResult r = pasgal_pagerank(g, gt, {}).output;
  for (double v : r.rank) EXPECT_NEAR(v, 1.0 / 64, 1e-12);
  EXPECT_LT(r.delta, 1e-7);              // converged, not capped
  EXPECT_LT(r.iterations, 100u);
}

TEST_P(PagerankTest, StarCenterDominates) {
  // gen::star is undirected: every leaf feeds the center and the center
  // splits its rank across all leaves.
  Graph g = gen::star(50);
  Graph gt = g.transpose();
  PagerankResult r = pasgal_pagerank(g, gt, {}).output;
  for (std::size_t v = 1; v < r.rank.size(); ++v) {
    EXPECT_GT(r.rank[0], r.rank[v]) << v;
    EXPECT_NEAR(r.rank[v], r.rank[1], 1e-12) << v;  // leaves symmetric
  }
}

TEST_P(PagerankTest, EdgelessIsUniformAfterOneRound) {
  // Every vertex is dangling: all mass redistributes uniformly, so the
  // very first round reproduces the initial vector and delta hits zero.
  Graph g = Graph::from_edges(8, {});
  Graph gt = g.transpose();
  PagerankResult r = pasgal_pagerank(g, gt, {}).output;
  EXPECT_EQ(r.iterations, 1u);
  for (double v : r.rank) EXPECT_NEAR(v, 1.0 / 8, 1e-15);
}

TEST_P(PagerankTest, IterationCapAndEpsilonKnobs) {
  Graph g = gen::rmat(10, 12000, 7);
  Graph gt = g.transpose();
  PagerankResult capped =
      pasgal_pagerank(g, gt, {.pagerank_iterations = 1}).output;
  EXPECT_EQ(capped.iterations, 1u);

  // A loose epsilon must converge in no more rounds than a tight one, and
  // the tight run's final delta must respect its threshold.
  PagerankResult rl =
      pasgal_pagerank(g, gt, {.pagerank_epsilon = 1e-3}).output;
  PagerankResult rt = pasgal_pagerank(g, gt, {.pagerank_iterations = 1000,
                                              .pagerank_epsilon = 1e-10})
                          .output;
  EXPECT_LE(rl.iterations, rt.iterations);
  EXPECT_LT(rt.delta, 1e-10);
}

TEST_P(PagerankTest, DampingZeroIsUniform) {
  // d=0: rank'(v) = 1/n regardless of structure.
  Graph g = gen::rmat(9, 5000, 11);
  Graph gt = g.transpose();
  PagerankResult r = pasgal_pagerank(g, gt, {.pagerank_damping = 0.0}).output;
  for (double v : r.rank) EXPECT_NEAR(v, 1.0 / g.num_vertices(), 1e-15);
}

TEST(PagerankDeterminism, ByteIdenticalAcrossWorkers) {
  Graph g = gen::rmat(11, 40000, 13);
  Graph gt = g.transpose();
  Scheduler::reset(1);
  PagerankResult one = pasgal_pagerank(g, gt, {}).output;
  Scheduler::reset(4);
  PagerankResult four = pasgal_pagerank(g, gt, {}).output;
  Scheduler::reset(1);
  EXPECT_EQ(one.iterations, four.iterations);
  // The fixed block tree makes the sums byte-identical, not merely close.
  ASSERT_EQ(one.rank.size(), four.rank.size());
  for (std::size_t v = 0; v < one.rank.size(); ++v) {
    EXPECT_EQ(one.rank[v], four.rank[v]) << v;
  }
  EXPECT_EQ(one.delta, four.delta);
}

TEST(PagerankCancel, ExpiredDeadlineUnwinds) {
  Graph g = gen::rmat(10, 12000, 3);
  Graph gt = g.transpose();
  CancelToken token;
  token.set_deadline_ms(0);
  try {
    pasgal_pagerank(g, gt, {.cancel = &token});
    FAIL() << "expired deadline did not cancel the run";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTimeout);
  }
}

TEST(PagerankTelemetry, EveryRoundCarriesDelta) {
  Graph g = gen::rmat(9, 6000, 5);
  Graph gt = g.transpose();
  AlgoOptions opt;
  Tracer tracer;
  opt.tracer = &tracer;
  RunReport<PagerankResult> report = pasgal_pagerank(g, gt, opt);
  ASSERT_EQ(report.telemetry.rounds.size(), report.output.iterations);
  for (const RoundTrace& r : report.telemetry.rounds) {
    EXPECT_GE(r.delta, 0.0);
  }
  // The last round's delta is the result's convergence residual.
  EXPECT_EQ(report.telemetry.rounds.back().delta, report.output.delta);
}

}  // namespace
}  // namespace pasgal
