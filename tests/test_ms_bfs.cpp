// Bit-parallel multi-source BFS: a batch of k sources must produce exactly
// the k sequential hop-distance arrays, across graph families, batch sizes,
// directions (dense on/off) and worker counts — plus the batch API contract
// (check_batch_sources typed errors, deadline cancellation mid-batch) and
// the batched-SSSP landmark wrapper against per-source stepping runs.
#include <gtest/gtest.h>

#include <unordered_set>

#include "algorithms/bfs/bfs.h"
#include "algorithms/sssp/sssp.h"
#include "graphs/generators.h"
#include "parlay/hash_rng.h"
#include "pasgal/cancel.h"

namespace pasgal {
namespace {

struct MsCase {
  std::string name;
  Graph g;
  bool symmetric;
};

std::vector<MsCase> test_graphs() {
  std::vector<MsCase> cases;
  cases.push_back({"two_isolated", Graph::from_edges(2, {}), true});
  cases.push_back(
      {"self_loop", Graph::from_edges(2, std::vector<Edge>{{0, 0}, {0, 1}}),
       false});
  cases.push_back({"chain200", gen::chain(200), true});
  cases.push_back({"dchain200", gen::chain(200, true), false});
  cases.push_back({"star1000", gen::star(1000), true});
  cases.push_back({"tree4095", gen::binary_tree(4095), true});
  cases.push_back({"grid30x40", gen::rectangle_grid(30, 40), true});
  cases.push_back({"road20x50", gen::road_grid(20, 50, 0.7, 3), false});
  cases.push_back({"rmat11", gen::rmat(11, 20000, 5), false});
  cases.push_back({"random2k", gen::random_graph(2000, 10000, 9), false});
  cases.push_back({"disconnected",
                   gen::sampled_edges(gen::rectangle_grid(20, 20), 0.5, 7),
                   false});
  return cases;
}

// k distinct sources, deterministic per (n, seed), spread over the graph.
std::vector<VertexId> pick_sources(std::size_t n, std::size_t k,
                                   std::uint64_t seed) {
  k = std::min(k, n);
  std::vector<VertexId> sources;
  std::unordered_set<VertexId> used;
  Random rng(seed);
  for (std::uint64_t i = 0; sources.size() < k; ++i) {
    VertexId v = static_cast<VertexId>(rng.ith_rand(i, n));
    if (used.insert(v).second) sources.push_back(v);
  }
  return sources;
}

// One ms_bfs batch through the entry point: one distance array per source.
std::vector<std::vector<std::uint32_t>> batch_dists(
    const Graph& g, const Graph& gt, const std::vector<VertexId>& sources,
    const AlgoOptions& algo = {}) {
  std::vector<std::vector<std::uint32_t>> out;
  for (auto& slice : ms_bfs(g, gt, {sources, algo}).per_source) {
    out.push_back(std::move(slice.output));
  }
  return out;
}

class MsBfsTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, MsBfsTest, ::testing::Values(1, 4));

TEST_P(MsBfsTest, MatchesSequentialAcrossFamiliesAndBatchSizes) {
  for (const auto& c : test_graphs()) {
    Graph gt = c.symmetric ? c.g : c.g.transpose();
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                          std::size_t{64}}) {
      auto sources = pick_sources(c.g.num_vertices(), k, 17 + k);
      auto dists = batch_dists(c.g, gt, sources);
      ASSERT_EQ(dists.size(), sources.size()) << c.name << " k=" << k;
      for (std::size_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(dists[i], seq_bfs(c.g, sources[i]))
            << c.name << " k=" << k << " src=" << sources[i];
      }
    }
  }
}

TEST_P(MsBfsTest, RandomizedSourcesFullBatch) {
  Graph g = gen::rmat(12, 60000, 23);
  Graph gt = g.transpose();
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto sources = pick_sources(g.num_vertices(), 64, seed);
    auto dists = batch_dists(g, gt, sources);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(dists[i], seq_bfs(g, sources[i])) << "seed=" << seed
                                                  << " src=" << sources[i];
    }
  }
}

TEST_P(MsBfsTest, SparseOnlyMatches) {
  Graph g = gen::road_grid(15, 60, 0.75, 5);
  Graph gt = g.transpose();
  auto sources = pick_sources(g.num_vertices(), 8, 5);
  auto dists = batch_dists(g, gt, sources, {.use_dense = false});
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(dists[i], seq_bfs(g, sources[i])) << "src=" << sources[i];
  }
}

TEST_P(MsBfsTest, DenseBiasedMatches) {
  // Force direction switches early: every frontier above 1/1000 of m pulls.
  Graph g = gen::rmat(11, 30000, 31);
  Graph gt = g.transpose();
  auto sources = pick_sources(g.num_vertices(), 64, 9);
  auto dists = batch_dists(g, gt, sources, {.dense_threshold_den = 1000});
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(dists[i], seq_bfs(g, sources[i])) << "src=" << sources[i];
  }
}

TEST(MsBfsCancel, ExpiredDeadlineUnwindsMidBatch) {
  // A long chain guarantees many round boundaries; the already-expired
  // token must unwind the whole batch with a typed kTimeout.
  Graph g = gen::chain(20000, true);
  CancelToken token;
  token.set_deadline_ms(0);
  std::vector<VertexId> sources{0, 1, 2, 3};
  try {
    batch_dists(g, g.transpose(), sources, {.cancel = &token});
    FAIL() << "expired deadline did not cancel the batch";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTimeout);
  }
}

TEST(MsBfsContract, CheckBatchSourcesTypedErrors) {
  Graph g = gen::chain(100);
  Graph gt = g;  // symmetric
  auto run = [&](std::vector<VertexId> sources) {
    BatchOptions opt;
    opt.sources = std::move(sources);
    return ms_bfs(g, gt, opt);
  };
  auto expect_usage = [&](std::vector<VertexId> sources, const char* what) {
    try {
      run(std::move(sources));
      FAIL() << what << ": no error thrown";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kUsage) << what;
    }
  };
  expect_usage({}, "empty batch");
  expect_usage({1, 2, 100}, "out-of-range source");
  expect_usage({1, 2, 1}, "duplicate source");
  std::vector<VertexId> too_many(kMaxBatchSources + 1);
  for (std::size_t i = 0; i < too_many.size(); ++i) {
    too_many[i] = static_cast<VertexId>(i);
  }
  expect_usage(std::move(too_many), "over-width batch");
}

TEST(MsBfsContract, BatchReportShape) {
  Graph g = gen::rmat(10, 8000, 41);
  Graph gt = g.transpose();
  BatchOptions opt;
  opt.sources = pick_sources(g.num_vertices(), 5, 3);
  auto report = ms_bfs(g, gt, opt);
  EXPECT_EQ(report.batch_size(), 5u);
  ASSERT_EQ(report.per_source.size(), 5u);
  EXPECT_GT(report.seconds, 0.0);
  EXPECT_GT(report.qps(), 0.0);
  for (std::size_t i = 0; i < opt.sources.size(); ++i) {
    EXPECT_EQ(report.per_source[i].output, seq_bfs(g, opt.sources[i]))
        << "src=" << opt.sources[i];
  }
}

class BatchSsspTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, BatchSsspTest, ::testing::Values(1, 4));

TEST_P(BatchSsspTest, MatchesPerSourceStepping) {
  auto g = gen::add_weights(gen::rmat(11, 20000, 6), 100, 6);
  for (bool delta_mode : {false, true}) {
    BatchOptions opt;
    opt.sources = pick_sources(g.num_vertices(), 7, 29);
    opt.algo.sssp_delta_mode = delta_mode;
    auto report = batch_sssp(g, opt);
    ASSERT_EQ(report.per_source.size(), opt.sources.size());
    for (std::size_t i = 0; i < opt.sources.size(); ++i) {
      AlgoOptions single = opt.algo;
      single.source = opt.sources[i];
      EXPECT_EQ(report.per_source[i].output, stepping_sssp(g, single).output)
          << "delta_mode=" << delta_mode << " src=" << opt.sources[i];
    }
  }
}

TEST(BatchSsspContract, SharesTheSourceListContract) {
  auto g = gen::add_weights(gen::chain(50), 10, 1);
  BatchOptions opt;
  opt.sources = {3, 3};
  try {
    batch_sssp(g, opt);
    FAIL() << "duplicate source accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUsage);
  }
}

}  // namespace
}  // namespace pasgal
