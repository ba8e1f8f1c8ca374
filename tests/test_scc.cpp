// SCC correctness: all parallel variants must induce the same partition as
// Tarjan's algorithm across directed graph families, plus behavioural checks
// on round counts (the paper's headline claim).
#include <gtest/gtest.h>

#include "algorithms/scc/scc.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

// Reference partition via Kosaraju (independent of Tarjan, catching shared
// bugs): order by finish time on g, then flood on gt.
std::vector<VertexId> kosaraju(const Graph& g, const Graph& gt) {
  std::size_t n = g.num_vertices();
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<VertexId> order;
  order.reserve(n);
  // Iterative DFS computing reverse-finish order.
  struct Frame {
    VertexId v;
    EdgeId next;
  };
  for (VertexId s = 0; s < n; ++s) {
    if (seen[s]) continue;
    std::vector<Frame> stack{{s, g.edge_begin(s)}};
    seen[s] = 1;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next < g.edge_end(f.v)) {
        VertexId w = g.edge_target(f.next++);
        if (!seen[w]) {
          seen[w] = 1;
          stack.push_back({w, g.edge_begin(w)});
        }
      } else {
        order.push_back(f.v);
        stack.pop_back();
      }
    }
  }
  std::vector<VertexId> label(n, kInvalidVertex);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (label[*it] != kInvalidVertex) continue;
    std::vector<VertexId> stack = {*it};
    label[*it] = *it;
    while (!stack.empty()) {
      VertexId u = stack.back();
      stack.pop_back();
      for (VertexId v : gt.neighbors(u)) {
        if (label[v] == kInvalidVertex) {
          label[v] = *it;
          stack.push_back(v);
        }
      }
    }
  }
  // Normalize to min-vertex representative.
  std::vector<VertexId> min_rep(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    VertexId r = label[v];
    if (min_rep[r] == kInvalidVertex || v < min_rep[r]) min_rep[r] = v;
  }
  std::vector<VertexId> out(n);
  for (VertexId v = 0; v < n; ++v) out[v] = min_rep[label[v]];
  return out;
}

std::vector<std::pair<std::string, Graph>> scc_graphs() {
  std::vector<std::pair<std::string, Graph>> cases;
  cases.emplace_back("single", Graph::from_edges(1, {}));
  cases.emplace_back("self_loops",
                     Graph::from_edges(3, std::vector<Edge>{{0, 0}, {1, 1}, {0, 1}}));
  cases.emplace_back("dchain", gen::chain(300, /*directed=*/true));
  cases.emplace_back("cycle", gen::cycle(257));
  cases.emplace_back("two_cycles_bridge", [] {
    std::vector<Edge> edges;
    for (VertexId i = 0; i < 50; ++i) edges.push_back({i, static_cast<VertexId>((i + 1) % 50)});
    for (VertexId i = 50; i < 120; ++i) {
      edges.push_back({i, static_cast<VertexId>(i + 1 == 120 ? 50 : i + 1)});
    }
    edges.push_back({3, 70});  // one-way bridge: two separate SCCs
    return Graph::from_edges(120, edges);
  }());
  cases.emplace_back("rmat", gen::rmat(11, 16000, 7));
  cases.emplace_back("random_sparse", gen::random_graph(3000, 6000, 5));
  cases.emplace_back("random_dense", gen::random_graph(500, 6000, 6));
  cases.emplace_back("road", gen::road_grid(15, 60, 0.75, 9));
  cases.emplace_back("road_oneway_heavy", gen::road_grid(12, 40, 0.35, 4));
  cases.emplace_back("dag_grid", [] {
    // Directed acyclic grid: every vertex its own SCC.
    std::vector<Edge> edges;
    for (VertexId r = 0; r < 12; ++r) {
      for (VertexId c = 0; c < 12; ++c) {
        VertexId v = r * 12 + c;
        if (c + 1 < 12) edges.push_back({v, v + 1});
        if (r + 1 < 12) edges.push_back({v, v + 12});
      }
    }
    return Graph::from_edges(144, edges);
  }());
  return cases;
}

class SccTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, SccTest, ::testing::Values(1, 4));

TEST_P(SccTest, TarjanMatchesKosaraju) {
  for (const auto& [name, g] : scc_graphs()) {
    Graph gt = g.transpose();
    auto t = tarjan_scc(g);
    EXPECT_EQ(normalize_scc_labels(t), kosaraju(g, gt)) << name;
  }
}

TEST_P(SccTest, PasgalMatchesTarjan) {
  for (const auto& [name, g] : scc_graphs()) {
    Graph gt = g.transpose();
    auto expected = kosaraju(g, gt);
    auto got = pasgal_scc(g, gt, {}).output;
    EXPECT_EQ(normalize_scc_labels(got), expected) << name;
  }
}

TEST_P(SccTest, GbbsMatchesTarjan) {
  for (const auto& [name, g] : scc_graphs()) {
    Graph gt = g.transpose();
    EXPECT_EQ(normalize_scc_labels(gbbs_scc(g, gt, {}).output), kosaraju(g, gt))
        << name;
  }
}

TEST_P(SccTest, MultistepMatchesTarjan) {
  for (const auto& [name, g] : scc_graphs()) {
    Graph gt = g.transpose();
    // A cutoff of 50 exercises coloring even on small graphs.
    auto got = multistep_scc(g, gt, {.multistep_cutoff = 50}).output;
    EXPECT_EQ(normalize_scc_labels(got), kosaraju(g, gt)) << name;
  }
}

TEST_P(SccTest, PasgalSeedsAgree) {
  Graph g = gen::rmat(11, 16000, 7);
  Graph gt = g.transpose();
  auto a = normalize_scc_labels(pasgal_scc(g, gt, {.scc_seed = 1}).output);
  auto b = normalize_scc_labels(pasgal_scc(g, gt, {.scc_seed = 99}).output);
  EXPECT_EQ(a, b);
}

TEST_P(SccTest, PasgalTauSweep) {
  Graph g = gen::road_grid(10, 80, 0.7, 13);
  Graph gt = g.transpose();
  auto expected = kosaraju(g, gt);
  for (std::uint32_t tau : {1u, 4u, 64u, 2048u}) {
    EXPECT_EQ(normalize_scc_labels(pasgal_scc(g, gt, {.vgc = {tau}}).output),
              expected)
        << "tau=" << tau;
  }
}

TEST_P(SccTest, NoDenseStillCorrect) {
  Graph g = gen::rmat(10, 8000, 21);
  Graph gt = g.transpose();
  auto labels = pasgal_scc(g, gt, {.use_dense = false}).output;
  EXPECT_EQ(normalize_scc_labels(labels), kosaraju(g, gt));
}

TEST(SccRounds, VgcReducesRoundsOnRoadGraphs) {
  Scheduler::reset(1);
  Graph g = gen::road_grid(8, 400, 0.9, 3);  // long strip, mostly two-way
  Graph gt = g.transpose();
  Tracer pasgal_stats, gbbs_stats;
  auto a = pasgal_scc(g, gt, {.tracer = &pasgal_stats}).output;
  auto b = gbbs_scc(g, gt, {.tracer = &gbbs_stats}).output;
  EXPECT_EQ(normalize_scc_labels(a), normalize_scc_labels(b));
  EXPECT_LT(pasgal_stats.rounds() * 3, gbbs_stats.rounds())
      << "VGC must collapse reachability rounds on large-diameter graphs";
}

TEST(SccStructure, GiantSccDetected) {
  Scheduler::reset(1);
  Graph g = gen::cycle(1000);
  Graph gt = g.transpose();
  auto labels = normalize_scc_labels(pasgal_scc(g, gt, {}).output);
  for (VertexId v = 0; v < 1000; ++v) EXPECT_EQ(labels[v], 0u);
}

TEST(SccStructure, DagAllSingletons) {
  Scheduler::reset(1);
  Graph g = gen::chain(500, /*directed=*/true);
  Graph gt = g.transpose();
  auto labels = normalize_scc_labels(pasgal_scc(g, gt, {}).output);
  for (VertexId v = 0; v < 500; ++v) EXPECT_EQ(labels[v], v);
}

}  // namespace
}  // namespace pasgal
