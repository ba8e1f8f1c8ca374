// BCC correctness: fast_bcc and tarjan_vishkin_bcc must induce the same
// edge partition as sequential Hopcroft-Tarjan on a matrix of symmetrized
// graph families, plus structural checks (articulation points, bridges)
// against brute force.
#include <gtest/gtest.h>

#include <set>

#include "algorithms/bcc/bcc.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

std::vector<std::pair<std::string, Graph>> bcc_graphs() {
  std::vector<std::pair<std::string, Graph>> cases;
  cases.emplace_back("single_edge", gen::chain(2));
  cases.emplace_back("triangle", gen::cycle(3).symmetrize());
  cases.emplace_back("square", gen::cycle(4).symmetrize());
  cases.emplace_back("chain", gen::chain(120));
  cases.emplace_back("star", gen::star(60));
  cases.emplace_back("tree", gen::binary_tree(255));
  cases.emplace_back("two_triangles_shared_vertex", [] {
    std::vector<Edge> e = {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}};
    return Graph::from_edges(5, e).symmetrize();
  }());
  cases.emplace_back("barbell", [] {
    // two 5-cliques joined by a path of length 3
    std::vector<Edge> e;
    for (VertexId i = 0; i < 5; ++i) {
      for (VertexId j = 0; j < 5; ++j) {
        if (i != j) {
          e.push_back({i, j});
          e.push_back({static_cast<VertexId>(i + 8), static_cast<VertexId>(j + 8)});
        }
      }
    }
    e.push_back({4, 5});
    e.push_back({5, 6});
    e.push_back({6, 7});
    e.push_back({7, 8});
    return Graph::from_edges(13, e).symmetrize();
  }());
  cases.emplace_back("theta", [] {
    // two vertices joined by three disjoint paths: one BCC
    std::vector<Edge> e = {{0, 2}, {2, 1}, {0, 3}, {3, 1}, {0, 4}, {4, 5}, {5, 1}};
    return Graph::from_edges(6, e).symmetrize();
  }());
  cases.emplace_back("grid", gen::rectangle_grid(12, 15));
  cases.emplace_back("bubbles", gen::bubbles(12, 7));
  cases.emplace_back("sampled_grid",
                     gen::sampled_edges(gen::rectangle_grid(18, 18), 0.55, 7)
                         .symmetrize());
  cases.emplace_back("rmat", gen::rmat(10, 8000, 5).symmetrize());
  cases.emplace_back("random1", gen::random_graph(800, 1600, 11).symmetrize());
  cases.emplace_back("random2", gen::random_graph(400, 3000, 12).symmetrize());
  cases.emplace_back("knn", gen::knn_graph(1200, 3, 19).symmetrize());
  cases.emplace_back("isolated_mix", [] {
    std::vector<Edge> e = {{2, 3}, {3, 4}, {4, 2}};
    return Graph::from_edges(8, e).symmetrize();
  }());
  return cases;
}

class BccTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, BccTest, ::testing::Values(1, 4));

TEST_P(BccTest, FastBccMatchesHopcroftTarjan) {
  for (const auto& [name, g] : bcc_graphs()) {
    auto expected = hopcroft_tarjan_bcc(g);
    auto got = fast_bcc(g);
    EXPECT_EQ(normalize_bcc_labels(got.edge_label),
              normalize_bcc_labels(expected.edge_label))
        << name;
    EXPECT_EQ(got.num_bccs, expected.num_bccs) << name;
  }
}

TEST_P(BccTest, TarjanVishkinMatchesHopcroftTarjan) {
  for (const auto& [name, g] : bcc_graphs()) {
    auto expected = hopcroft_tarjan_bcc(g);
    auto got = tarjan_vishkin_bcc(g);
    EXPECT_EQ(normalize_bcc_labels(got.edge_label),
              normalize_bcc_labels(expected.edge_label))
        << name;
    EXPECT_EQ(got.num_bccs, expected.num_bccs) << name;
  }
}

TEST_P(BccTest, GbbsBccMatchesHopcroftTarjan) {
  for (const auto& [name, g] : bcc_graphs()) {
    auto expected = hopcroft_tarjan_bcc(g);
    auto got = gbbs_bcc(g);
    EXPECT_EQ(normalize_bcc_labels(got.edge_label),
              normalize_bcc_labels(expected.edge_label))
        << name;
    EXPECT_EQ(got.num_bccs, expected.num_bccs) << name;
  }
}

TEST(BccRounds, GbbsBccNeedsDiameterRounds) {
  Scheduler::reset(1);
  Graph g = gen::rectangle_grid(3, 800);  // diameter ~ 800
  Tracer fast_stats, gbbs_stats;
  auto a = fast_bcc(g, &fast_stats);
  auto b = gbbs_bcc(g, &gbbs_stats);
  EXPECT_EQ(normalize_bcc_labels(a.edge_label),
            normalize_bcc_labels(b.edge_label));
  EXPECT_GT(gbbs_stats.rounds(), 700u);
  EXPECT_LT(fast_stats.rounds(), 30u);
}

TEST_P(BccTest, BothCopiesAgree) {
  Graph g = gen::rectangle_grid(10, 12);
  for (auto result : {fast_bcc(g), tarjan_vishkin_bcc(g), hopcroft_tarjan_bcc(g)}) {
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
        VertexId v = g.edge_target(e);
        auto nbrs = g.neighbors(v);
        auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
        EdgeId rev = g.edge_begin(v) + static_cast<EdgeId>(it - nbrs.begin());
        EXPECT_EQ(result.edge_label[e], result.edge_label[rev]);
      }
    }
  }
}

TEST_P(BccTest, TreeHasOneBccPerEdge) {
  Graph g = gen::binary_tree(127);
  auto result = fast_bcc(g);
  EXPECT_EQ(result.num_bccs, 126u);  // every edge is a bridge
  EXPECT_EQ(count_bridges(g, result), 126u);
}

TEST_P(BccTest, CycleIsOneBcc) {
  Graph g = gen::cycle(50).symmetrize();
  auto result = fast_bcc(g);
  EXPECT_EQ(result.num_bccs, 1u);
  EXPECT_EQ(count_bridges(g, result), 0u);
}

TEST_P(BccTest, CliqueIsOneBcc) {
  Graph g = gen::complete(12).symmetrize();
  EXPECT_EQ(fast_bcc(g).num_bccs, 1u);
  EXPECT_EQ(tarjan_vishkin_bcc(g).num_bccs, 1u);
}

// Brute-force articulation points: v is articulation iff removing it
// increases the number of connected components among the remaining vertices
// of its component.
std::vector<VertexId> brute_articulation(const Graph& g) {
  std::size_t n = g.num_vertices();
  auto count_cc_excluding = [&](VertexId excluded) {
    std::vector<std::uint8_t> seen(n, 0);
    std::size_t comps = 0;
    for (VertexId s = 0; s < n; ++s) {
      if (s == excluded || seen[s] || g.out_degree(s) == 0) continue;
      // skip isolated-after-removal vertices consistently: count all
      // non-excluded vertices reachable
      ++comps;
      std::vector<VertexId> stack = {s};
      seen[s] = 1;
      while (!stack.empty()) {
        VertexId u = stack.back();
        stack.pop_back();
        for (VertexId w : g.neighbors(u)) {
          if (w != excluded && !seen[w]) {
            seen[w] = 1;
            stack.push_back(w);
          }
        }
      }
    }
    return comps;
  };
  std::size_t base = count_cc_excluding(static_cast<VertexId>(n));  // no removal
  std::vector<VertexId> out;
  for (VertexId v = 0; v < n; ++v) {
    if (g.out_degree(v) == 0) continue;
    std::size_t without = count_cc_excluding(v);
    // Removing a degree>0 vertex removes its own trivial contribution; v is
    // an articulation iff the remainder splits into more pieces.
    std::size_t isolated_by_removal = 0;
    for (VertexId w : g.neighbors(v)) {
      if (g.out_degree(w) == 1) ++isolated_by_removal;
    }
    (void)isolated_by_removal;
    if (without > base) out.push_back(v);
  }
  return out;
}

TEST_P(BccTest, ArticulationPointsMatchBruteForce) {
  for (const auto& [name, g] : bcc_graphs()) {
    if (g.num_vertices() > 300) continue;  // brute force is quadratic
    auto result = fast_bcc(g);
    auto got = articulation_points(g, result);
    auto expected = brute_articulation(g);
    EXPECT_EQ(got, expected) << name;
  }
}

TEST_P(BccTest, BarbellStructure) {
  // Two cliques + path: cliques are one BCC each, each path edge its own.
  const auto& cases = bcc_graphs();
  for (const auto& [name, g] : cases) {
    if (name != "barbell") continue;
    auto result = fast_bcc(g);
    EXPECT_EQ(result.num_bccs, 2u + 4u);
    EXPECT_EQ(count_bridges(g, result), 4u);
    auto arts = articulation_points(g, result);
    EXPECT_EQ(arts, (std::vector<VertexId>{4, 5, 6, 7, 8}));
  }
}

TEST_P(BccTest, EmptyAndEdgelessGraphs) {
  Graph empty = Graph::from_edges(0, {});
  EXPECT_EQ(fast_bcc(empty).num_bccs, 0u);
  Graph edgeless = Graph::from_edges(10, {});
  auto r = fast_bcc(edgeless);
  EXPECT_EQ(r.num_bccs, 0u);
  EXPECT_EQ(tarjan_vishkin_bcc(edgeless).num_bccs, 0u);
  EXPECT_EQ(hopcroft_tarjan_bcc(edgeless).num_bccs, 0u);
}

}  // namespace
}  // namespace pasgal
