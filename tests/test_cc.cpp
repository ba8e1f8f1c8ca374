// Tests for connected components (union-find and label propagation).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "algorithms/cc/cc.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

// Reference: sequential flood fill.
std::vector<VertexId> reference_cc(const Graph& g) {
  std::size_t n = g.num_vertices();
  std::vector<VertexId> label(n, kInvalidVertex);
  for (VertexId s = 0; s < n; ++s) {
    if (label[s] != kInvalidVertex) continue;
    std::vector<VertexId> stack = {s};
    label[s] = s;
    while (!stack.empty()) {
      VertexId u = stack.back();
      stack.pop_back();
      for (VertexId v : g.neighbors(u)) {
        if (label[v] == kInvalidVertex) {
          label[v] = s;
          stack.push_back(v);
        }
      }
    }
  }
  return label;
}

class CcTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam()); }
  void TearDown() override { Scheduler::reset(1); }
};

INSTANTIATE_TEST_SUITE_P(Workers, CcTest, ::testing::Values(1, 4));

std::vector<std::pair<std::string, Graph>> cc_graphs() {
  std::vector<std::pair<std::string, Graph>> cases;
  cases.emplace_back("empty", Graph::from_edges(0, {}));
  cases.emplace_back("isolated", Graph::from_edges(7, {}));
  cases.emplace_back("chain", gen::chain(500));
  cases.emplace_back("grid", gen::rectangle_grid(20, 30));
  cases.emplace_back("tree", gen::binary_tree(1000));
  cases.emplace_back("star", gen::star(300));
  cases.emplace_back("bubbles", gen::bubbles(15, 8));
  cases.emplace_back("sampled_grid",
                     gen::sampled_edges(gen::rectangle_grid(30, 30), 0.45, 3)
                         .symmetrize());
  cases.emplace_back("rmat_sym", gen::rmat(11, 15000, 5).symmetrize());
  cases.emplace_back("two_cliques", [] {
    std::vector<Edge> edges;
    for (VertexId i = 0; i < 10; ++i) {
      for (VertexId j = 0; j < 10; ++j) {
        if (i != j) {
          edges.push_back({i, j});
          edges.push_back({i + 10, j + 10});
        }
      }
    }
    return Graph::from_edges(20, edges);
  }());
  return cases;
}

TEST_P(CcTest, UnionFindMatchesReference) {
  for (const auto& [name, g] : cc_graphs()) {
    auto expected = reference_cc(g);
    auto result = connected_components(g);
    EXPECT_EQ(result.label, expected) << name;  // both use min-vertex labels
  }
}

TEST_P(CcTest, LabelPropMatchesReference) {
  for (const auto& [name, g] : cc_graphs()) {
    EXPECT_EQ(label_prop_cc(g), reference_cc(g)) << name;
  }
}

TEST_P(CcTest, ComponentCount) {
  auto r = connected_components(gen::chain(100));
  EXPECT_EQ(r.num_components, 1u);
  auto r2 = connected_components(Graph::from_edges(5, {}));
  EXPECT_EQ(r2.num_components, 5u);
  auto grid = gen::sampled_edges(gen::rectangle_grid(25, 25), 0.4, 9).symmetrize();
  auto r3 = connected_components(grid);
  auto ref = reference_cc(grid);
  std::set<VertexId> roots(ref.begin(), ref.end());
  EXPECT_EQ(r3.num_components, roots.size());
}

TEST_P(CcTest, SpanningForestSizeAndAcyclicity) {
  for (const auto& [name, g] : cc_graphs()) {
    auto r = connected_components(g);
    std::size_t n = g.num_vertices();
    ASSERT_EQ(r.forest.size(), n - r.num_components) << name;
    // A forest with n - c edges and no cycles: union-find over forest edges
    // must never find both endpoints already connected.
    std::vector<VertexId> parent(n);
    for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<VertexId>(i);
    std::function<VertexId(VertexId)> find = [&](VertexId v) {
      while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
      }
      return v;
    };
    for (const Edge& e : r.forest) {
      VertexId a = find(e.from), b = find(e.to);
      EXPECT_NE(a, b) << name << ": forest has a cycle";
      parent[a] = b;
    }
    // Forest connects exactly the components of g.
    for (const Edge& e : r.forest) {
      EXPECT_EQ(r.label[e.from], r.label[e.to]) << name;
    }
  }
}

TEST_P(CcTest, ForestSpansComponents) {
  Graph g = gen::rectangle_grid(15, 15);
  auto r = connected_components(g);
  // Flood fill over forest edges alone must reach everything.
  std::vector<std::vector<VertexId>> adj(g.num_vertices());
  for (const Edge& e : r.forest) {
    adj[e.from].push_back(e.to);
    adj[e.to].push_back(e.from);
  }
  std::vector<std::uint8_t> seen(g.num_vertices(), 0);
  std::vector<VertexId> stack = {0};
  seen[0] = 1;
  std::size_t count = 1;
  while (!stack.empty()) {
    VertexId u = stack.back();
    stack.pop_back();
    for (VertexId v : adj[u]) {
      if (!seen[v]) {
        seen[v] = 1;
        ++count;
        stack.push_back(v);
      }
    }
  }
  EXPECT_EQ(count, g.num_vertices());
}

TEST_P(CcTest, DirectedEdgesTreatedAsUndirected) {
  // connected_components must treat one-directional edges as connections.
  Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 1}, {3, 2}});
  auto r = connected_components(g);
  EXPECT_EQ(r.num_components, 1u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(r.label[v], 0u);
}

TEST(CcRounds, LabelPropNeedsDiameterRounds) {
  Scheduler::reset(1);
  Graph g = gen::chain(2000);
  Tracer uf_stats, lp_stats;
  connected_components(g, &uf_stats);
  label_prop_cc(g, &lp_stats);
  EXPECT_LE(uf_stats.rounds(), 2u);
  EXPECT_GT(lp_stats.rounds(), 5u);  // min labels crawl along the chain
}

}  // namespace
}  // namespace pasgal
