#include <atomic>

#include "algorithms/bcc/bcc.h"
#include "algorithms/bcc/bcc_common.h"
#include "algorithms/cc/union_find.h"

namespace pasgal {

// FAST-BCC (Dong, Gu, Sun, Wang — PPoPP'23), the BCC algorithm in PASGAL.
// No BFS anywhere, O(n+m) work, polylog span, O(n) auxiliary space:
//
//   1. connectivity -> arbitrary spanning forest (union-find; no BFS),
//   2. Euler tour roots the forest: parent[], nested intervals [first,last],
//   3. subtree aggregation of extremal non-tree-neighbour `first` values
//      yields low(v)/high(v),
//   4. classification: tree edge (p, v) is a *fence* iff subtree(v) has no
//      non-tree edge escaping subtree(p); the skeleton keeps the non-fence
//      ("plain") tree edges plus the non-tree edges between unrelated
//      vertices (ancestor back edges would glue BCCs through their heads —
//      the plain tree edges along the path already carry that
//      connectivity),
//   5. connectivity on the skeleton, run implicitly: union-find over g's own
//      edges that pass the step-4 test, so no skeleton graph is built. Each
//      component is one BCC minus its head; its label is its minimum vertex.
//      Edge labels read off the child endpoint (tree edges) or the
//      descendant endpoint (back edges).
//
// Step 1 is the same union-find over one direction of each (symmetric) edge,
// recording each link at the root it linked, so the whole pipeline keeps
// O(n) auxiliary space beyond the output labels; step 2 ranks the Euler tour
// with O(k) work (list_rank).
namespace internal {

// Steps 4-5 on a prepared forest: skeleton connectivity and per-edge label
// readout. Shared by fast_bcc (union-find forest) and gbbs_bcc (BFS forest).
BccResult bcc_from_prep(const Graph& g, const BccPrep& prep, Tracer* stats) {
  std::size_t n = g.num_vertices();
  BccResult result;
  result.edge_label.resize(g.num_edges());
  if (n == 0) return result;
  const EulerForest& forest = prep.forest;

  // Skeleton edges, one copy per undirected edge (u < v).
  auto in_skeleton = [&](VertexId u, VertexId v) {
    if (u >= v) return false;
    if (prep.is_tree_edge(u, v)) {
      VertexId child = forest.parent[v] == u ? v : u;
      return prep.escapes_parent(child);
    }
    return !forest.is_ancestor(u, v) && !forest.is_ancestor(v, u);
  };
  std::vector<VertexId> comp = union_edges(g, in_skeleton, nullptr, stats);
  if (stats) stats->end_round(n);

  // Per-edge labels.
  std::vector<std::atomic<std::uint8_t>> label_used(n);
  parallel_for(0, n, [&](std::size_t i) {
    label_used[i].store(0, std::memory_order_relaxed);
  });
  parallel_for(0, n, [&](std::size_t ui) {
    VertexId u = static_cast<VertexId>(ui);
    for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      VertexId v = g.edge_target(e);
      VertexId key;
      if (prep.is_tree_edge(u, v)) {
        key = forest.parent[v] == u ? v : u;  // the child endpoint
      } else if (forest.is_ancestor(u, v)) {
        key = v;  // descendant endpoint
      } else {
        key = u;  // unrelated (or v ancestor of u): u's side is in-component
      }
      result.edge_label[e] = comp[key];
      // Test first: the edges of one big BCC would all store to one byte.
      if (label_used[comp[key]].load(std::memory_order_relaxed) == 0) {
        label_used[comp[key]].store(1, std::memory_order_relaxed);
      }
    }
  });
  result.num_bccs = count_if_index(n, [&](std::size_t i) {
    return label_used[i].load(std::memory_order_relaxed) != 0;
  });
  return result;
}

}  // namespace internal

BccResult fast_bcc(const Graph& g, Tracer* stats) {
  if (g.num_vertices() == 0) return {};
  g.ensure_validated();  // the CSR walks below trust targets < n
  if (stats) stats->phase_begin("spanning_forest");
  // The input is symmetric by contract: one direction of each edge suffices.
  std::vector<Edge> forest;
  std::vector<VertexId> label = internal::union_edges(
      g, [](VertexId u, VertexId v) { return u < v; }, &forest, stats);
  if (stats) stats->phase_begin("euler_tour");
  internal::BccPrep prep =
      internal::bcc_preprocess_from_forest(g, forest, label, stats);
  if (stats) stats->phase_begin("skeleton");
  BccResult result = internal::bcc_from_prep(g, prep, stats);
  if (stats) stats->phase_end();
  return result;
}

}  // namespace pasgal
