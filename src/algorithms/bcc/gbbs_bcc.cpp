#include <atomic>

#include "algorithms/bcc/bcc.h"
#include "algorithms/bcc/bcc_common.h"
#include "pasgal/edge_map.h"

namespace pasgal {

// GBBS-style BCC baseline: identical post-processing to FAST-BCC, but the
// spanning forest comes from a level-synchronous multi-source BFS — one
// global synchronization per level. This is the paper's point about GBBS's
// BCC: the O(D) BFS rounds dominate on large-diameter graphs (the remainder
// of the pipeline is round-efficient).
BccResult gbbs_bcc(const Graph& g, Tracer* stats) {
  std::size_t n = g.num_vertices();
  if (n == 0) return {};

  // Component representatives seed the multi-source BFS.
  ConnectivityResult cc = connected_components(g, stats);
  auto roots = pack_indexed<VertexId>(
      n, [&](std::size_t v) { return cc.label[v] == v; },
      [&](std::size_t v) { return static_cast<VertexId>(v); });

  std::vector<std::atomic<VertexId>> parent(n);
  parallel_for(0, n, [&](std::size_t i) {
    parent[i].store(kInvalidVertex, std::memory_order_relaxed);
  });
  parallel_for(0, roots.size(), [&](std::size_t i) {
    parent[roots[i]].store(roots[i], std::memory_order_relaxed);
  });

  VertexSubset frontier = VertexSubset::sparse(n, roots);
  while (!frontier.empty()) {
    if (stats) stats->end_round(frontier.size());
    auto update = [&](VertexId u, VertexId v) {
      VertexId expected = kInvalidVertex;
      return parent[v].compare_exchange_strong(expected, u,
                                               std::memory_order_relaxed);
    };
    auto update_seq = [&](VertexId u, VertexId v) {
      if (parent[v].load(std::memory_order_relaxed) == kInvalidVertex) {
        parent[v].store(u, std::memory_order_relaxed);
        return true;
      }
      return false;
    };
    auto cond = [&](VertexId v) {
      return parent[v].load(std::memory_order_relaxed) == kInvalidVertex;
    };
    frontier = edge_map(g, g, frontier, update, update_seq, cond,
                        EdgeMapOptions{}, stats);
  }

  auto forest_edges = pack_indexed<Edge>(
      n,
      [&](std::size_t v) {
        VertexId p = parent[v].load(std::memory_order_relaxed);
        return p != kInvalidVertex && p != static_cast<VertexId>(v);
      },
      [&](std::size_t v) {
        return Edge{parent[v].load(std::memory_order_relaxed),
                    static_cast<VertexId>(v)};
      });

  internal::BccPrep prep =
      internal::bcc_preprocess_from_forest(g, forest_edges, cc.label, stats);
  return internal::bcc_from_prep(g, prep, stats);
}

}  // namespace pasgal
