#include "algorithms/cc/cc.h"

#include <atomic>

#include "algorithms/cc/union_find.h"
#include "parlay/primitives.h"

namespace pasgal {

ConnectivityResult connected_components(const Graph& g, Tracer* stats) {
  // Manual CSR walk below (edge_target, unchecked unions indexed by target):
  // an un-deep-validated mmap open must fail typed here, not out of bounds.
  g.ensure_validated();
  ConnectivityResult result;
  result.label = internal::union_edges(
      g, [](VertexId u, VertexId v) { return u != v; }, &result.forest, stats);
  result.num_components = count_distinct_labels(result.label);
  return result;
}

std::vector<VertexId> label_prop_cc(const Graph& g, Tracer* stats) {
  // Classic synchronous min-label propagation: every round each vertex takes
  // the minimum of its own and its neighbours' previous-round labels. Needs
  // O(D) rounds — the per-round global synchronization cost the paper's
  // techniques eliminate; kept as the ablation baseline.
  g.ensure_validated();  // label[v] indexing below trusts targets < n
  std::size_t n = g.num_vertices();
  auto label = tabulate(n, [](std::size_t i) { return static_cast<VertexId>(i); });
  std::vector<VertexId> next(n);
  for (;;) {
    std::atomic<bool> changed{false};
    parallel_for(0, n, [&](std::size_t u) {
      VertexId best = label[u];
      for (VertexId v : g.neighbors(static_cast<VertexId>(u))) {
        best = std::min(best, label[v]);
      }
      next[u] = best;
      if (best != label[u]) changed.store(true, std::memory_order_relaxed);
    });
    std::swap(label, next);
    if (stats) {
      stats->add_edges(g.num_edges());
      stats->end_round(n);
    }
    if (!changed.load(std::memory_order_relaxed)) break;
  }
  return label;
}

std::size_t count_distinct_labels(std::span<const VertexId> labels) {
  // Labels are component minima, hence fixpoints: label[label[v]] == label[v].
  return count_if_index(labels.size(), [&](std::size_t v) {
    return labels[v] == static_cast<VertexId>(v);
  });
}

}  // namespace pasgal
