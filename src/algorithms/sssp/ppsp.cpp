#include <queue>

#include "algorithms/sssp/ppsp.h"

namespace pasgal {

namespace {

using HeapEntry = std::pair<Dist, VertexId>;
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>>;

}  // namespace

Dist ppsp_dijkstra(const WeightedGraph<std::uint32_t>& g, VertexId source,
                   VertexId target, Tracer* stats) {
  std::size_t n = g.num_vertices();
  std::vector<Dist> dist(n, kInfWeightDist);
  MinHeap heap;
  dist[source] = 0;
  heap.push({0, source});
  std::uint64_t settled = 0, edges = 0;
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) continue;
    ++settled;
    if (u == target) break;  // first settle of t is optimal
    for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      ++edges;
      VertexId v = g.edge_target(e);
      Dist nd = d + g.edge_weight(e);
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.push({nd, v});
      }
    }
  }
  if (stats) {
    stats->add_visits(settled);
    stats->add_edges(edges);
    stats->end_round(settled);
  }
  return dist[target];
}

Dist ppsp_bidirectional(const WeightedGraph<std::uint32_t>& g,
                        const WeightedGraph<std::uint32_t>& gt, VertexId source,
                        VertexId target, Tracer* stats) {
  std::size_t n = g.num_vertices();
  if (source == target) return 0;
  std::vector<Dist> dist_f(n, kInfWeightDist), dist_b(n, kInfWeightDist);
  std::vector<std::uint8_t> settled_f(n, 0), settled_b(n, 0);
  MinHeap heap_f, heap_b;
  dist_f[source] = 0;
  dist_b[target] = 0;
  heap_f.push({0, source});
  heap_b.push({0, target});

  Dist best = kInfWeightDist;
  std::uint64_t settled = 0, edges = 0;

  auto expand = [&](MinHeap& heap, std::vector<Dist>& dist,
                    std::vector<std::uint8_t>& my_settled,
                    const std::vector<Dist>& other_dist,
                    const WeightedGraph<std::uint32_t>& graph) -> bool {
    // Settle one vertex; returns false when this side is exhausted.
    while (!heap.empty() && heap.top().first != dist[heap.top().second]) {
      heap.pop();  // stale
    }
    if (heap.empty()) return false;
    auto [d, u] = heap.top();
    heap.pop();
    my_settled[u] = 1;
    ++settled;
    for (EdgeId e = graph.edge_begin(u); e < graph.edge_end(u); ++e) {
      ++edges;
      VertexId v = graph.edge_target(e);
      Dist nd = d + graph.edge_weight(e);
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.push({nd, v});
      }
      if (other_dist[v] != kInfWeightDist && nd + other_dist[v] < best) {
        best = nd + other_dist[v];
      }
    }
    return true;
  };

  for (;;) {
    // Termination: when the sum of the two frontier minima reaches `best`,
    // no shorter s-t path remains.
    Dist top_f = heap_f.empty() ? kInfWeightDist : heap_f.top().first;
    Dist top_b = heap_b.empty() ? kInfWeightDist : heap_b.top().first;
    if (top_f == kInfWeightDist && top_b == kInfWeightDist) break;
    if (best != kInfWeightDist && top_f != kInfWeightDist &&
        top_b != kInfWeightDist && top_f + top_b >= best) {
      break;
    }
    if (best != kInfWeightDist &&
        (top_f == kInfWeightDist || top_b == kInfWeightDist)) {
      break;
    }
    // Alternate by smaller frontier minimum.
    bool go_forward = top_f <= top_b;
    bool ok = go_forward ? expand(heap_f, dist_f, settled_f, dist_b, g)
                         : expand(heap_b, dist_b, settled_b, dist_f, gt);
    if (!ok && heap_f.empty() && heap_b.empty()) break;
  }
  if (stats) {
    stats->add_visits(settled);
    stats->add_edges(edges);
    stats->end_round(settled);
  }
  return best;
}

}  // namespace pasgal
