#include <atomic>

#include "algorithms/sssp/sssp.h"
#include "parlay/primitives.h"

namespace pasgal {

// Frontier-based synchronous Bellman-Ford: each round relaxes every out-edge
// of the vertices improved in the previous round. Needs one global
// synchronization per round and up to O(n) rounds on weighted paths — the
// round-count pathology the stepping framework avoids.
std::vector<Dist> bellman_ford(const WeightedGraph<std::uint32_t>& g,
                               VertexId source, Tracer* stats) {
  check_sssp_preconditions(g, source, kInfWeightDist - 1).throw_if_error();
  std::size_t n = g.num_vertices();
  std::vector<std::atomic<Dist>> dist(n);
  parallel_for(0, n, [&](std::size_t i) {
    dist[i].store(kInfWeightDist, std::memory_order_relaxed);
  });
  dist[source].store(0, std::memory_order_relaxed);

  std::vector<VertexId> frontier = {source};
  std::vector<std::atomic<std::uint8_t>> in_next(n);
  parallel_for(0, n, [&](std::size_t i) {
    in_next[i].store(0, std::memory_order_relaxed);
  });

  while (!frontier.empty()) {
    if (stats) stats->end_round(frontier.size());
    parallel_for(
        0, frontier.size(),
        [&](std::size_t i) {
          VertexId u = frontier[i];
          Dist du = dist[u].load(std::memory_order_relaxed);
          std::uint64_t scanned = 0;
          for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
            ++scanned;
            VertexId v = g.edge_target(e);
            Dist nd = du + g.edge_weight(e);
            if (write_min(dist[v], nd)) {
              in_next[v].store(1, std::memory_order_relaxed);
            }
          }
          if (stats) {
            stats->add_edges(scanned);
            stats->add_visits(1);
          }
        },
        1);
    frontier = pack_indexed<VertexId>(
        n,
        [&](std::size_t v) {
          return in_next[v].load(std::memory_order_relaxed) != 0;
        },
        [&](std::size_t v) { return static_cast<VertexId>(v); });
    parallel_for(0, n, [&](std::size_t i) {
      in_next[i].store(0, std::memory_order_relaxed);
    });
  }

  return tabulate(n, [&](std::size_t v) {
    return dist[v].load(std::memory_order_relaxed);
  });
}

}  // namespace pasgal
