#include <atomic>

#include "algorithms/sssp/sssp.h"
#include "parlay/primitives.h"
#include "pasgal/edge_map.h"

namespace pasgal {

// Frontier-synchronous Bellman-Ford routed through edge_map_sparse: the same
// label-correcting recurrence as bellman_ford, but every edge scan goes
// through the edge_map choke point, so sharded (.pgr windowed) opens traverse
// shard-at-a-time with bounded residency. The weight is looked up by the
// edge's *global* id (the 3-arg update form) — weights stay a whole-file
// span even when targets are windowed, since only the targets section is
// compressed/windowed. Push-only: SSSP loads carry no transpose, and the
// min-relaxation has no early-exit pull formulation anyway.
//
// Distances converge to the same fixpoint as the baselines (relaxations are
// monotone write_mins; rounds repeat until no distance improves), so outputs
// are byte-identical to bellman_ford/dijkstra on the same graph.
std::vector<Dist> em_bellman_ford(const WeightedGraph<std::uint32_t>& g,
                                  VertexId source, const CancelToken* cancel,
                                  Tracer* stats) {
  check_sssp_preconditions(g, source, kInfWeightDist - 1).throw_if_error();
  const Graph& ug = g.unweighted();
  std::size_t n = g.num_vertices();
  std::vector<std::atomic<Dist>> dist(n);
  parallel_for(0, n, [&](std::size_t i) {
    dist[i].store(kInfWeightDist, std::memory_order_relaxed);
  });
  dist[source].store(0, std::memory_order_relaxed);

  auto weights = g.weights();
  auto update = [&](VertexId u, VertexId v, EdgeId e) {
    Dist nd = dist[u].load(std::memory_order_relaxed) + weights[e];
    return write_min(dist[v], nd);
  };
  // Label-correcting: any vertex may improve again in a later round.
  auto cond = [](VertexId) { return true; };
  EdgeMapOptions opt;
  opt.allow_dense = false;
  opt.cancel = cancel;

  VertexSubset frontier = VertexSubset::single(n, source);
  while (!frontier.empty()) {
    if (stats) stats->end_round(frontier.size());
    frontier = edge_map_sparse(ug, frontier, update, cond, opt, stats);
  }

  return tabulate(n, [&](std::size_t v) {
    return dist[v].load(std::memory_order_relaxed);
  });
}

}  // namespace pasgal
