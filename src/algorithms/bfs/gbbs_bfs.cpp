#include <atomic>

#include "algorithms/bfs/bfs.h"
#include "pasgal/edge_map.h"

namespace pasgal {

// GBBS-style BFS: level-synchronous edge_map with automatic sparse/dense
// switching. One global synchronization per level — the O(D) rounds the
// paper identifies as the large-diameter bottleneck.
std::vector<std::uint32_t> gbbs_bfs(const Graph& g, const Graph& gt,
                                    VertexId source, Tracer* stats,
                                    const CancelToken* cancel) {
  std::size_t n = g.num_vertices();
  std::vector<std::atomic<std::uint32_t>> dist(n);
  parallel_for(0, n, [&](std::size_t i) {
    dist[i].store(kInfDist, std::memory_order_relaxed);
  });
  dist[source].store(0, std::memory_order_relaxed);

  VertexSubset frontier = VertexSubset::single(n, source);
  std::uint32_t level = 0;
  while (!frontier.empty()) {
    if (stats) stats->end_round(frontier.size());
    ++level;
    auto update = [&](VertexId, VertexId v) {
      std::uint32_t expected = kInfDist;
      return dist[v].compare_exchange_strong(expected, level,
                                             std::memory_order_relaxed);
    };
    auto update_seq = [&](VertexId, VertexId v) {
      // Dense mode: v is scanned by a single task; no CAS needed.
      if (dist[v].load(std::memory_order_relaxed) == kInfDist) {
        dist[v].store(level, std::memory_order_relaxed);
        return true;
      }
      return false;
    };
    auto cond = [&](VertexId v) {
      return dist[v].load(std::memory_order_relaxed) == kInfDist;
    };
    EdgeMapOptions emopt;
    emopt.cancel = cancel;
    frontier = edge_map(g, gt, frontier, update, update_seq, cond, emopt,
                        stats);
  }

  std::vector<std::uint32_t> out(n);
  parallel_for(0, n, [&](std::size_t i) {
    out[i] = dist[i].load(std::memory_order_relaxed);
  });
  return out;
}

}  // namespace pasgal
