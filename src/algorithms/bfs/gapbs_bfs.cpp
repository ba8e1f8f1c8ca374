#include <atomic>

#include "algorithms/bfs/bfs.h"
#include "pasgal/edge_map.h"

namespace pasgal::internal {

namespace {

// GAPBS's hysteresis constants: switch to bottom-up when frontier edges >
// remaining/alpha; back to top-down when |frontier| < n/beta.
constexpr EdgeId kGapbsAlpha = 15;
constexpr std::size_t kGapbsBeta = 18;

}  // namespace

// GAPBS-style direction-optimizing BFS (Beamer et al., SC'12): top-down
// (push) by default; bottom-up (pull) when the frontier's unexplored edge
// count exceeds remaining/alpha; back to top-down when the frontier shrinks
// below n/beta. Still one global synchronization per level.
std::vector<std::uint32_t> gapbs_bfs(const Graph& g, const Graph& gt,
                                     const AlgoOptions& opt, Tracer* stats) {
  const VertexId source = opt.source;
  // The bottom-up loop below indexes in_frontier[u] with raw gt targets
  // (it bypasses edge_map and its validation choke point), so un-deep-
  // validated mmap handles are checked here.
  g.ensure_validated();
  gt.ensure_validated();
  std::size_t n = g.num_vertices();
  std::vector<std::atomic<std::uint32_t>> dist(n);
  parallel_for(0, n, [&](std::size_t i) {
    dist[i].store(kInfDist, std::memory_order_relaxed);
  });
  dist[source].store(0, std::memory_order_relaxed);

  VertexSubset frontier = VertexSubset::single(n, source);
  std::uint32_t level = 0;
  bool bottom_up = false;
  // Edges not yet scanned from settled vertices — GAPBS's alpha signal.
  EdgeId edges_remaining = g.num_edges();

  while (!frontier.empty()) {
    if (stats) stats->end_round(frontier.size());
    ++level;
    EdgeId frontier_edges = frontier.out_degree_sum(g);
    if (!bottom_up &&
        frontier_edges > edges_remaining / kGapbsAlpha) {
      bottom_up = true;
    } else if (bottom_up &&
               frontier.size() < n / kGapbsBeta) {
      bottom_up = false;
    }
    edges_remaining -= std::min(edges_remaining, frontier_edges);

    auto cond = [&](VertexId v) {
      return dist[v].load(std::memory_order_relaxed) == kInfDist;
    };
    if (bottom_up) {
      frontier.to_dense();
      const auto& in_frontier = frontier.dense_mask();
      std::vector<std::uint8_t> next(n, 0);
      parallel_for(0, n, [&](std::size_t vi) {
        VertexId v = static_cast<VertexId>(vi);
        if (!cond(v)) return;
        std::uint64_t scanned = 0;
        for (VertexId u : gt.neighbors(v)) {
          ++scanned;
          if (in_frontier[u]) {
            dist[v].store(level, std::memory_order_relaxed);
            next[vi] = 1;
            break;
          }
        }
        if (stats) stats->add_edges(scanned);
      });
      if (stats) stats->add_visits(n);
      frontier = VertexSubset::dense(std::move(next));
    } else {
      auto update = [&](VertexId, VertexId v) {
        std::uint32_t expected = kInfDist;
        return dist[v].compare_exchange_strong(expected, level,
                                               std::memory_order_relaxed);
      };
      EdgeMapOptions emopt;
      emopt.allow_dense = false;  // direction decided above, not by edge_map
      frontier = edge_map(g, gt, frontier, update, update, cond, emopt, stats);
    }
  }

  std::vector<std::uint32_t> out(n);
  parallel_for(0, n, [&](std::size_t i) {
    out[i] = dist[i].load(std::memory_order_relaxed);
  });
  return out;
}

}  // namespace pasgal::internal
