#include <atomic>
#include <bit>
#include <memory>

#include "algorithms/bfs/bfs.h"
#include "pasgal/hashbag.h"
#include "pasgal/vgc.h"

namespace pasgal {

namespace {

// Multi-frontier bucket index (§2.2): bucket 0 holds vertices at the current
// base distance; bucket j>=1 holds vertices ~2^(j-1) hops ahead. Entries are
// re-bucketed (strictly downward) as the base advances, so a vertex moves
// through O(log D) buckets.
constexpr int kNumBuckets = 34;

// Engage VGC only when the frontier's work is below kVgcEngageFactor*tau
// edge operations — i.e. when per-round work is too small to amortize
// scheduling on a many-core machine. Deliberately NOT scaled by the current
// worker count: the algorithm's round structure should not change with the
// machine it happens to run on.
constexpr std::uint64_t kVgcEngageFactor = 16;

int bucket_for(std::uint32_t gap) {
  if (gap == 0) return 0;
  int b = 1 + (31 - std::countl_zero(gap));
  return b < kNumBuckets ? b : kNumBuckets - 1;
}

std::uint64_t encode(VertexId v, std::uint32_t d) {
  return (static_cast<std::uint64_t>(d) << 32) | v;
}
VertexId entry_vertex(std::uint64_t e) { return static_cast<VertexId>(e); }
std::uint32_t entry_dist(std::uint64_t e) {
  return static_cast<std::uint32_t>(e >> 32);
}

}  // namespace

namespace internal {

// PASGAL BFS (§2.2): label-correcting BFS over hash-bag frontiers.
//  * Sparse rounds run VGC local searches (budget tau) when the frontier is
//    small, or one-hop expansion (tau=1) when it already has parallelism.
//  * Entries carry the tentative distance they were enqueued with; stale
//    entries are skipped (a vertex may be visited more than once — the extra
//    work the paper accepts in exchange for fewer rounds).
//  * On clean dense levels, direction-optimized pull rounds take over, as in
//    the best low-diameter BFS implementations.
std::vector<std::uint32_t> pasgal_bfs(const Graph& g, const Graph& gt,
                                      const AlgoOptions& opt, Tracer* stats) {
  const VertexId source = opt.source;
  const VgcParams vgc_opt = opt.vgc;
  const EdgeId dense_threshold_den = opt.dense_threshold_den;
  const bool use_dense = opt.use_dense;
  const CancelToken* const cancel = opt.cancel;
  std::size_t n = g.num_vertices();
  std::size_t m = g.num_edges();
  std::vector<std::atomic<std::uint32_t>> dist(n);
  parallel_for(0, n, [&](std::size_t i) {
    dist[i].store(kInfDist, std::memory_order_relaxed);
  });
  dist[source].store(0, std::memory_order_relaxed);

  std::vector<std::unique_ptr<HashBag<std::uint64_t>>> bags;
  bags.reserve(kNumBuckets);
  for (int b = 0; b < kNumBuckets; ++b) {
    bags.push_back(std::make_unique<HashBag<std::uint64_t>>(8));
    if (stats) bags.back()->attach_tracer(stats);
  }
  bags[0]->insert(encode(source, 0));

  const EdgeId dense_limit = m / dense_threshold_den + 1;
  // VGC applies throughout the sparse regime: any frontier below the density
  // threshold is scheduling-bound on a many-core machine, which is exactly
  // what local searches amortize. (kVgcEngageFactor*tau acts as a floor so
  // tiny tau values still engage near the source.)
  const std::uint64_t vgc_limit = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(vgc_opt.tau) * kVgcEngageFactor,
      dense_limit);

  for (;;) {
    if (cancel != nullptr) cancel->check("pasgal_bfs round");
    // Lowest non-empty bucket drives the next round.
    int lowest = -1;
    for (int b = 0; b < kNumBuckets; ++b) {
      if (!bags[b]->empty()) {
        lowest = b;
        break;
      }
    }
    if (lowest < 0) break;

    auto entries = bags[lowest]->extract_all();
    auto valid = filter(std::span<const std::uint64_t>(entries),
                        [&](std::uint64_t e) {
                          return dist[entry_vertex(e)].load(
                                     std::memory_order_relaxed) == entry_dist(e);
                        });
    if (valid.empty()) continue;

    std::uint32_t base = reduce_indexed<std::uint32_t>(
        valid.size(), kInfDist,
        [](std::uint32_t a, std::uint32_t b) { return a < b ? a : b; },
        [&](std::size_t i) { return entry_dist(valid[i]); });
    std::uint32_t max_dist = reduce_indexed<std::uint32_t>(
        valid.size(), 0,
        [](std::uint32_t a, std::uint32_t b) { return a < b ? b : a; },
        [&](std::size_t i) { return entry_dist(valid[i]); });

    // The whole bucket is processed at once: its entries span at most a 2x
    // distance range (§2.2 — "frontier i maintains vertices with distance
    // 2^i from the current frontier"), so none of them is too "unready",
    // and deferring them would reintroduce one round per level.
    std::vector<std::uint64_t> ready = std::move(valid);

    EdgeId ready_work =
        reduce_indexed<EdgeId>(ready.size(), 0, std::plus<EdgeId>{},
                               [&](std::size_t i) {
                                 return g.out_degree(entry_vertex(ready[i]));
                               }) +
        ready.size();

    // Dense mode needs a clean single-level frontier with no other pending
    // entries (see the level-by-level argument in the function comment).
    bool bags_quiet = max_dist == base;
    if (bags_quiet) {
      for (int b = 0; b < kNumBuckets; ++b) {
        if (!bags[b]->empty()) {
          bags_quiet = false;
          break;
        }
      }
    }

    // --- Dense (direction-optimized) phase -------------------------------
    if (use_dense && bags_quiet && ready_work > dense_limit) {
      std::uint32_t level = base;
      for (;;) {
        if (cancel != nullptr) cancel->check("pasgal_bfs dense level");
        // Frontier by value: every vertex currently at `level`.
        std::vector<std::uint8_t> frontier(n);
        parallel_for(0, n, [&](std::size_t v) {
          frontier[v] =
              dist[v].load(std::memory_order_relaxed) == level ? 1 : 0;
        });
        std::size_t fsize = count_if_index(
            n, [&](std::size_t v) { return frontier[v] != 0; });
        if (fsize == 0) break;
        EdgeId fwork = reduce_indexed<EdgeId>(
                           n, 0, std::plus<EdgeId>{},
                           [&](std::size_t v) {
                             return frontier[v]
                                        ? g.out_degree(static_cast<VertexId>(v))
                                        : 0;
                           }) +
                       fsize;
        if (fwork <= dense_limit) {
          // Hand the frontier back to the sparse machinery.
          parallel_for(0, n, [&](std::size_t v) {
            if (frontier[v]) {
              bags[0]->insert(encode(static_cast<VertexId>(v), level));
            }
          });
          break;
        }
        if (stats) stats->end_round(fsize, RoundKind::kDense);
        std::uint32_t next_level = level + 1;
        parallel_for(0, n, [&](std::size_t vi) {
          VertexId v = static_cast<VertexId>(vi);
          if (dist[v].load(std::memory_order_relaxed) <= next_level) return;
          std::uint64_t scanned = 0;
          for (VertexId u : gt.neighbors(v)) {
            ++scanned;
            if (dist[u].load(std::memory_order_relaxed) == level) {
              dist[v].store(next_level, std::memory_order_relaxed);
              break;
            }
          }
          if (stats) stats->add_edges(scanned);
        });
        if (stats) stats->add_visits(fsize);
        level = next_level;
      }
      continue;
    }

    // --- Sparse phase: VGC local searches (tau=1 when already parallel) ---
    VgcParams vgc = vgc_opt;
    if (ready_work >= vgc_limit) vgc.tau = 1;
    if (stats) {
      stats->end_round(ready.size(),
                       vgc.tau > 1 ? RoundKind::kLocal : RoundKind::kSparse);
    }
    parallel_for(
        0, ready.size(),
        [&](std::size_t i) {
          VertexId root = entry_vertex(ready[i]);
          std::uint32_t root_dist = entry_dist(ready[i]);
          std::uint64_t edges = 0;
          local_search_dist(
              root, root_dist, vgc,
              [&](VertexId u, std::uint32_t du, auto&& emit) {
                if (dist[u].load(std::memory_order_relaxed) != du) return;
                std::uint32_t nd = du + 1;
                for (VertexId v : g.neighbors(u)) {
                  ++edges;
                  if (write_min(dist[v], nd)) emit(v, nd);
                }
              },
              [&](VertexId v, std::uint32_t d) {
                bags[bucket_for(d - base)]->insert(encode(v, d));
              },
              stats);
          if (stats) stats->add_edges(edges);
        },
        1);
  }

  std::vector<std::uint32_t> out(n);
  parallel_for(0, n, [&](std::size_t i) {
    out[i] = dist[i].load(std::memory_order_relaxed);
  });
  return out;
}

}  // namespace internal

}  // namespace pasgal
