// Bit-parallel multi-source BFS (MS-BFS, in the style of Then et al.,
// VLDB'14), on PASGAL's frontier substrate.
//
// State per vertex: `seen` — the set of sources (one bit each) that have
// reached it at any completed level — and `visit` — the bits that arrived
// exactly last level, i.e. what the vertex pushes this round. A round is one
// shared sweep for the whole batch:
//
//   sparse (push):  for each frontier vertex u, OR (visit[u] & ~seen[v])
//                   into next[v] for every out-neighbour v; the first push
//                   that touches a vertex inserts it into a hash bag, which
//                   the round extracts as the next frontier (the pasgal_bfs
//                   idiom: footprint proportional to the frontier, no O(n)
//                   pack).
//   dense (pull):   every vertex whose mask is not yet saturated scans its
//                   in-neighbours through edge_map_dense, AND-NOT-ing their
//                   visit masks against its own seen bits. `pull_exhaustive`
//                   is essential: unlike single-source BFS, one hit does not
//                   decide the vertex — bits keep arriving from later
//                   in-neighbours at this same level, and stopping early
//                   would push those sources' arrival to a later (wrong)
//                   level.
//
// The round boundary settles each touched vertex exactly once: the freshly
// gathered bits become this level's distances for the corresponding sources,
// are merged into `seen`, and become the vertex's `visit` mask for the next
// round. `seen` is stable within a round, so pushes race only on the
// monotone next[] fetch_or — re-ORs of already-pending bits are idempotent.
//
// Hop distances are unique, so a batch of k sources is byte-identical to k
// independent single-source runs (the equivalence suite in test_ms_bfs.cpp
// holds this against pasgal_bfs across the fuzz-corpus graph families).
#include <atomic>
#include <bit>

#include "algorithms/bfs/bfs.h"
#include "pasgal/edge_map.h"
#include "pasgal/hashbag.h"
#include "pasgal/options.h"

namespace pasgal::internal {

std::vector<std::vector<std::uint32_t>> ms_bfs(const Graph& g, const Graph& gt,
                                               const BatchOptions& opt,
                                               Tracer* stats) {
  std::span<const VertexId> sources = opt.sources;
  const EdgeId dense_threshold_den = opt.algo.dense_threshold_den;
  const bool use_dense = opt.algo.use_dense;
  const CancelToken* const cancel = opt.algo.cancel;
  check_batch_sources(sources, g.num_vertices());
  g.ensure_validated();
  gt.ensure_validated();

  std::size_t n = g.num_vertices();
  std::size_t k = sources.size();
  EdgeId m = g.num_edges();
  std::uint64_t full =
      k == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;

  std::vector<std::atomic<std::uint64_t>> seen(n);
  std::vector<std::atomic<std::uint64_t>> next(n);
  std::vector<std::uint64_t> visit(n);
  parallel_for(0, n, [&](std::size_t i) {
    seen[i].store(0, std::memory_order_relaxed);
    next[i].store(0, std::memory_order_relaxed);
    visit[i] = 0;
  });

  std::vector<std::vector<std::uint32_t>> out(k);
  parallel_for(0, k, [&](std::size_t i) {
    out[i].assign(n, kInfDist);
  }, 1);

  for (std::size_t i = 0; i < k; ++i) {
    VertexId s = sources[i];
    seen[s].store(seen[s].load(std::memory_order_relaxed) |
                      (std::uint64_t{1} << i),
                  std::memory_order_relaxed);
    visit[s] |= std::uint64_t{1} << i;
    out[i][s] = 0;
  }
  VertexSubset frontier =
      VertexSubset::sparse(n, {sources.begin(), sources.end()});

  HashBag<VertexId> bag;
  if (stats) bag.attach_tracer(stats);

  std::uint32_t level = 0;
  while (!frontier.empty()) {
    if (cancel != nullptr) cancel->check("ms_bfs round boundary");
    if (stats) stats->end_round(frontier.size());
    ++level;

    // A vertex stays eligible while some source has neither reached it nor
    // already queued a bit for it this round.
    auto cond = [&](VertexId v) {
      return (seen[v].load(std::memory_order_relaxed) |
              next[v].load(std::memory_order_relaxed)) != full;
    };

    EdgeId work = frontier.out_degree_sum(g) + frontier.size();
    bool go_dense = use_dense && work > m / dense_threshold_den;
    VertexSubset activated = VertexSubset::empty(n);
    if (go_dense) {
      // Pull: v is scanned by a single task, so next[v] needs no CAS. The
      // activation signal (first bits queued for v) feeds the trusted
      // activation count inside edge_map_dense.
      auto update_seq = [&](VertexId u, VertexId v) {
        std::uint64_t add =
            visit[u] & ~seen[v].load(std::memory_order_relaxed);
        if (add == 0) return false;
        std::uint64_t old = next[v].load(std::memory_order_relaxed);
        next[v].store(old | add, std::memory_order_relaxed);
        return old == 0;
      };
      EdgeMapOptions emopt;
      emopt.cancel = cancel;
      emopt.pull_exhaustive = true;
      activated = edge_map_dense(g, gt, frontier, update_seq, cond, emopt,
                                 stats);
    } else {
      // Push: OR the frontier masks through the hash bag — exactly one
      // insert per newly touched vertex (the fetch_or's first setter wins).
      if (stats) stats->set_round_kind(RoundKind::kSparse);
      frontier.to_sparse();
      const auto& verts = frontier.sparse_vertices();
      parallel_for(0, verts.size(), [&](std::size_t i) {
        VertexId u = verts[i];
        std::uint64_t mask = visit[u];
        std::uint64_t scanned = 0;
        for (VertexId v : g.neighbors(u)) {
          ++scanned;
          std::uint64_t add =
              mask & ~seen[v].load(std::memory_order_relaxed);
          if (add == 0) continue;
          if (next[v].fetch_or(add, std::memory_order_relaxed) == 0) {
            bag.insert(v);
          }
        }
        if (stats) {
          stats->add_edges(scanned);
          stats->add_visits(1);
        }
      });
      activated = VertexSubset::sparse(n, bag.extract_all());
    }

    // Settle at the round boundary: each touched vertex's fresh bits become
    // this level's distances and its visit mask for the next round. next[]
    // holds only bits absent from seen (both directions filtered against the
    // round-stable seen), so the exchange is exactly the new arrivals.
    auto settle = [&](VertexId v) {
      std::uint64_t fresh = next[v].exchange(0, std::memory_order_relaxed);
      seen[v].fetch_or(fresh, std::memory_order_relaxed);
      visit[v] = fresh;
      while (fresh != 0) {
        int b = std::countr_zero(fresh);
        fresh &= fresh - 1;
        out[static_cast<std::size_t>(b)][v] = level;
      }
    };
    if (activated.is_dense()) {
      const auto& mask = activated.dense_mask();
      parallel_for(0, n, [&](std::size_t vi) {
        if (mask[vi]) settle(static_cast<VertexId>(vi));
      });
    } else {
      const auto& verts = activated.sparse_vertices();
      parallel_for(0, verts.size(),
                   [&](std::size_t i) { settle(verts[i]); });
    }
    frontier = std::move(activated);
  }
  return out;
}

}  // namespace pasgal::internal
