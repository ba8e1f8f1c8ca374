// edge_map with direction optimization (Beamer et al., SC'12), as used by the
// GBBS/GAPBS-style baselines and by PASGAL's dense phases.
//
//   update(u, v)       — try to activate v from u (must be atomic; returns
//                        true iff this call activated v)
//   update_seq(u, v)   — same but called without concurrency on v (dense
//                        backward mode scans v's in-edges from one task)
//   cond(v)            — is v still eligible for activation
//
// Sparse ("push") mode maps over the frontier's out-edges and collects newly
// activated vertices. Dense ("pull") mode iterates all eligible vertices and
// scans their in-neighbours. The mode is chosen by the frontier's size +
// out-degree sum against m / kDenseThresholdDen.
//
// Both directions are also exposed as named entry points (edge_map_sparse /
// edge_map_dense) for callers that make their own direction decision — the
// bit-parallel ms_bfs pushes sparse rounds through a hash bag but reuses the
// dense pull here with `pull_exhaustive` set.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "graphs/delta.h"
#include "graphs/graph.h"
#include "parlay/primitives.h"
#include "pasgal/cancel.h"
#include "pasgal/telemetry.h"
#include "pasgal/vertex_subset.h"

namespace pasgal {

namespace internal {

// Updates may optionally take the edge id as a third argument (weighted
// traversals index the weights array with it). In sparse/push mode `e` is
// the edge's global id in g; in dense/pull mode it is the in-edge's id in gt.
template <typename F>
inline bool invoke_update(F& f, VertexId u, VertexId v, EdgeId e) {
  if constexpr (std::is_invocable_v<F&, VertexId, VertexId, EdgeId>) {
    return f(u, v, e);
  } else {
    return f(u, v);
  }
}

}  // namespace internal

struct EdgeMapOptions {
  bool allow_dense = true;
  // Dense when (|F| + outdeg(F)) > m / den  (GAPBS uses m/20).
  EdgeId dense_threshold_den = 20;
  // Cooperative cancellation, checked once at edge_map entry — the round
  // boundary — from the round master. Null disables the check.
  const CancelToken* cancel = nullptr;
  // Dense pull normally stops scanning a vertex's in-edges at the first
  // activation — correct when one hit fully decides the vertex (single-
  // source BFS: the level is the level). Mask-accumulating traversals
  // (ms_bfs: a vertex gathers source bits from *every* in-neighbour in the
  // frontier, and stopping early would assign later arrivals a wrong, larger
  // level) must keep scanning until cond() reports the vertex saturated.
  bool pull_exhaustive = false;
};

// Dense ("pull") direction: iterate all cond()-eligible vertices, scan their
// in-neighbours (gt supplies in-edges; pass g itself for symmetric graphs).
template <typename UpdateSeq, typename Cond>
VertexSubset edge_map_dense(const Graph& g, const Graph& gt,
                            VertexSubset& frontier, UpdateSeq update_seq,
                            Cond cond, const EdgeMapOptions& opt = {},
                            Tracer* stats = nullptr) {
  // Unchecked indexing below (neighbors(), in_frontier[u]) requires in-range
  // targets; un-deep-validated mmap storages are checked once here (a
  // single atomic load afterwards).
  g.ensure_validated();
  gt.ensure_validated();
  if (opt.cancel != nullptr) opt.cancel->check("edge_map round boundary");
  std::size_t n = g.num_vertices();
  if (stats) stats->set_round_kind(RoundKind::kDense);
  frontier.to_dense();
  const auto& in_frontier = frontier.dense_mask();
  std::vector<std::uint8_t> next(n, 0);
  // Update overlay, fetched once per round: the scanned graph's own snapshot
  // (gt carries the flipped, in-edge side — see graphs/delta.h). Sharded
  // opens never carry one (apply_updates rejects them), so the window path
  // below stays overlay-free.
  std::shared_ptr<const DeltaSnapshot> delta_hold =
      gt.storage() != nullptr ? gt.storage()->delta_snapshot() : nullptr;
  const DeltaSnapshot* delta = delta_hold.get();
  // One destination range, in-edge targets supplied by the caller (the whole
  // mapped array in-core, the active shard's window when sharded).
  // Activations are counted as they happen, so the resulting subset's
  // cardinality is known without VertexSubset::dense's O(n) recount — and
  // counted per range, so per-shard sweeps sum to the identical total.
  auto scan_range = [&](std::size_t v_begin, std::size_t v_end,
                        const VertexId* tgt, EdgeId e_base) -> std::size_t {
    return reduce_indexed<std::size_t>(
        v_end - v_begin, 0, std::plus<std::size_t>{},
        [&](std::size_t rel) -> std::size_t {
          VertexId v = static_cast<VertexId>(v_begin + rel);
          if (!cond(v)) return 0;
          std::uint64_t scanned = 0;
          std::size_t hit = 0;
          auto visit = [&](VertexId u, EdgeId e) -> bool {
            ++scanned;
            if (in_frontier[u] &&
                internal::invoke_update(update_seq, u, v, e)) {
              next[v] = 1;
              hit = 1;
              if (!opt.pull_exhaustive) return false;  // one hit decides v
            }
            return cond(v);  // false: saturated, nothing more to gather
          };
          if (delta != nullptr && delta->touches(v)) {
            // Merged scan visits effective in-neighbours in the same
            // ascending order a rebuilt CSR stores them, so activation order
            // (and every downstream pack) matches a from-scratch rebuild.
            delta->scan_effective(v, tgt + (gt.edge_begin(v) - e_base),
                                  gt.edge_begin(v), gt.edge_end(v), visit);
          } else {
            EdgeId e_end = gt.edge_end(v);
            for (EdgeId e = gt.edge_begin(v); e < e_end; ++e) {
              if (!visit(tgt[e - e_base], e)) break;
            }
          }
          if (stats) stats->add_edges(scanned);
          return hit;
        });
  };
  std::size_t activated = 0;
  const auto& window =
      gt.storage() != nullptr ? gt.storage()->shard_window() : nullptr;
  if (window == nullptr) {
    activated = scan_range(0, n, gt.targets().data(), 0);
  } else {
    // Pull scans in-edges, so the sweep follows gt's shard plan: each shard
    // covers a contiguous destination range and its in-edge payload.
    const ShardPlan& plan = window->plan();
    for (std::size_t s = 0; s < plan.size(); ++s) {
      if (opt.cancel != nullptr) opt.cancel->check("shard sweep boundary");
      MappedWindow::ActiveShard shard = window->activate(s);
      activated += scan_range(plan[s].v_begin, plan[s].v_end, shard.targets,
                              shard.e_base);
    }
  }
  if (stats) stats->add_visits(n);
  return VertexSubset::dense(std::move(next), activated);
}

// Sparse ("push") direction: map over the frontier's out-edges, collect
// newly activated vertices via a two-phase pack.
template <typename Update, typename Cond>
VertexSubset edge_map_sparse(const Graph& g, VertexSubset& frontier,
                             Update update, Cond cond,
                             const EdgeMapOptions& opt = {},
                             Tracer* stats = nullptr) {
  g.ensure_validated();
  if (opt.cancel != nullptr) opt.cancel->check("edge_map round boundary");
  std::size_t n = g.num_vertices();
  if (stats) stats->set_round_kind(RoundKind::kSparse);
  frontier.to_sparse();
  const auto& verts = frontier.sparse_vertices();
  // Update overlay, fetched once per round (push walks out-edges, so this is
  // the forward snapshot). Sharded opens never carry one.
  std::shared_ptr<const DeltaSnapshot> delta_hold =
      g.storage() != nullptr ? g.storage()->delta_snapshot() : nullptr;
  const DeltaSnapshot* delta = delta_hold.get();
  // Two-phase pack: count activations per frontier vertex, then fill. With
  // an overlay the scatter slots are sized by *effective* degree — exactly
  // the number of edges the merged scan visits.
  std::size_t k = verts.size();
  std::vector<EdgeId> offsets(k + 1);
  offsets[k] = scan_indexed<EdgeId>(
      k,
      [&](std::size_t i) {
        EdgeId deg = g.out_degree(verts[i]);
        return delta != nullptr ? delta->effective_degree(verts[i], deg) : deg;
      },
      [&](std::size_t i, EdgeId v) { offsets[i] = v; });
  // Process the frontier slice [lo, hi) with the given targets view, writing
  // activations at out[offsets[i] - out_base ..].
  auto push_slice = [&](std::size_t lo, std::size_t hi, const VertexId* tgt,
                        EdgeId e_base, VertexId* out, EdgeId out_base) {
    parallel_for(lo, hi, [&](std::size_t i) {
      VertexId u = verts[i];
      EdgeId base = offsets[i] - out_base;
      std::uint64_t scanned = 0;
      EdgeId slot = 0;
      auto try_push = [&](VertexId v, EdgeId e) -> bool {
        ++scanned;
        if (cond(v) && internal::invoke_update(update, u, v, e)) {
          out[base + slot++] = v;
        }
        return true;
      };
      if (delta != nullptr && delta->touches(u)) {
        delta->scan_effective(u, tgt + (g.edge_begin(u) - e_base),
                              g.edge_begin(u), g.edge_end(u), try_push);
      } else {
        EdgeId e_end = g.edge_end(u);
        for (EdgeId e = g.edge_begin(u); e < e_end; ++e) {
          try_push(tgt[e - e_base], e);
        }
      }
      if (stats) {
        stats->add_edges(scanned);
        stats->add_visits(1);
      }
    });
  };
  const auto& window =
      g.storage() != nullptr ? g.storage()->shard_window() : nullptr;
  if (window == nullptr) {
    std::vector<VertexId> out(offsets[k], kInvalidVertex);
    push_slice(0, k, g.targets().data(), 0, out.data(), 0);
    auto next = filter(std::span<const VertexId>(out),
                       [](VertexId v) { return v != kInvalidVertex; });
    return VertexSubset::sparse(n, std::move(next));
  }
  // Sharded push: the sparse list is sorted (VertexSubset invariant), so
  // the frontier partitions into contiguous per-shard slices found by
  // binary search; shards without frontier vertices are never activated.
  // Each slice gets its own scatter buffer — a slice's out-degree sum is
  // capped by its shard's edge count, so sparse-round scratch stays within
  // the window budget instead of scaling with the whole frontier's
  // out-degree. Slices are packed in frontier order, so the concatenated
  // activation list is identical to the one the single-buffer path packs.
  const ShardPlan& plan = window->plan();
  std::vector<VertexId> next;
  std::vector<VertexId> slice_out;
  std::size_t i = 0;
  while (i < k) {
    std::size_t s = plan.shard_of(verts[i]);
    std::size_t j =
        static_cast<std::size_t>(std::lower_bound(verts.begin() +
                                                      static_cast<std::ptrdiff_t>(i),
                                                  verts.end(),
                                                  plan[s].v_end) -
                                 verts.begin());
    if (opt.cancel != nullptr) opt.cancel->check("shard sweep boundary");
    MappedWindow::ActiveShard shard = window->activate(s);
    slice_out.assign(static_cast<std::size_t>(offsets[j] - offsets[i]),
                     kInvalidVertex);
    push_slice(i, j, shard.targets, shard.e_base, slice_out.data(),
               offsets[i]);
    auto kept = filter(std::span<const VertexId>(slice_out),
                       [](VertexId v) { return v != kInvalidVertex; });
    next.insert(next.end(), kept.begin(), kept.end());
    i = j;
  }
  return VertexSubset::sparse(n, std::move(next));
}

// Direction-optimizing wrapper: `g` supplies out-edges (push); `gt` supplies
// in-edges for the pull direction (pass g itself for symmetric graphs).
template <typename Update, typename UpdateSeq, typename Cond>
VertexSubset edge_map(const Graph& g, const Graph& gt, VertexSubset& frontier,
                      Update update, UpdateSeq update_seq, Cond cond,
                      const EdgeMapOptions& opt = {}, Tracer* stats = nullptr) {
  g.ensure_validated();
  EdgeId frontier_work = frontier.out_degree_sum(g) + frontier.size();
  bool go_dense = opt.allow_dense &&
                  frontier_work > g.num_edges() / opt.dense_threshold_den;
  if (go_dense) {
    return edge_map_dense(g, gt, frontier, update_seq, cond, opt, stats);
  }
  return edge_map_sparse(g, frontier, update, cond, opt, stats);
}

// Convenience overload when the same update works in both modes.
template <typename Update, typename Cond>
VertexSubset edge_map(const Graph& g, const Graph& gt, VertexSubset& frontier,
                      Update update, Cond cond, const EdgeMapOptions& opt = {},
                      Tracer* stats = nullptr) {
  return edge_map(g, gt, frontier, update, update, cond, opt, stats);
}

}  // namespace pasgal
