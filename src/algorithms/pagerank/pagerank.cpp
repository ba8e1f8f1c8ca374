#include "algorithms/pagerank/pagerank.h"

#include <cmath>

#include "parlay/primitives.h"
#include "pasgal/edge_map.h"
#include "pasgal/vertex_subset.h"

namespace pasgal {

namespace {

// Shared per-round epilogue: damped combine, dangling-mass redistribution,
// L1 delta. Both kernels run the identical formula so they differ only in
// how the in-edge sums were gathered.
double combine_round(std::size_t n, double damping,
                     const std::vector<double>& prev,
                     const std::vector<double>& sum,
                     const std::vector<double>& inv_out,
                     std::vector<double>& next) {
  // Rank parked on zero-out-degree vertices redistributes uniformly, so the
  // vector keeps summing to 1 instead of leaking mass every round.
  double dangling = reduce_indexed<double>(
      n, 0.0, std::plus<double>{},
      [&](std::size_t u) { return inv_out[u] == 0.0 ? prev[u] : 0.0; });
  double base = (1.0 - damping) / static_cast<double>(n) +
                damping * dangling / static_cast<double>(n);
  parallel_for(0, n,
               [&](std::size_t v) { next[v] = base + damping * sum[v]; });
  return reduce_indexed<double>(n, 0.0, std::plus<double>{}, [&](std::size_t v) {
    return std::fabs(next[v] - prev[v]);
  });
}

std::vector<double> inverse_out_degrees(const Graph& g) {
  std::size_t n = g.num_vertices();
  // Contribution splits over the *effective* out-degree when an update
  // overlay is attached — the base degree would mis-weight patched vertices.
  std::shared_ptr<const DeltaSnapshot> delta_hold =
      g.storage() != nullptr ? g.storage()->delta_snapshot() : nullptr;
  const DeltaSnapshot* delta = delta_hold.get();
  std::vector<double> inv_out(n);
  parallel_for(0, n, [&](std::size_t u) {
    EdgeId d = g.out_degree(static_cast<VertexId>(u));
    if (delta != nullptr) {
      d = delta->effective_degree(static_cast<VertexId>(u), d);
    }
    inv_out[u] = d == 0 ? 0.0 : 1.0 / static_cast<double>(d);
  });
  return inv_out;
}

}  // namespace

namespace internal {

PagerankResult seq_pagerank(const Graph& g, const Graph& gt,
                            const AlgoOptions& opt, Tracer* stats) {
  const std::uint32_t max_iterations = opt.pagerank_iterations;
  const double epsilon = opt.pagerank_epsilon;
  const double damping = opt.pagerank_damping;
  std::size_t n = g.num_vertices();
  PagerankResult result;
  if (n == 0) return result;
  std::vector<double> inv_out = inverse_out_degrees(g);
  std::vector<double> prev(n, 1.0 / static_cast<double>(n));
  std::vector<double> contrib(n), sum(n), next(n);
  // In-edge overlay for the gather (gt carries the flipped snapshot); the
  // merged scan keeps ascending source order, so the FP summation order — and
  // thus the printed ranks — match a from-scratch rebuild exactly.
  std::shared_ptr<const DeltaSnapshot> din_hold =
      gt.storage() != nullptr ? gt.storage()->delta_snapshot() : nullptr;
  const DeltaSnapshot* din = din_hold.get();
  for (std::uint32_t iter = 0; iter < max_iterations; ++iter) {
    if (opt.cancel != nullptr) opt.cancel->check("pagerank round boundary");
    for (std::size_t u = 0; u < n; ++u) contrib[u] = prev[u] * inv_out[u];
    for (std::size_t v = 0; v < n; ++v) {
      double acc = 0;
      VertexId vv = static_cast<VertexId>(v);
      if (din != nullptr && din->touches(vv)) {
        din->scan_effective(vv, gt.neighbors(vv).data(), gt.edge_begin(vv),
                            gt.edge_end(vv), [&](VertexId u, EdgeId) {
                              acc += contrib[u];
                              return true;
                            });
      } else {
        for (VertexId u : gt.neighbors(vv)) {
          acc += contrib[u];
        }
      }
      sum[v] = acc;
    }
    result.delta = combine_round(n, damping, prev, sum, inv_out, next);
    std::swap(prev, next);
    ++result.iterations;
    if (stats) {
      stats->add_edges(gt.num_edges());
      stats->add_visits(n);
      stats->set_round_delta(result.delta);
      stats->end_round(n, RoundKind::kDense);
    }
    if (result.delta < epsilon) break;
  }
  result.rank = std::move(prev);
  return result;
}

PagerankResult pasgal_pagerank(const Graph& g, const Graph& gt,
                               const AlgoOptions& opt, Tracer* stats) {
  const std::uint32_t max_iterations = opt.pagerank_iterations;
  const double epsilon = opt.pagerank_epsilon;
  const double damping = opt.pagerank_damping;
  std::size_t n = g.num_vertices();
  PagerankResult result;
  if (n == 0) return result;
  std::vector<double> inv_out = inverse_out_degrees(g);
  std::vector<double> prev(n, 1.0 / static_cast<double>(n));
  std::vector<double> contrib(n), sum(n), next(n);

  // Every vertex pulls every round: an exhaustive dense frontier. The pull
  // accumulates sum[v] from one task per destination (update_seq contract),
  // in v's in-edge order — the same order sharded sweeps use, since a shard
  // is a contiguous destination range carrying its whole in-edge payload.
  VertexSubset all =
      VertexSubset::dense(std::vector<std::uint8_t>(n, 1), n);
  EdgeMapOptions eopt;
  eopt.cancel = opt.cancel;
  eopt.pull_exhaustive = true;

  for (std::uint32_t iter = 0; iter < max_iterations; ++iter) {
    parallel_for(0, n, [&](std::size_t u) {
      contrib[u] = prev[u] * inv_out[u];
      sum[u] = 0;
    });
    edge_map_dense(
        g, gt, all,
        [&](VertexId u, VertexId v) {
          sum[v] += contrib[u];
          return false;  // no activation semantics; the frontier stays `all`
        },
        [](VertexId) { return true; }, eopt, stats);
    result.delta = combine_round(n, damping, prev, sum, inv_out, next);
    std::swap(prev, next);
    ++result.iterations;
    if (stats) {
      stats->set_round_delta(result.delta);
      stats->end_round(n, RoundKind::kDense);
    }
    if (result.delta < epsilon) break;
  }
  result.rank = std::move(prev);
  return result;
}

}  // namespace internal

}  // namespace pasgal
