// PageRank — the first of the four standard serving workloads promoted to a
// full vertical (driver, server verb, metrics, bench): iterative dense pull
// over the transpose with per-round L1-delta convergence.
//
//  * seq_pagerank    — textbook power iteration, one thread; the reference
//                      the parallel kernel is compared against in tests.
//  * pasgal_pagerank — dense edge_map pull (pull_exhaustive: every vertex
//                      accumulates from ALL in-neighbours each round). Each
//                      destination's in-edges are summed sequentially by one
//                      task and the convergence reduction uses the fixed
//                      block tree in parlay/primitives.h, so ranks are
//                      byte-identical across worker counts AND across
//                      sharded vs in-core execution (a shard covers a
//                      contiguous destination range with its whole in-edge
//                      payload, so no per-vertex summation order changes).
//
// Ranks follow the damped model: rank'(v) = (1-d)/n + d * (sum over in-
// neighbours u of rank(u)/outdeg(u) + dangling_mass/n), where dangling_mass
// is the rank held by zero-out-degree vertices (redistributed uniformly so
// the ranks keep summing to 1). Iteration stops when the L1 delta between
// consecutive rank vectors drops below epsilon, or after the iteration cap.
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

struct PagerankResult {
  std::vector<double> rank;     // sums to 1 (within rounding)
  std::uint32_t iterations = 0; // rounds actually executed
  double delta = 0;             // L1 delta of the final round

  bool operator==(const PagerankResult&) const = default;
};

// --- Entry points (algorithms/run_api.cpp) ----------------------------------
// Both read pagerank_iterations (round cap), pagerank_epsilon (L1
// convergence threshold), pagerank_damping and cancel (checked at every round
// boundary and, via edge_map, at every shard sweep boundary; expiry unwinds
// with kTimeout).
//   seq_pagerank    — sequential power iteration over explicit in-edges
//                     (gt). In-core only.
//   pasgal_pagerank — parallel dense pull through edge_map (g supplies
//                     out-degrees, gt supplies in-edges). Works on sharded
//                     opens: the pull walks gt's shard plan.
RunReport<PagerankResult> seq_pagerank(const Graph& g, const Graph& gt,
                                       const AlgoOptions& opt);
RunReport<PagerankResult> pasgal_pagerank(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt);

// --- Kernels behind the entry points (no input guard) -----------------------
namespace internal {

PagerankResult seq_pagerank(const Graph& g, const Graph& gt,
                            const AlgoOptions& opt, Tracer* stats);
PagerankResult pasgal_pagerank(const Graph& g, const Graph& gt,
                               const AlgoOptions& opt, Tracer* stats);

}  // namespace internal

}  // namespace pasgal
