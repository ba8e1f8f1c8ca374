// Single-source shortest paths (§2.2 "Parallel SSSP").
//
// PASGAL's SSSP is the *stepping algorithm framework* (Dong, Gu, Sun,
// PPoPP'21) instantiated with hash-bag frontiers and VGC:
//   * delta-stepping  — process all entries within `delta` of the current
//     base distance per step;
//   * rho-stepping    — process the `rho` closest entries per step.
// Both are label-correcting: entries carry the tentative distance they were
// enqueued with and stale entries are skipped, so VGC's out-of-order local
// relaxations are safe.
//
// Baselines: sequential Dijkstra (binary heap) and round-synchronous
// frontier Bellman-Ford (the O(D)-rounds baseline).
//
// Edge weights are uint32; distances are uint64 (kInfWeightDist if
// unreachable).
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/cancel.h"
#include "pasgal/error.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

using Dist = std::uint64_t;
inline constexpr Dist kInfWeightDist = static_cast<Dist>(-1);

// Structural preconditions shared by every SSSP variant, run before any
// unchecked indexing: the source must exist, the weight array must cover
// every edge, and (n - 1) * max_weight — the largest distance any simple
// path can reach — must fit below `max_dist`, the algorithm's distance
// ceiling (2^32 - 1 for the stepping framework's packed 32-bit tentative
// distances, kInfWeightDist for the 64-bit baselines). Rejecting on that
// conservative product means no relaxation can overflow mid-run.
// All public SSSP entry points call this and throw the kValidation Error.
Status check_sssp_preconditions(const WeightedGraph<std::uint32_t>& g,
                                VertexId source, Dist max_dist);

std::vector<Dist> dijkstra(const WeightedGraph<std::uint32_t>& g,
                           VertexId source, Tracer* stats = nullptr);

std::vector<Dist> bellman_ford(const WeightedGraph<std::uint32_t>& g,
                               VertexId source, Tracer* stats = nullptr);

// Bellman-Ford through the edge_map choke point (`-a em`): same recurrence
// and same final distances as bellman_ford, but every edge scan goes through
// edge_map_sparse, so sharded (.pgr --shard-mb) opens traverse shard-at-a-
// time with bounded residency. Push-only; needs no transpose.
std::vector<Dist> em_bellman_ford(const WeightedGraph<std::uint32_t>& g,
                                  VertexId source,
                                  const CancelToken* cancel = nullptr,
                                  Tracer* stats = nullptr);

// --- Entry points (algorithms/run_api.cpp) ----------------------------------
// stepping_sssp reads source, sssp_delta_mode (rho-stepping unless set),
// sssp_delta, sssp_rho, vgc.tau (1 disables VGC) and cancel (checked at every
// step boundary); em_bellman_ford reads source and cancel.
RunReport<std::vector<Dist>> dijkstra(const WeightedGraph<std::uint32_t>& g,
                                      const AlgoOptions& opt);
RunReport<std::vector<Dist>> bellman_ford(const WeightedGraph<std::uint32_t>& g,
                                          const AlgoOptions& opt);
RunReport<std::vector<Dist>> em_bellman_ford(
    const WeightedGraph<std::uint32_t>& g, const AlgoOptions& opt);
RunReport<std::vector<Dist>> stepping_sssp(const WeightedGraph<std::uint32_t>& g,
                                           const AlgoOptions& opt);

// Batched-SSSP landmark wrapper over the same batch surface as ms_bfs
// (bfs.h): validates the source list (check_batch_sources, typed kUsage),
// then runs the stepping framework once per source under one shared tracer
// and the shared CancelToken — an expired token unwinds the whole batch with
// kTimeout. Weighted distances have no bit-parallel kernel, so the per-source
// slices carry real wall times and the batch telemetry accumulates every
// run's rounds.
BatchReport<std::vector<Dist>> batch_sssp(const WeightedGraph<std::uint32_t>& g,
                                          const BatchOptions& opt);

namespace internal {

// The stepping framework behind stepping_sssp and batch_sssp (no input
// guard; see catalog::check_inputs).
std::vector<Dist> stepping_sssp(const WeightedGraph<std::uint32_t>& g,
                                const AlgoOptions& opt, Tracer* stats);

}  // namespace internal

}  // namespace pasgal
