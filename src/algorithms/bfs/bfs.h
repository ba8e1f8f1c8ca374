// Breadth-first search: PASGAL's VGC algorithm and the paper's baselines.
//
// All variants return the vector of hop distances from `source`
// (kInfDist for unreachable vertices), so they are directly comparable.
//
//  * seq_bfs     — the paper's sequential baseline: queue-based BFS.
//  * gbbs_bfs    — GBBS-style level-synchronous edge_map BFS with
//                  sparse/dense direction optimization.
//  * gapbs_bfs   — GAPBS-style direction-optimizing BFS (Beamer's alpha/beta
//                  hysteresis controller, fixed at GAPBS's 15/18).
//  * pasgal_bfs  — this paper: hash-bag frontiers, vertical granularity
//                  control with multi-frontier (2^i) distance buckets, and
//                  direction optimization on clean dense levels (§2.2).
//  * ms_bfs      — bit-parallel multi-source BFS (Then et al., VLDB'14 style):
//                  one shared frontier sweep advances up to 64 sources, one
//                  per bit of a per-vertex machine word.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/cancel.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

inline constexpr std::uint32_t kInfDist = static_cast<std::uint32_t>(-1);

// --- Knob-free kernels (also the oracles tests and benches compare with) ---
std::vector<std::uint32_t> seq_bfs(const Graph& g, VertexId source,
                                   Tracer* stats = nullptr);

// `gt` is the transpose (pass g itself for symmetric graphs); needed for the
// dense (pull) direction. `cancel`, when non-null, is checked at every
// level boundary (throws kTimeout on expiry).
std::vector<std::uint32_t> gbbs_bfs(const Graph& g, const Graph& gt,
                                    VertexId source, Tracer* stats = nullptr,
                                    const CancelToken* cancel = nullptr);

// --- Entry points (algorithms/run_api.cpp) ----------------------------------
// Source, tuning knobs and tracer come from AlgoOptions; the result bundles
// the distances with wall time and the run's aggregated telemetry.
//   gapbs_bfs  reads source.
//   pasgal_bfs reads source, vgc.tau, dense_threshold_den, use_dense, cancel.
RunReport<std::vector<std::uint32_t>> seq_bfs(const Graph& g,
                                              const AlgoOptions& opt);
RunReport<std::vector<std::uint32_t>> gbbs_bfs(const Graph& g, const Graph& gt,
                                               const AlgoOptions& opt);
RunReport<std::vector<std::uint32_t>> gapbs_bfs(const Graph& g, const Graph& gt,
                                                const AlgoOptions& opt);
RunReport<std::vector<std::uint32_t>> pasgal_bfs(const Graph& g,
                                                 const Graph& gt,
                                                 const AlgoOptions& opt);

// Bit-parallel multi-source BFS. Each vertex carries a 64-bit `seen` mask
// (sources that have reached it) and a `visit` mask (sources that reached it
// last round). One level-synchronous sweep advances the whole batch: sparse
// rounds push `visit` masks along out-edges, OR-ing new bits into the
// targets and collecting first-touched vertices through a hash bag; dense
// rounds pull every unsaturated vertex's in-edges via edge_map_dense
// (pull_exhaustive — the AND-NOT against `seen` must gather bits from every
// in-neighbour, not stop at the first hit). Reads dense_threshold_den,
// use_dense and cancel from `opt.algo`.
//
// Validates the source list (check_batch_sources, typed kUsage), runs the
// kernel once, and slices the result into one RunReport per source, in input
// order — byte-identical to running the single-source variants once per
// source (amortized seconds; the shared sweep's telemetry is batch-level —
// see BatchReport in options.h).
BatchReport<std::vector<std::uint32_t>> ms_bfs(const Graph& g, const Graph& gt,
                                               const BatchOptions& opt);

// --- Kernels behind the entry points ----------------------------------------
// No input guard: callers run catalog::check_inputs first (tests reach them
// directly only to exercise what the guard would otherwise catch).
namespace internal {

std::vector<std::uint32_t> gapbs_bfs(const Graph& g, const Graph& gt,
                                     const AlgoOptions& opt, Tracer* stats);
std::vector<std::uint32_t> pasgal_bfs(const Graph& g, const Graph& gt,
                                      const AlgoOptions& opt, Tracer* stats);
// One distance array per source, in the order of `opt.sources`.
std::vector<std::vector<std::uint32_t>> ms_bfs(const Graph& g, const Graph& gt,
                                               const BatchOptions& opt,
                                               Tracer* stats);

}  // namespace internal

}  // namespace pasgal
