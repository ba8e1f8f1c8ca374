// Strongly connected components (§2.1 — the paper's worked example).
//
// All variants return a label per vertex; two vertices get equal labels iff
// they are in the same SCC. Label values are algorithm-specific; use
// normalize_scc_labels for cross-algorithm comparison.
//
//  * tarjan_scc    — the sequential baseline: Tarjan's algorithm (iterative,
//                    explicit stack; safe on million-vertex chains).
//  * pasgal_scc    — this paper: trimming + randomized batched pivots, with
//                    reachability searches run as VGC local searches over
//                    hash-bag frontiers (plus dense pull rounds when the
//                    frontier is huge).
//  * gbbs_scc      — identical framework, but reachability in strict
//                    BFS order (tau = 1): the baseline whose O(D)-round
//                    synchronization cost the paper measures.
//  * multistep_scc — Slota et al. (IPDPS'14): trim, FW-BW for the giant SCC,
//                    coloring for the rest, sequential cleanup.
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

using SccLabel = std::uint64_t;

std::vector<SccLabel> tarjan_scc(const Graph& g, Tracer* stats = nullptr);

// --- Entry points (algorithms/run_api.cpp) ----------------------------------
// pasgal_scc reads vgc.tau, dense_threshold_den, use_dense and scc_seed;
// gbbs_scc the same with tau forced to 1; multistep_scc reads
// multistep_cutoff (vertices left when it hands over to sequential Tarjan).
RunReport<std::vector<SccLabel>> tarjan_scc(const Graph& g,
                                            const AlgoOptions& opt);
RunReport<std::vector<SccLabel>> pasgal_scc(const Graph& g, const Graph& gt,
                                            const AlgoOptions& opt);
RunReport<std::vector<SccLabel>> gbbs_scc(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt);
RunReport<std::vector<SccLabel>> multistep_scc(const Graph& g, const Graph& gt,
                                               const AlgoOptions& opt);

// --- Kernels behind the entry points (no input guard) -----------------------
namespace internal {

std::vector<SccLabel> pasgal_scc(const Graph& g, const Graph& gt,
                                 const AlgoOptions& opt, Tracer* stats);
std::vector<SccLabel> gbbs_scc(const Graph& g, const Graph& gt,
                               const AlgoOptions& opt, Tracer* stats);
std::vector<SccLabel> multistep_scc(const Graph& g, const Graph& gt,
                                    const AlgoOptions& opt, Tracer* stats);

}  // namespace internal

// Rewrites labels so each SCC is named by its smallest vertex id; makes
// outputs of different algorithms directly comparable.
std::vector<VertexId> normalize_scc_labels(std::span<const SccLabel> labels);

}  // namespace pasgal
