// Low-diameter decomposition (Miller-Peng-Xu) and LDD-based connectivity —
// the substrate GBBS's connectivity is built on, included both for
// completeness and as the round-count foil to the union-find CC
// (LDD needs O(log n / beta) BFS-like rounds; union-find needs one pass).
//
// ldd(g, beta): partitions V into clusters, each of O(log n / beta) diameter
// w.h.p., such that at most ~beta*m edges cross clusters. Every vertex v
// draws a start delay ~ Exponential(beta); cluster centres wake when their
// delay elapses and grow level-synchronously, claiming unclaimed vertices.
//
// ldd_cc(g): contract clusters and repeat until no edges remain — the
// classic O((n+m) log n)-work, polylog-span parallel connectivity.
#pragma once

#include <vector>

#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

struct LddResult {
  // cluster[v] = centre vertex of v's cluster.
  std::vector<VertexId> cluster;
  std::size_t num_clusters = 0;
  std::size_t rounds = 0;
};

// Default shift rate: clusters of O(log n / 0.2) diameter, ~0.2*m cut edges.
// Much larger values shatter the graph into near-singleton clusters and cost
// many more contraction rounds.
inline constexpr double kLddBeta = 0.2;

LddResult ldd(const Graph& g, double beta = kLddBeta, std::uint64_t seed = 1,
              Tracer* stats = nullptr);

// Connectivity labels (min vertex per component, same contract as
// connected_components) computed by repeated LDD + contraction.
std::vector<VertexId> ldd_cc(const Graph& g, double beta = kLddBeta,
                             std::uint64_t seed = 1, Tracer* stats = nullptr);

// --- Entry point (algorithms/run_api.cpp) -----------------------------------
// Runs with beta = kLddBeta; the delays are seeded from AlgoOptions::scc_seed.
RunReport<std::vector<VertexId>> ldd_cc(const Graph& g, const AlgoOptions& opt);

}  // namespace pasgal
