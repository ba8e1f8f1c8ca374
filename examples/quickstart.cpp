// Quickstart: build a graph, run the core PASGAL algorithms, inspect stats.
//
//   $ ./examples/quickstart [n]
//
// Demonstrates the public API end to end: generators, BFS, connectivity,
// SCC, SSSP, and the per-run telemetry (rounds / edges scanned) that every
// algorithm reports. Each algorithm takes the graph(s) and one AlgoOptions
// (source vertex, tuning knobs) and returns a RunReport: the output, the
// wall time, and the run's telemetry.
#include <cstdio>
#include <cstdlib>

#include "algorithms/bfs/bfs.h"
#include "algorithms/cc/cc.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "graphs/generators.h"

using namespace pasgal;

int main(int argc, char** argv) {
  std::size_t side = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 300;

  // A road-network-like directed graph: side x side lattice, 85% of streets
  // two-way. This is the graph class PASGAL is designed to be fast on.
  Graph g = gen::road_grid(side, side, 0.85, 1);
  Graph gt = g.transpose();
  std::printf("graph: %zu vertices, %zu directed edges\n", g.num_vertices(),
              g.num_edges());

  // --- BFS with vertical granularity control ------------------------------
  AlgoOptions opt;  // source 0, default knobs
  auto bfs = pasgal_bfs(g, gt, opt);
  std::uint64_t reached = 0, max_d = 0;
  for (auto d : bfs.output) {
    if (d != kInfDist) {
      ++reached;
      max_d = std::max<std::uint64_t>(max_d, d);
    }
  }
  std::printf("BFS:  reached %llu vertices, eccentricity %llu, "
              "%llu rounds (vs ~%llu for level-synchronous BFS)\n",
              (unsigned long long)reached, (unsigned long long)max_d,
              (unsigned long long)bfs.telemetry.rounds.size(),
              (unsigned long long)max_d);

  // --- connectivity (treating edges as undirected) -------------------------
  auto cc = connected_components(g, opt).output;
  std::printf("CC:   %zu weakly-connected components, spanning forest of %zu edges\n",
              cc.num_components, cc.forest.size());

  // --- strongly connected components ---------------------------------------
  auto scc = pasgal_scc(g, gt, opt);
  auto norm = normalize_scc_labels(scc.output);
  std::size_t giant = 0;
  {
    std::vector<std::size_t> count(g.num_vertices(), 0);
    for (auto r : norm) giant = std::max(giant, ++count[r]);
  }
  std::printf("SCC:  largest strongly connected component has %zu of %zu "
              "vertices (%llu rounds)\n",
              giant, g.num_vertices(),
              (unsigned long long)scc.telemetry.rounds.size());

  // --- shortest paths -------------------------------------------------------
  auto wg = gen::add_weights(g, /*max_weight=*/100, 2);
  auto sp = stepping_sssp(wg, opt);  // rho-stepping by default
  Dist far = 0;
  for (auto d : sp.output) {
    if (d != kInfWeightDist) far = std::max(far, d);
  }
  std::printf("SSSP: farthest reachable vertex at weighted distance %llu\n",
              (unsigned long long)far);
  return 0;
}
