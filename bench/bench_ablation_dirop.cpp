// Ablation: direction optimization on/off in PASGAL BFS (§2.2 "we also use
// the direction optimization to improve performance"). Expected shape: it
// matters on low-diameter power-law graphs (SOC-LJ) where frontiers explode,
// and is irrelevant on large-diameter graphs (ROAD-NA) whose frontiers never
// reach the density threshold.
#include <cstdio>

#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

int main() {
  for (const auto& spec : graph_suite()) {
    if (spec.name != "SOC-LJ" && spec.name != "ROAD-NA") continue;
    Graph g = spec.build();
    Graph gt = spec.directed ? g.transpose() : g;
    VertexId source = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.out_degree(v) > g.out_degree(source)) source = v;
    }

    std::printf("\n=== direction optimization ablation on %s ===\n",
                spec.name.c_str());
    std::printf("%-12s %12s %10s %14s\n", "dense mode", "time(s)", "rounds",
                "edges scanned");
    for (bool use_dense : {true, false}) {
      AlgoOptions opt;
      opt.source = source;
      opt.use_dense = use_dense;
      auto r = pasgal_bfs(g, gt, opt);
      std::printf("%-12s %12.4f %10zu %14llu\n", use_dense ? "on" : "off",
                  r.seconds, r.telemetry.rounds.size(),
                  static_cast<unsigned long long>(r.telemetry.edges_scanned));
    }
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape: on SOC-LJ the dense (pull) rounds cut edges scanned\n"
      "sharply (the superlinear-speedup effect in the paper's BFS table); on\n"
      "ROAD-NA the effect is marginal either way — the wavefront only\n"
      "occasionally crosses the density threshold, so direction optimization\n"
      "neither helps nor hurts much on large-diameter graphs.\n");
  return 0;
}
