// Reproduces Figure 1: SCC speedup vs #processors over sequential Tarjan on
// four graphs — two low-diameter (SOC-LJ, WEB-SD) and two large-diameter
// (ROAD-NA, REC). Speedups beyond the physical core count come from the
// calibrated cost model (DESIGN.md §2/§4): the measured work, round count,
// and frontier profile of each run are projected to P cores. The shape claim
// under test: PASGAL keeps scaling on large-diameter graphs; GBBS and
// Multistep flatten (or drop below 1x) because their round counts grow with
// the diameter.
#include <cstdio>

#include "algorithms/scc/scc.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

int main() {
  const std::vector<std::string> picks = {"SOC-LJ", "WEB-SD", "ROAD-NA", "REC"};
  const std::vector<int> processors = {1, 2, 4, 8, 16, 32, 48, 96, 192};

  for (const auto& spec : directed_suite()) {
    bool wanted = false;
    for (const auto& p : picks) wanted |= (spec.name == p);
    if (!wanted) continue;

    Graph g = spec.build();
    Graph gt = g.transpose();

    AlgoOptions opt;
    auto seq = tarjan_scc(g, opt);
    RunTelemetry pasgal = pasgal_scc(g, gt, opt).telemetry;
    RunTelemetry gbbs = gbbs_scc(g, gt, opt).telemetry;
    RunTelemetry multi = multistep_scc(g, gt, opt).telemetry;

    Projection proj = calibrate(seq.seconds, seq.telemetry);
    double seq_ns = seq.seconds * 1e9;

    std::printf("\n=== Figure 1 panel: %s (%s, analogue %s) ===\n",
                spec.name.c_str(), spec.cls.c_str(),
                spec.paper_analogue.c_str());
    std::printf("Tarjan* = 1.0 at every P. Rows: speedup over Tarjan.\n");
    std::printf("%-10s", "P");
    for (int p : processors) std::printf(" %8d", p);
    std::printf("\n");
    auto series = [&](const char* name, const RunTelemetry& t) {
      std::printf("%-10s", name);
      for (int p : processors) {
        std::printf(" %8.3f", proj.speedup_at(p, t, seq_ns));
      }
      std::printf("\n");
    };
    series("PASGAL", pasgal);
    series("GBBS", gbbs);
    series("Multistep", multi);
    std::printf("rounds: PASGAL=%zu GBBS=%zu Multistep=%zu\n",
                pasgal.rounds.size(), gbbs.rounds.size(), multi.rounds.size());
    std::fflush(stdout);
  }
  return 0;
}
