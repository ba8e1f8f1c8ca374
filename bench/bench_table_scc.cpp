// Reproduces Table A3 (SCC running times: PASGAL vs GBBS vs Multistep vs
// sequential Tarjan) plus rounds and projected speedups. Directed graphs
// only, as in the paper ("SCC does not apply to undirected graphs").
// Per-run telemetry (round traces, phase breakdowns) lands in BENCH_scc.json.
#include <cstdio>

#include "algorithms/scc/scc.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

int main() {
  Table times({"PASGAL", "GBBS", "Multistep", "Tarjan*"});
  Table rounds({"PASGAL", "GBBS", "Multistep"});
  Table speedup96({"PASGAL", "GBBS", "Multistep"});
  BenchJson metrics("scc");

  for (const auto& spec : directed_suite()) {
    Graph g = spec.build();
    Graph gt = g.transpose();

    AlgoOptions opt;
    auto seq = tarjan_scc(g, opt);
    auto pasgal = pasgal_scc(g, gt, opt);
    auto gbbs = gbbs_scc(g, gt, opt);
    auto multi = multistep_scc(g, gt, opt);

    auto want = normalize_scc_labels(seq.output);
    if (normalize_scc_labels(pasgal.output) != want ||
        normalize_scc_labels(gbbs.output) != want ||
        normalize_scc_labels(multi.output) != want) {
      std::fprintf(stderr, "SCC MISMATCH on %s\n", spec.name.c_str());
      return 1;
    }

    auto record = [&](const char* variant, const auto& report) {
      MetricsDoc doc("scc", variant, spec.name, g.num_vertices(),
                     g.num_edges());
      doc.add_trial(report.seconds, report.telemetry);
      metrics.add(doc);
    };
    record("seq", seq);
    record("pasgal", pasgal);
    record("gbbs", gbbs);
    record("multistep", multi);

    times.add_row(spec.cls, spec.name,
                  {pasgal.seconds, gbbs.seconds, multi.seconds, seq.seconds});
    rounds.add_row(spec.cls, spec.name,
                   {double(pasgal.telemetry.rounds.size()),
                    double(gbbs.telemetry.rounds.size()),
                    double(multi.telemetry.rounds.size())});
    Projection proj = calibrate(seq.seconds, seq.telemetry);
    double seq_ns = seq.seconds * 1e9;
    speedup96.add_row(spec.cls, spec.name,
                      {proj.speedup_at(96, pasgal.telemetry, seq_ns),
                       proj.speedup_at(96, gbbs.telemetry, seq_ns),
                       proj.speedup_at(96, multi.telemetry, seq_ns)});
    std::fflush(stdout);
  }

  times.print("Table A3: SCC running time " + workers_note(), "seconds");
  rounds.print("SCC global synchronizations (rounds)", "count");
  speedup96.print(
      "SCC projected speedup over sequential Tarjan at P=96 (cost model)",
      "speedup; <1 means slower than sequential");
  return metrics.write() ? 0 : 1;
}
