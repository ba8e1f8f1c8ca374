// Reproduces Table A2 (BCC running times: PASGAL's FAST-BCC vs GBBS (BFS
// spanning tree) vs Tarjan-Vishkin vs sequential Hopcroft-Tarjan) plus
// rounds, projected speedups, and the auxiliary-space comparison that makes
// Tarjan-Vishkin "o.o.m." in the paper. Graphs are symmetrized, as in the
// paper ("we symmetrize directed graphs for testing BCC"). Per-run telemetry
// (including FAST-BCC's phase breakdown) lands in BENCH_bcc.json.
#include <cstdio>

#include "algorithms/bcc/bcc.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

int main() {
  Table times({"PASGAL", "GBBS", "Tarjan-Vishkin", "Hopcroft-Tarjan*"});
  Table rounds({"PASGAL", "GBBS", "Tarjan-Vishkin"});
  Table speedup96({"PASGAL", "GBBS", "Tarjan-Vishkin"});
  Table aux_nodes({"PASGAL(skeleton n)", "TV(aux nodes m/2)"});
  BenchJson metrics("bcc");

  for (const auto& spec : graph_suite()) {
    Graph g0 = spec.build();
    Graph g = spec.directed ? g0.symmetrize() : g0;

    AlgoOptions opt;
    auto seq = hopcroft_tarjan_bcc(g, opt);
    auto fast = fast_bcc(g, opt);
    auto gbbs = gbbs_bcc(g, opt);
    auto tv = tarjan_vishkin_bcc(g, opt);

    auto want = normalize_bcc_labels(seq.output.edge_label);
    if (normalize_bcc_labels(fast.output.edge_label) != want ||
        normalize_bcc_labels(gbbs.output.edge_label) != want ||
        normalize_bcc_labels(tv.output.edge_label) != want) {
      std::fprintf(stderr, "BCC MISMATCH on %s\n", spec.name.c_str());
      return 1;
    }

    auto record = [&](const char* variant, const auto& report) {
      MetricsDoc doc("bcc", variant, spec.name, g.num_vertices(),
                     g.num_edges());
      doc.add_trial(report.seconds, report.telemetry);
      metrics.add(doc);
    };
    record("seq", seq);
    record("pasgal", fast);
    record("gbbs", gbbs);
    record("tv", tv);

    times.add_row(spec.cls, spec.name,
                  {fast.seconds, gbbs.seconds, tv.seconds, seq.seconds});
    rounds.add_row(spec.cls, spec.name,
                   {double(fast.telemetry.rounds.size()),
                    double(gbbs.telemetry.rounds.size()),
                    double(tv.telemetry.rounds.size())});
    Projection proj = calibrate(seq.seconds, seq.telemetry);
    double seq_ns = seq.seconds * 1e9;
    speedup96.add_row(spec.cls, spec.name,
                      {proj.speedup_at(96, fast.telemetry, seq_ns),
                       proj.speedup_at(96, gbbs.telemetry, seq_ns),
                       proj.speedup_at(96, tv.telemetry, seq_ns)});
    // Auxiliary structure sizes: FAST-BCC's skeleton has at most n vertices;
    // Tarjan-Vishkin materializes one auxiliary node per undirected edge.
    aux_nodes.add_row(spec.cls, spec.name,
                      {double(g.num_vertices()), double(g.num_edges() / 2)});
    std::fflush(stdout);
  }

  times.print("Table A2: BCC running time " + workers_note(), "seconds");
  rounds.print("BCC global synchronizations (rounds)", "count");
  speedup96.print(
      "BCC projected speedup over sequential Hopcroft-Tarjan at P=96",
      "speedup; <1 means slower than sequential");
  aux_nodes.print(
      "BCC auxiliary-graph size (the paper's o.o.m. column for TV)",
      "node count; TV is O(m), FAST-BCC is O(n)");
  return metrics.write() ? 0 : 1;
}
