// Reproduces Table A4 (BFS running times: PASGAL vs GBBS vs GAPBS vs the
// sequential queue baseline) plus the round-count and projected-speedup views
// that substantiate the paper's shape claims on this 1-core substrate
// (see DESIGN.md §2 for the substitution rationale). Every run's full
// telemetry (per-round traces, scheduler counters) lands in BENCH_bfs.json.
#include <cstdio>

#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

namespace {

VertexId max_degree_vertex(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  }
  return best;
}

}  // namespace

int main() {
  Table times({"PASGAL", "GBBS", "GAPBS", "Queue*"});
  Table rounds({"PASGAL", "GBBS", "GAPBS"});
  Table speedup96({"PASGAL", "GBBS", "GAPBS"});
  BenchJson metrics("bfs");

  for (const auto& spec : graph_suite()) {
    Graph g = spec.build();
    Graph gt = spec.directed ? g.transpose() : g;
    const Graph& gt_ref = spec.directed ? gt : g;
    VertexId source = max_degree_vertex(g);

    AlgoOptions opt;
    opt.source = source;
    auto seq = seq_bfs(g, opt);
    auto pasgal = pasgal_bfs(g, gt_ref, opt);
    auto gbbs = gbbs_bfs(g, gt_ref, opt);
    auto gapbs = gapbs_bfs(g, gt_ref, opt);
    if (pasgal.output != seq.output || gbbs.output != seq.output ||
        gapbs.output != seq.output) {
      std::fprintf(stderr, "BFS MISMATCH on %s\n", spec.name.c_str());
      return 1;
    }

    auto record = [&](const char* variant, const auto& report) {
      MetricsDoc doc("bfs", variant, spec.name, g.num_vertices(),
                     g.num_edges());
      doc.set_param("source", std::uint64_t{source});
      doc.add_trial(report.seconds, report.telemetry);
      metrics.add(doc);
    };
    record("seq", seq);
    record("pasgal", pasgal);
    record("gbbs", gbbs);
    record("gapbs", gapbs);

    times.add_row(spec.cls, spec.name,
                  {pasgal.seconds, gbbs.seconds, gapbs.seconds, seq.seconds});
    rounds.add_row(spec.cls, spec.name,
                   {double(pasgal.telemetry.rounds.size()),
                    double(gbbs.telemetry.rounds.size()),
                    double(gapbs.telemetry.rounds.size())});
    Projection proj = calibrate(seq.seconds, seq.telemetry);
    double seq_ns = seq.seconds * 1e9;
    speedup96.add_row(spec.cls, spec.name,
                      {proj.speedup_at(96, pasgal.telemetry, seq_ns),
                       proj.speedup_at(96, gbbs.telemetry, seq_ns),
                       proj.speedup_at(96, gapbs.telemetry, seq_ns)});
    std::fflush(stdout);
  }

  times.print("Table A4: BFS running time " + workers_note(), "seconds");
  rounds.print("BFS global synchronizations (rounds)", "count");
  speedup96.print(
      "BFS projected speedup over sequential at P=96 (cost model, DESIGN.md)",
      "speedup; <1 means slower than sequential");
  return metrics.write() ? 0 : 1;
}
