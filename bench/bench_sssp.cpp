// SSSP benchmark (§2.2: the paper describes its stepping+VGC SSSP but the
// brief announcement has no SSSP table; we table it in the same format):
// rho-stepping and delta-stepping (both with VGC) vs parallel Bellman-Ford
// vs sequential Dijkstra, on the weighted suite. Per-run telemetry lands in
// BENCH_sssp.json.
#include <cstdio>

#include "algorithms/sssp/sssp.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;

int main() {
  Table times({"rho-step", "delta-step", "BellmanFord", "Dijkstra*"});
  Table rounds({"rho-step", "delta-step", "BellmanFord"});
  Table speedup96({"rho-step", "delta-step", "BellmanFord"});
  BenchJson metrics("sssp");

  for (const auto& spec : graph_suite()) {
    if (spec.name == "CHAIN") continue;  // weighted chain: Bellman-Ford needs
                                         // O(n) rounds and hours of bag churn
    Graph base = spec.build();
    auto g = gen::add_weights(base, 1000, 42);
    VertexId source = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (base.out_degree(v) > base.out_degree(source)) source = v;
    }

    AlgoOptions opt;
    opt.source = source;
    auto seq = dijkstra(g, opt);
    auto rho = stepping_sssp(g, opt);
    AlgoOptions delta_opt = opt;
    delta_opt.sssp_delta_mode = true;
    delta_opt.sssp_delta = 256;
    auto delta = stepping_sssp(g, delta_opt);
    auto bf = bellman_ford(g, opt);
    if (rho.output != seq.output || delta.output != seq.output ||
        bf.output != seq.output) {
      std::fprintf(stderr, "SSSP MISMATCH on %s\n", spec.name.c_str());
      return 1;
    }

    auto record = [&](const char* variant, const auto& report,
                      std::uint64_t delta_param) {
      MetricsDoc doc("sssp", variant, spec.name, g.num_vertices(),
                     g.num_edges());
      doc.set_param("source", std::uint64_t{source});
      if (delta_param) doc.set_param("delta", delta_param);
      doc.add_trial(report.seconds, report.telemetry);
      metrics.add(doc);
    };
    record("seq", seq, 0);
    record("rho", rho, 0);
    record("delta", delta, delta_opt.sssp_delta);
    record("bf", bf, 0);

    times.add_row(spec.cls, spec.name,
                  {rho.seconds, delta.seconds, bf.seconds, seq.seconds});
    rounds.add_row(spec.cls, spec.name,
                   {double(rho.telemetry.rounds.size()),
                    double(delta.telemetry.rounds.size()),
                    double(bf.telemetry.rounds.size())});
    Projection proj = calibrate(seq.seconds, seq.telemetry);
    double ns = seq.seconds * 1e9;
    speedup96.add_row(spec.cls, spec.name,
                      {proj.speedup_at(96, rho.telemetry, ns),
                       proj.speedup_at(96, delta.telemetry, ns),
                       proj.speedup_at(96, bf.telemetry, ns)});
    std::fflush(stdout);
  }

  times.print("SSSP running time " + workers_note(), "seconds");
  rounds.print("SSSP global synchronizations (rounds)", "count");
  speedup96.print("SSSP projected speedup over Dijkstra at P=96", "speedup");
  return metrics.write() ? 0 : 1;
}
