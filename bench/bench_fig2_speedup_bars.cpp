// Reproduces Figure 2 ("speedup of parallel algorithms over the standard
// sequential algorithm", log-scale bars, one panel per problem): for BFS,
// SCC and BCC on every suite graph, the projected speedup of each parallel
// implementation over its sequential baseline at P=192 (the paper's
// 192-hyperthread configuration), from the calibrated cost model.
// Bars below 1.0 mean the parallel algorithm loses to sequential — the
// paper's headline observation for the baselines on large-diameter graphs.
#include <cstdio>

#include "algorithms/bcc/bcc.h"
#include "algorithms/scc/scc.h"
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

constexpr int kP = 192;

// Projected speedups at P = kP of three parallel runs over the sequential
// baseline `seq`, calibrated on it.
template <typename T>
std::vector<double> speedups(const RunReport<T>& seq, const RunReport<T>& a,
                             const RunReport<T>& b, const RunReport<T>& c) {
  Projection proj = calibrate(seq.seconds, seq.telemetry);
  double ns = seq.seconds * 1e9;
  return {proj.speedup_at(kP, a.telemetry, ns),
          proj.speedup_at(kP, b.telemetry, ns),
          proj.speedup_at(kP, c.telemetry, ns)};
}

}  // namespace

int main() {
  Table bfs_bars({"PASGAL", "GBBS", "GAPBS"});
  Table scc_bars({"PASGAL", "GBBS", "Multistep"});
  Table bcc_bars({"PASGAL", "GBBS", "Tarjan-Vishkin"});

  for (const auto& spec : graph_suite()) {
    Graph g = spec.build();
    Graph gt = spec.directed ? g.transpose() : Graph();
    const Graph& gt_ref = spec.directed ? gt : g;

    // --- BFS panel.
    {
      AlgoOptions opt;
      opt.source = max_degree_vertex(g);
      auto seq = seq_bfs(g, opt);
      auto pasgal = pasgal_bfs(g, gt_ref, opt);
      auto gbbs = gbbs_bfs(g, gt_ref, opt);
      auto gapbs = gapbs_bfs(g, gt_ref, opt);
      bfs_bars.add_row(spec.cls, spec.name, speedups(seq, pasgal, gbbs, gapbs));
    }
    // --- SCC panel (directed only, as in the paper).
    if (spec.directed) {
      AlgoOptions opt;
      auto seq = tarjan_scc(g, opt);
      auto pasgal = pasgal_scc(g, gt, opt);
      auto gbbs = gbbs_scc(g, gt, opt);
      auto multistep = multistep_scc(g, gt, opt);
      scc_bars.add_row(spec.cls, spec.name,
                       speedups(seq, pasgal, gbbs, multistep));
    }
    // --- BCC panel (symmetrized).
    {
      Graph sym = spec.directed ? g.symmetrize() : g;
      AlgoOptions opt;
      auto seq = hopcroft_tarjan_bcc(sym, opt);
      auto pasgal = fast_bcc(sym, opt);
      auto gbbs = gbbs_bcc(sym, opt);
      auto tv = tarjan_vishkin_bcc(sym, opt);
      bcc_bars.add_row(spec.cls, spec.name, speedups(seq, pasgal, gbbs, tv));
    }
    std::fflush(stdout);
  }

  bfs_bars.print("Figure 2 / BFS: projected speedup over queue BFS at P=192",
                 "speedup (log-scale bars in the paper); <1 = slower than seq");
  scc_bars.print("Figure 2 / SCC: projected speedup over Tarjan at P=192",
                 "speedup; <1 = slower than seq");
  bcc_bars.print(
      "Figure 2 / BCC: projected speedup over Hopcroft-Tarjan at P=192",
      "speedup; <1 = slower than seq");
  return 0;
}
