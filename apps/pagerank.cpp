// PageRank driver (mirrors the upstream PASGAL per-algorithm executables).
// The pull accumulation runs over the transpose, so a .pgr input needs
// transpose sections (graph_convert --transpose) unless it is a generated
// spec; the pasgal variant works on sharded opens (the dense pull walks the
// transpose's shard plan), seq is in-core only.
//
//   pagerank <graph> [-a <variant>] [-i max_iterations] [--epsilon eps]
//            [--damping d] [--updates <log.plog>] [-r repeats] [--serve N]
//            [--validate] [--json-metrics <path>]
//
// The result line prints with %.17g (round-trip precision) so the identity
// gates in bench/check.sh can diff ranks byte-for-byte across load modes,
// worker counts, and sharded vs in-core runs.
//
// `--updates` replays an update log onto the graph as a delta overlay
// before ranking: both kernels gather through the overlay in the same
// ascending order a rebuilt CSR would use, so the %.17g result line is
// byte-identical to running on the folded graph. The metrics document
// gains a "delta" section.
//
// Variants and their inputs come from the catalog (algorithms/catalog.h);
// the run path is apps/driver.h. Exit codes: 0 ok / 1 internal / 2 usage /
// 3 bad input / 4 resource.
#include "driver.h"

int main(int argc, char** argv) {
  pasgal::apps::Driver d("pagerank");
  d.knob("-i", &d.aopt.pagerank_iterations, 1, 1000000, "max_iterations")
      .real_knob("--epsilon", &d.aopt.pagerank_epsilon, 0.0, 1.0, "eps",
                 "epsilon")
      .real_knob("--damping", &d.aopt.pagerank_damping, 0.0, 1.0, "d",
                 "damping");
  d.opts.text("--updates", &d.updates, "updates.plog");
  return d.main(argc, argv);
}
