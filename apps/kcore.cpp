// k-core (coreness) driver (mirrors the upstream PASGAL per-algorithm
// executables). The input graph is symmetrized automatically: coreness is
// defined on undirected graphs.
//
//   kcore <graph> [-a <variant>] [-t tau] [-r repeats] [--serve N]
//         [--validate] [--json-metrics <path>]
//
// Variants and their inputs come from the catalog (algorithms/catalog.h);
// the run path is apps/driver.h. Exit codes: 0 ok / 1 internal / 2 usage /
// 3 bad input / 4 resource.
#include "driver.h"

int main(int argc, char** argv) {
  pasgal::apps::Driver d("kcore");
  d.knob("-t", &d.aopt.vgc.tau, 1, 0xFFFFFFFFLL, "tau");
  return d.main(argc, argv);
}
