// Triangle-counting driver (mirrors the upstream PASGAL per-algorithm
// executables). The input graph is symmetrized automatically (triangles are
// defined on the undirected graph); both variants need whole-graph adjacency
// access, so sharded opens fail with a typed usage error.
//
//   tc <graph> [-a <variant>] [-r repeats] [--serve N] [--validate]
//      [--json-metrics <path>]
//
// Variants and their inputs come from the catalog (algorithms/catalog.h);
// the run path is apps/driver.h. Exit codes: 0 ok / 1 internal / 2 usage /
// 3 bad input / 4 resource.
#include "driver.h"

int main(int argc, char** argv) {
  return pasgal::apps::Driver("tc").main(argc, argv);
}
