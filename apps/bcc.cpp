// BCC driver (mirrors the upstream PASGAL per-algorithm executables).
// The input graph is symmetrized automatically, as in the paper.
//
//   bcc <graph> [-a <variant>] [-r repeats] [--serve N] [--validate]
//       [--json-metrics <path>]
//
// Variants and their inputs come from the catalog (algorithms/catalog.h);
// the run path is apps/driver.h. Exit codes: 0 ok / 1 internal / 2 usage /
// 3 bad input / 4 resource.
#include "driver.h"

int main(int argc, char** argv) {
  return pasgal::apps::Driver("bcc").main(argc, argv);
}
