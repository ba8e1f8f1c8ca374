// SSSP driver (mirrors the upstream PASGAL per-algorithm executables).
// A weighted `.pgr` input supplies its own weights section (zero-copy with
// the topology); other inputs get deterministic generated weights (uniform
// in [1, max_weight]). -w only applies to generated weights and is rejected
// alongside a weighted file.
//
//   sssp <graph> [-s source | --sources <v0,v1,...|@file>] [-a <variant>]
//        [-w max_weight] [-d delta] [-t tau] [-r repeats] [--serve N]
//        [--validate] [--json-metrics <path>]
//
// `--sources` switches to batched landmark mode: the stepping framework runs
// once per listed source (max 64) under one shared tracer, and the metrics
// document gains a "batch" section. Only the stepping variants batch; the
// other variants are per-query baselines.
//
// Variants and their inputs come from the catalog (algorithms/catalog.h);
// the run path is apps/driver.h. Exit codes: 0 ok / 1 internal / 2 usage /
// 3 bad input / 4 resource.
#include "driver.h"

int main(int argc, char** argv) {
  pasgal::apps::Driver d("sssp");
  d.knob("-w", &d.max_weight, 1, 0xFFFFFFFFLL, "max_weight",
         &d.max_weight_given)
      .knob("-d", &d.aopt.sssp_delta, 1, 1LL << 40, "delta")
      .knob("-t", &d.aopt.vgc.tau, 1, 0xFFFFFFFFLL, "tau");
  return d.main(argc, argv);
}
