// BFS driver (mirrors the upstream PASGAL per-algorithm executables).
//
//   bfs <graph> [-s source | --sources <v0,v1,...|@file>] [-a <variant>]
//       [-t tau] [-r repeats] [--updates <log.plog>] [--serve N]
//       [--validate] [--json-metrics <path>]
//
// `--sources` switches to batched mode: the bit-parallel kernel advances
// every listed source (max 64) through one shared sweep, prints a
// per-source summary, and the metrics document gains a "batch" section.
//
// `--updates` switches to incremental mode: a baseline run of the variant
// that sees through update overlays settles the pristine graph, then each
// batch in the update log is applied as a delta overlay and the distances
// are repaired in place (algorithms/incremental.h) — re-settling only the
// affected vertices. The metrics document gains a "delta" section.
//
// Variants and their inputs come from the catalog (algorithms/catalog.h);
// the run path is apps/driver.h. Exit codes: 0 ok / 1 internal / 2 usage /
// 3 bad input / 4 resource.
#include <algorithm>

#include "driver.h"

using namespace pasgal;

int main(int argc, char** argv) {
  apps::Driver d("bfs");
  d.opts.text("--updates", &d.updates, "updates.plog");
  d.knob("-t", &d.aopt.vgc.tau, 1, 0xFFFFFFFFLL, "tau");
  // The repair runs through the overlay-aware edge_map kernel.
  d.repair_variant = &*std::ranges::find_if(catalog::variants("bfs"),
                                            &catalog::Variant::overlay);
  d.fallback_note = " (churn fallback: full recompute)";
  d.repair = [&d](Graph&, const catalog::Inputs& in, catalog::Output& dist,
                  std::span<const EdgeUpdate> batch) {
    return incremental_bfs(in.g, in.gt, d.aopt.source, batch,
                           std::get<std::vector<std::uint32_t>>(dist));
  };
  return d.main(argc, argv);
}
