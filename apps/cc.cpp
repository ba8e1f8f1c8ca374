// Connected-components driver (mirrors the upstream PASGAL per-algorithm
// executables). The input graph is symmetrized automatically so all
// variants agree: label propagation only pushes labels along out-edges, so
// on a directed input it would not match union-find connectivity.
//
//   cc <graph> [-a <variant>] [--updates <log.plog>] [-r repeats]
//      [--serve N] [--validate] [--json-metrics <path>]
//
// `--updates` switches to incremental mode (default variant only): baseline
// labels from the pristine graph, then each batch in the update log is
// applied as a delta overlay and the labels are repaired in place
// (algorithms/incremental.h — union-find over labels for insert-only
// batches, full recompute once a delete splits is possible). The metrics
// document gains a "delta" section.
//
// Variants and their inputs come from the catalog (algorithms/catalog.h);
// the run path is apps/driver.h. Exit codes: 0 ok / 1 internal / 2 usage /
// 3 bad input / 4 resource.
#include "driver.h"

using namespace pasgal;

int main(int argc, char** argv) {
  apps::Driver d("cc");
  d.opts.text("--updates", &d.updates, "updates.plog");
  // incremental_cc repairs union-find labels: the default variant's. It
  // symmetrizes through the overlay on the directed base itself.
  d.repair_variant = &catalog::variants("cc").front();
  d.fallback_note = " (delete fallback: full recompute)";
  d.repair = [](Graph& base, const catalog::Inputs&, catalog::Output& label,
                std::span<const EdgeUpdate> batch) {
    return incremental_cc(base, batch,
                          std::get<std::vector<VertexId>>(label));
  };
  return d.main(argc, argv);
}
