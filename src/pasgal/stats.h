// Legacy shim: `RunStats` is now an alias for the full telemetry recorder
// (pasgal/telemetry.h), which keeps the original interface — add_edges,
// add_visits, end_round, rounds(), frontier_sizes(), max_frontier() — so
// existing call sites and tests compile unchanged while gaining round traces,
// depth histograms, and scheduler counters for free.
#pragma once

#include "pasgal/telemetry.h"

namespace pasgal {

using RunStats = Tracer;

}  // namespace pasgal
