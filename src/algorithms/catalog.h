// The variant catalog: one row per runnable algorithm variant, and the one
// place that knows the variant names.
//
// A row says which family the variant belongs to, what it is called on the
// command line (`-a`) and in the daemon protocol (`algo=`), which graph shape
// it reads, whether it needs whole-graph adjacency access and whether it sees
// through an update overlay, whether pasgal_serve offers it, and how to run
// it through the AlgoOptions/RunReport entry points. Each family adds the
// formatter for its result line and result params.
//
// Everything that runs an algorithm by name reads this table: the eight
// drivers (`-a` sets, defaults, result lines), pasgal_serve (served `algo=`
// sets, resolved before any I/O), the run_api guards (check_inputs),
// validate_metrics (known families), and `bench_tables` (its rows, columns,
// oracle cross-checks and BENCH_<family>.json records). A new variant is one
// row.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "algorithms/bcc/bcc.h"
#include "algorithms/pagerank/pagerank.h"
#include "graphs/graph.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal::catalog {

// The graph shape a variant reads.
enum class Input {
  kDirected,     // the graph as opened
  kTransposed,   // the graph plus its transpose
  kSymmetrized,  // the undirected (symmetrized) graph
  kWeighted,     // the graph with its edge weights
};

// A row's prepared inputs (see prepare()). `g` is always set: the graph as
// opened, its symmetrized form, or the weighted graph's topology.
struct Inputs {
  Graph g;
  Graph gt;                          // kTransposed
  WeightedGraph<std::uint32_t> wg;   // kWeighted
};

// One run's output, whichever family produced it.
//   vector<uint32_t>: bfs distances, cc labels, coreness
//   vector<uint64_t>: sssp distances, scc labels
//   uint64_t:         triangle count
using Output = std::variant<std::vector<std::uint32_t>,
                            std::vector<std::uint64_t>, BccResult,
                            PagerankResult, std::uint64_t>;

struct Run {
  double seconds = 0;
  RunTelemetry telemetry;
  std::vector<Output> outputs;  // one per source for a batch, else one
};

struct Family {
  const char* name;    // driver, metrics "algo" and daemon verb
  bool single_source;  // takes a source vertex (and a batch of sources)
  // The result line for one output, e.g. "reached 9 vertices, eccentricity
  // 8". Reads the prepared inputs (bcc counts articulation points on them).
  std::string (*result_line)(const Output&, const Inputs&);
  // Params the result adds to a metrics document; null when there are none.
  void (*result_params)(const Output&, MetricsDoc&);
  // True when two outputs are the same answer: equal (bfs, sssp, kcore, tc),
  // the same partition (scc, cc; bcc: of the edges, and the same count), or
  // the same iteration count and ranks within L1 1e-9 (pagerank).
  bool (*agrees)(const Output&, const Output&);
};

// Bits of Variant::served.
inline constexpr unsigned kServedSingle = 1;
inline constexpr unsigned kServedBatch = 2;

struct Variant {
  const Family* family;
  const char* name;   // `-a` / `algo=` value
  const char* label;  // names the variant in guard errors
  Input input;
  bool in_core;       // needs whole-graph adjacency: rejects sharded opens
  bool overlay;       // sees through a pending update overlay
  unsigned served;    // kServedSingle | kServedBatch bits
  Run (*run)(const Inputs&, const AlgoOptions&) = nullptr;  // null: batch only
  Run (*run_batch)(const Inputs&, const BatchOptions&) = nullptr;  // no batch
};

// Every row, families contiguous, each family's default first.
std::span<const Variant> variants();
// One family's rows (empty for an unknown family).
std::span<const Variant> variants(std::string_view family);
const Variant* find(std::string_view family, std::string_view name);
// The row a family's other rows are checked against (Family::agrees): the
// sequential baseline `seq`, or the family's first row where there is none
// (cc: `uf`). `family` must be a catalog family.
const Variant& oracle(std::string_view family);
std::vector<std::string> names(std::string_view family);

const Family* find_family(std::string_view name);

// Resolves a daemon request: the row `algo` names in `family` among those
// served in that mode (single or batch), or the first such row when `algo`
// is empty. Anything else is a typed kUsage error listing the served names.
const Variant& served(std::string_view family, std::string_view algo,
                      bool batch);
// True when `verb` is a family pasgal_serve answers.
bool serves(std::string_view verb);

// Builds a row's inputs from the opened graph (and, for kWeighted, the
// weighted graph whose topology `g` is): transposes or symmetrizes as the
// row's input shape asks.
Inputs prepare(Input shape, Graph g, WeightedGraph<std::uint32_t> wg = {});

// The run_api guard: validates the inputs lazily, then applies the columns
// of the row labelled `label` — in_core rejects sharded opens and overlay
// rejects pending update overlays, both as typed kUsage errors. `batch`
// picks the mode whose sharding-capable variants an in-core error suggests.
void check_inputs(std::string_view label, const Graph& g,
                  const Graph* gt = nullptr, bool batch = false);
void check_inputs(std::string_view label,
                  const WeightedGraph<std::uint32_t>& wg, bool batch = false);

// Run sections of a metrics document, shared by the drivers and the daemon:
// the "shard" object when `g` was opened sharded (activation counters summed
// over the forward and transpose windows), and the "delta" object when `g`
// carries an update overlay (the repair triple is zero for a static run).
void record_shard(MetricsDoc& doc, const Graph& g);
void record_delta(MetricsDoc& doc, const Graph& g,
                  std::uint64_t resettled = 0, std::uint64_t full_settled = 0,
                  bool fallback = false);

}  // namespace pasgal::catalog
