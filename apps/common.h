// Shared command-line plumbing for the per-algorithm driver apps, mirroring
// the upstream PASGAL repository's layout (one executable per algorithm,
// fed by a graph file in .adj or .bin format, or a generator spec).
//
// Flag parsing lives in the library (pasgal/cli.h) so all drivers declare
// options once via cli::OptionSet; this header keeps the driver-only pieces:
// graph loading from specs, stdout stat lines, metrics emission, and the
// run_app() wrapper that maps typed pasgal::Error failures onto the uniform
// exit codes documented in README.md:
//   0 ok / 1 internal error / 2 usage / 3 bad input / 4 resource limit.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "graphs/generators.h"
#include "graphs/graph_io.h"
#include "graphs/registry.h"
#include "pasgal/cli.h"
#include "pasgal/error.h"
#include "pasgal/resource.h"
#include "pasgal/telemetry.h"

namespace pasgal::apps {

// Re-exported so existing driver/test code keeps compiling against
// pasgal::apps::*; new code should include pasgal/cli.h directly.
using cli::CommonOptions;
using cli::FlagParser;
using cli::OptionSet;
using cli::parse_flag_int;
using cli::parse_int;

namespace internal {

using cli::Spec;
using cli::split_spec;

// Generators allocate an edge array before building the CSR; reject specs
// whose edge count alone would blow the memory ceiling (same guard the file
// readers apply to header-claimed sizes).
inline void guard_generated(std::uint64_t n, std::uint64_t m,
                            const std::string& spec) {
  unsigned __int128 need = static_cast<unsigned __int128>(m) * sizeof(Edge) +
                           (static_cast<unsigned __int128>(n) + 1) *
                               (sizeof(EdgeId) + sizeof(VertexId));
  constexpr std::uint64_t kMax = static_cast<std::uint64_t>(-1);
  std::uint64_t need64 = need > kMax ? kMax : static_cast<std::uint64_t>(need);
  check_allocation(need64, "generated graph '" + spec + "'").throw_if_error();
}

inline bool ends_with(const std::string& s, const char* suffix) {
  std::size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

// Applies the per-run resource knobs before any load: the --mem-limit-mb
// ceiling override (kUsage if PASGAL_MEM_LIMIT_MB is also set — one knob,
// two owners) runs first so the shard spec and every footprint check see
// the effective ceiling.
inline void apply_mem_limit(const CommonOptions& common) {
  if (common.mem_limit_mb > 0) {
    set_memory_limit_mb(static_cast<unsigned long long>(common.mem_limit_mb));
  }
}

// Parses --shard-mb into a PgrShardSpec, rejecting the combinations that
// cannot honor the bounded-residency contract.
inline PgrShardSpec shard_spec(const std::string& spec,
                               const CommonOptions& common) {
  PgrShardSpec out;
  if (common.shard_mb.empty()) return out;
  if (!ends_with(spec, ".pgr")) {
    throw Error(ErrorCategory::kUsage,
                "--shard-mb requires a .pgr input (got '" + spec +
                    "'): sharded execution windows a mapped file");
  }
  if (common.load_mode == "copy") {
    throw Error(ErrorCategory::kUsage,
                "--shard-mb conflicts with --load copy: sharding windows "
                "the mapped file; a heap copy has no window");
  }
  if (common.validate) {
    throw Error(ErrorCategory::kUsage,
                "--shard-mb conflicts with --validate: checksumming every "
                "section byte defeats the bounded residency window (sharded "
                "opens range-check shard-at-a-time instead)");
  }
  if (common.shard_mb == "auto") {
    out.auto_shard = true;
    return out;
  }
  long long mb = cli::parse_int(
      common.shard_mb, "flag --shard-mb", 1,
      static_cast<long long>(::pasgal::internal::kMaxMemLimitMb),
      ErrorCategory::kUsage);
  out.window_bytes = static_cast<std::uint64_t>(mb) << 20;
  return out;
}

}  // namespace internal

// Graph sources:
//   path ending in .adj / .bin        -> load from file (validated on read)
//   path ending in .pgr               -> mmap zero-copy by default
//                                        (see load_graph_timed for --load)
//   "rmat:<log2n>:<m>[:seed]"         -> RMAT generator
//   "grid:<rows>:<cols>"              -> undirected rectangle grid
//   "road:<rows>:<cols>[:two_way_pct]"-> directed road grid
//   "knn:<n>:<k>[:seed]"              -> k-NN graph
//   "chain:<n>[:directed]"            -> path graph
// Malformed specs (non-numeric, missing, or out-of-range fields) are
// reported as usage errors; corrupt files surface the reader's typed error.
inline Graph load_graph(const std::string& spec) {
  auto ends_with = [&](const char* suffix) {
    return internal::ends_with(spec, suffix);
  };
  if (ends_with(".adj")) return read_adj(spec);
  if (ends_with(".bin")) return read_bin(spec);
  if (ends_with(".pgr")) return read_pgr(spec);

  internal::Spec s = internal::split_spec(spec);
  if (s.kind == "rmat") {
    s.expect_at_most(3);
    long long log2n = s.required(1, "log2n", 1, 31);
    long long m = s.required(2, "m", 0, 1LL << 40);
    long long seed = s.optional(3, "seed", 0, (1LL << 62), 1);
    internal::guard_generated(std::uint64_t{1} << log2n,
                              static_cast<std::uint64_t>(m), spec);
    return gen::rmat(static_cast<int>(log2n), static_cast<std::size_t>(m),
                     static_cast<std::uint64_t>(seed));
  }
  if (s.kind == "grid") {
    s.expect_at_most(2);
    long long rows = s.required(1, "rows", 1, 1LL << 31);
    long long cols = s.required(2, "cols", 1, 1LL << 31);
    unsigned __int128 n =
        static_cast<unsigned __int128>(rows) * static_cast<unsigned __int128>(cols);
    if (n > (std::uint64_t{1} << 32)) {
      throw Error(ErrorCategory::kUsage,
                  "spec '" + spec + "': rows*cols exceeds the 32-bit "
                  "vertex-id space");
    }
    internal::guard_generated(static_cast<std::uint64_t>(n),
                              4 * static_cast<std::uint64_t>(n), spec);
    return gen::rectangle_grid(static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(cols));
  }
  if (s.kind == "road") {
    s.expect_at_most(3);
    long long rows = s.required(1, "rows", 1, 1LL << 31);
    long long cols = s.required(2, "cols", 1, 1LL << 31);
    long long pct = s.optional(3, "two_way_pct", 0, 100, 85);
    unsigned __int128 n =
        static_cast<unsigned __int128>(rows) * static_cast<unsigned __int128>(cols);
    if (n > (std::uint64_t{1} << 32)) {
      throw Error(ErrorCategory::kUsage,
                  "spec '" + spec + "': rows*cols exceeds the 32-bit "
                  "vertex-id space");
    }
    internal::guard_generated(static_cast<std::uint64_t>(n),
                              4 * static_cast<std::uint64_t>(n), spec);
    return gen::road_grid(static_cast<std::size_t>(rows),
                          static_cast<std::size_t>(cols),
                          static_cast<double>(pct) / 100.0);
  }
  if (s.kind == "knn") {
    s.expect_at_most(3);
    long long n = s.required(1, "n", 1, 1LL << 32);
    long long k = s.required(2, "k", 1, 1024);
    long long seed = s.optional(3, "seed", 0, (1LL << 62), 1);
    internal::guard_generated(static_cast<std::uint64_t>(n),
                              static_cast<std::uint64_t>(n) *
                                  static_cast<std::uint64_t>(k),
                              spec);
    return gen::knn_graph(static_cast<std::size_t>(n), static_cast<int>(k),
                          static_cast<std::uint64_t>(seed));
  }
  if (s.kind == "chain") {
    s.expect_at_most(2);
    long long n = s.required(1, "n", 1, 1LL << 32);
    long long directed = s.optional(2, "directed", 0, 1, 0);
    internal::guard_generated(static_cast<std::uint64_t>(n),
                              2 * static_cast<std::uint64_t>(n), spec);
    return gen::chain(static_cast<std::size_t>(n), directed != 0);
  }
  throw Error(ErrorCategory::kUsage,
              "unknown graph spec '" + spec +
                  "': expected a .adj/.bin path or rmat:<log2n>:<m>[:seed] | "
                  "grid:<r>:<c> | road:<r>:<c>[:pct] | knn:<n>:<k>[:seed] | "
                  "chain:<n>[:1]");
}

// Loads and optionally re-validates (file readers always validate; the
// `--validate` app flag extends the same CSR check to generated graphs,
// turns on the .pgr checksum + validate_csr pass, and prints a confirmation
// so runs on trusted pipelines can prove integrity).
inline Graph load_graph(const std::string& spec, bool validate) {
  Graph g = internal::ends_with(spec, ".pgr")
                ? read_pgr(spec, PgrOpen::kMmap, validate)
                : load_graph(spec);
  if (validate) {
    g.validate().throw_if_error();
    std::printf("validate: ok (n=%zu m=%zu)\n", g.num_vertices(),
                g.num_edges());
  }
  return g;
}

// A loaded graph plus how it was materialized, for telemetry: drivers record
// the load mode, mapped bytes, and load wall time so the zero-copy claim is
// checkable from the metrics document alone.
struct LoadedGraph {
  Graph graph;  // for a weighted load: the topology of `weighted`
  WeightedGraph<std::uint32_t> weighted;  // weighted loads only
  std::string mode;  // "adj" | "bin" | "pgr-mmap" | "pgr-copy" | "generated"
  // Weighted loads only: the weights came from the file's weights section
  // ("file") or were generated in-process ("generated").
  std::string weights_origin;
  // Bytes newly mapped by *this* load: the file size for a cold mmap open,
  // 0 for a registry hit (the mapping already existed) and for heap loads.
  std::uint64_t bytes_mapped = 0;
  double seconds = 0;
  bool registry_hit = false;  // this open shared a pre-existing mapping
  // Compressed .pgr accounting (PgrOpenStats): encoded on-disk size of the
  // targets section and the decode wall time this open paid (0 when the
  // registry handed back an already-decoded storage).
  bool compressed = false;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t decode_wall_ns = 0;
};

namespace internal {

// Drivers load single-threaded, so the registry hit delta across one load
// is exactly this open's outcome.
inline bool finish_load_accounting(const GraphRegistry::Stats& before,
                                   std::uint64_t& bytes_mapped) {
  GraphRegistry::Stats after = GraphRegistry::instance().stats();
  if (after.hits > before.hits) {
    bytes_mapped = 0;
    return true;
  }
  return false;
}

}  // namespace internal

// `weights_section` reads a weighted .pgr's weights alongside the topology.
inline LoadedGraph load_graph_timed(const std::string& spec,
                                    const CommonOptions& common,
                                    bool weights_section = false) {
  internal::apply_mem_limit(common);
  PgrShardSpec shard = internal::shard_spec(spec, common);
  auto t0 = std::chrono::steady_clock::now();
  GraphRegistry::Stats before = GraphRegistry::instance().stats();
  LoadedGraph out;
  if (internal::ends_with(spec, ".pgr")) {
    PgrOpen mode =
        common.load_mode == "copy" ? PgrOpen::kCopy : PgrOpen::kMmap;
    PgrOpenStats stats;
    if (weights_section) {
      out.weighted =
          read_weighted_pgr(spec, mode, common.validate, &stats, shard);
      out.graph = out.weighted.unweighted();
      out.weights_origin = "file";
    } else {
      out.graph = read_pgr(spec, mode, common.validate, &stats, shard);
    }
    out.compressed = stats.compressed;
    out.encoded_bytes = stats.encoded_target_bytes;
    out.decode_wall_ns = stats.decode_wall_ns;
    out.mode = mode == PgrOpen::kCopy ? "pgr-copy" : "pgr-mmap";
    if (common.validate) {
      std::printf("validate: ok (n=%zu m=%zu)\n", out.graph.num_vertices(),
                  out.graph.num_edges());
    }
  } else {
    out.graph = load_graph(spec, common.validate);
    out.mode = internal::ends_with(spec, ".adj")   ? "adj"
               : internal::ends_with(spec, ".bin") ? "bin"
                                                   : "generated";
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (out.graph.storage() != nullptr) {
    out.bytes_mapped = out.graph.storage()->bytes_mapped();
  }
  out.registry_hit = internal::finish_load_accounting(before, out.bytes_mapped);
  return out;
}

// Weighted load for the sssp driver: a weighted `.pgr` supplies its own
// weights section (zero-copy alongside the topology); everything else loads
// the topology and attaches deterministic generated weights. Passing -w
// with a weighted file is a usage error — the flag could not take effect.
inline LoadedGraph load_weighted_graph_timed(
    const std::string& spec, const CommonOptions& common,
    std::uint32_t max_weight, bool max_weight_given) {
  internal::apply_mem_limit(common);
  if (internal::ends_with(spec, ".pgr") && probe_pgr(spec).weighted) {
    if (max_weight_given) {
      throw Error(ErrorCategory::kUsage,
                  "-w conflicts with '" + spec +
                      "': the file carries a weights section; drop -w to use "
                      "it, or convert the graph without --weights");
    }
    return load_graph_timed(spec, common, /*weights_section=*/true);
  }
  LoadedGraph base = load_graph_timed(spec, common);
  if (base.graph.windowed()) {
    // add_weights hashes every (u,v) pair, i.e. reads the whole adjacency —
    // exactly what a windowed open withholds.
    throw Error(ErrorCategory::kUsage,
                "'" + spec +
                    "' has no weights section, and generating weights reads "
                    "every edge target — impossible through a sharded "
                    "compressed open; convert with --weights to embed them");
  }
  base.weighted = gen::add_weights(base.graph, max_weight);
  base.graph = base.weighted.unweighted();
  base.weights_origin = "generated";
  return base;
}

// Load params: mode, newly mapped bytes, wall time, weights provenance, and
// for compressed .pgr loads the compression trio (schema-checked to travel
// together). The ratio compares the raw targets array the file would have
// carried uncompressed against the encoded section actually on disk;
// decode_wall_ns is 0 when this open reused a registry-shared storage whose
// targets were already decoded.
inline void record_load(MetricsDoc& doc, const LoadedGraph& loaded) {
  doc.set_param("load_mode", loaded.mode);
  doc.set_param("load_bytes_mapped", loaded.bytes_mapped);
  doc.set_param("load_wall_ns",
                static_cast<std::uint64_t>(loaded.seconds * 1e9));
  if (!loaded.weights_origin.empty()) {
    doc.set_param("weights", loaded.weights_origin);
  }
  if (loaded.compressed) {
    std::uint64_t raw_bytes = loaded.graph.num_edges() * sizeof(VertexId);
    doc.set_param("encoded_bytes", loaded.encoded_bytes);
    doc.set_param("compression_ratio",
                  loaded.encoded_bytes == 0
                      ? 1.0
                      : static_cast<double>(raw_bytes) /
                            static_cast<double>(loaded.encoded_bytes));
    doc.set_param("decode_wall_ns", loaded.decode_wall_ns);
  }
}

// --- serving-mode harness ----------------------------------------------------

namespace internal {

// SIGINT/SIGTERM drain flag for the --serve loops: the handler only sets
// this; ServeHarness::next() reads it at the next iteration boundary, so
// the driver finishes the open in flight, flushes --json-metrics through
// its normal epilogue, and exits 0 instead of dying mid-document.
inline volatile std::sig_atomic_t g_serve_stop = 0;
inline void serve_stop_handler(int) { g_serve_stop = 1; }

inline void install_serve_stop_handlers() {
  struct sigaction sa {};
  sa.sa_handler = serve_stop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;  // don't tear stdio writes mid-line
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace internal

// `--serve N`: the driver re-opens and re-runs its input N extra times in
// one process, as a cold-vs-warm harness for the GraphRegistry. The cold
// open of a mmap'ed .pgr is pinned, so the mapping survives the Graph being
// dropped between iterations and every warm open is a registry hit mapping
// zero new bytes. Usage pattern (see Driver::main in driver.h):
//
//   ServeHarness serve(argv[1], common);
//   while (serve.next()) {
//     auto loaded = serve.open(common);
//     ... run repeats, add trials ...
//   }
//   apps::record_load(doc, loaded);  // final open: warm when serving
//   serve.record(doc);
class ServeHarness {
 public:
  ServeHarness(std::string spec, const CommonOptions& common)
      : spec_(std::move(spec)),
        total_opens_(1 + common.serve),
        base_(GraphRegistry::instance().stats()) {
    if (total_opens_ > 1) internal::install_serve_stop_handlers();
  }

  // Advances to the next open; snapshots the cold iteration's peak RSS at
  // the cold->warm boundary so record() can expose RSS flatness. A pending
  // SIGINT/SIGTERM ends the loop here — after the cold open at minimum, so
  // the driver's metrics epilogue always has a document to flush.
  bool next() {
    if (iteration_ >= 0 && internal::g_serve_stop != 0) {
      std::printf("serve: stop signal, draining after open %lld/%lld\n",
                  iteration_ + 1, total_opens_);
      return false;
    }
    if (iteration_ + 1 >= total_opens_) return false;
    ++iteration_;
    if (iteration_ == 1) cold_peak_rss_ = peak_rss_bytes();
    return true;
  }

  bool cold() const { return iteration_ == 0; }

  LoadedGraph open(const CommonOptions& common) {
    LoadedGraph out = load_graph_timed(spec_, common);
    note_open(out.mode, out.registry_hit, out.bytes_mapped);
    return out;
  }

  LoadedGraph open_weighted(const CommonOptions& common,
                            std::uint32_t max_weight, bool max_weight_given) {
    LoadedGraph out = load_weighted_graph_timed(
        spec_, common, max_weight, max_weight_given);
    note_open(out.mode, out.registry_hit, out.bytes_mapped);
    return out;
  }

  // Registry counters as process-lifetime deltas since harness construction
  // (once per document — duplicate set_param keys would corrupt the JSON).
  void record(MetricsDoc& doc) const {
    GraphRegistry::Stats now = GraphRegistry::instance().stats();
    doc.set_param("registry_hits", now.hits - base_.hits);
    doc.set_param("registry_misses", now.misses - base_.misses);
    doc.set_param("registry_bytes_mapped",
                  now.bytes_mapped - base_.bytes_mapped);
    if (total_opens_ > 1) {
      doc.set_param("serve_opens", static_cast<std::uint64_t>(total_opens_));
      doc.set_param("warm_load_bytes_mapped", warm_new_bytes_);
      doc.set_param("peak_rss_cold_bytes", cold_peak_rss_);
    }
  }

 private:
  void note_open(const std::string& mode, bool registry_hit,
                 std::uint64_t new_bytes) {
    if (cold()) {
      if (total_opens_ > 1 && mode == "pgr-mmap") {
        GraphRegistry::instance().pin(spec_);
      }
      return;
    }
    warm_new_bytes_ += new_bytes;
    std::printf("serve: open %lld/%lld %s (%llu new bytes mapped)\n",
                iteration_ + 1, total_opens_,
                registry_hit ? "registry hit" : "registry miss",
                (unsigned long long)new_bytes);
  }

  std::string spec_;
  long long total_opens_;
  long long iteration_ = -1;
  GraphRegistry::Stats base_;
  std::uint64_t cold_peak_rss_ = 0;
  std::uint64_t warm_new_bytes_ = 0;
};

// --- driver scaffolding ------------------------------------------------------

inline void print_stats(const char* algo, double seconds, const Tracer& stats) {
  std::printf("%s: %.4f s | rounds %llu | edges scanned %llu | "
              "vertices visited %llu | max frontier %llu\n",
              algo, seconds, (unsigned long long)stats.rounds(),
              (unsigned long long)stats.edges_scanned(),
              (unsigned long long)stats.vertices_visited(),
              (unsigned long long)stats.max_frontier());
}

// Emits the collected metrics document when --json-metrics was given. The
// process peak RSS is stamped at emission time (the latest point we see), so
// heap-vs-mmap load comparisons are readable straight from the document.
inline void finish_metrics(const CommonOptions& common, MetricsDoc& doc) {
  if (common.json_metrics.empty()) return;
  doc.set_param("peak_rss_bytes", peak_rss_bytes());
  write_metrics_json(common.json_metrics, doc).throw_if_error();
  std::printf("metrics: wrote %s (%zu trials)\n", common.json_metrics.c_str(),
              doc.num_trials());
}

// Uniform error-to-exit-code mapping for the app drivers. The body either
// returns an exit code or throws; every throw is reported on stderr with its
// category so scripts can match on "error [category] ...".
template <typename Body>
int run_app(Body&& body) {
  try {
    return body();
  } catch (const Error& e) {
    std::fprintf(stderr, "error %s\n", e.what());
    return exit_code(e.category());
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr,
                 "error [resource] allocation failed (set PASGAL_MEM_LIMIT_MB "
                 "to reject oversized inputs earlier)\n");
    return exit_code(ErrorCategory::kResource);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error [internal] %s\n", e.what());
    return 1;
  }
}

}  // namespace pasgal::apps
