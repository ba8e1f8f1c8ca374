// Shared pieces of the repository benchmark: run arguments and result sink,
// the benchmark-side span recorder, sample statistics, and the graph bundle
// the kernel workloads and the per-layer microbenches run on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/bcc/bcc.h"
#include "algorithms/bfs/bfs.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "graphs/graph.h"
#include "pasgal/telemetry.h"

namespace perfbench {

using pasgal::Graph;
using pasgal::RunTelemetry;
using pasgal::VertexId;
using WGraph = pasgal::WeightedGraph<std::uint32_t>;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// --- sample statistics ------------------------------------------------------

// Linear interpolation between closest ranks (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v);
double mean(const std::vector<double>& v);

// --- span recorder ----------------------------------------------------------
//
// Spans are recorded only around calls from the benchmark's own files into a
// layer (setup steps, kernel calls, microbench calls, client requests). Each
// holds a name ("<layer>.<what>"), start/end in ns since the recorder was
// built, its parent span and counts attached at the call site. They stay in
// memory and are written out once at the end of the run. With tracing off
// every call is a no-op returning id -1.

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::vector<std::pair<std::string, double>> counts;
};

class Spans {
 public:
  static constexpr int kCurrent = -2;  // parent = innermost open span on this thread

  explicit Spans(bool on) : enabled_(on), on_(on), epoch_(Clock::now()) {}
  // Pauses/resumes recording in a traced run (no-op in an untraced one).
  // Not thread-safe: call between phases.
  void set_on(bool on) { on_ = enabled_ && on; }

  int begin(const std::string& name, int parent = kCurrent);
  void end(int id);
  void count(int id, const std::string& key, double value);
  // Attaches a kernel call's telemetry totals (rounds by kind, edges, visits,
  // hash-bag counters, scheduler busy/idle/steals, phases) to span `id`.
  void attach(int id, const RunTelemetry& t);

  // Self time per layer (span duration minus the union of its children's
  // intervals), summed over the spans of each layer, in ms.
  std::map<std::string, double> self_ms_by_layer() const;
  std::string to_json() const;

 private:
  bool enabled_;
  bool on_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const std::string& name, int parent = Spans::kCurrent)
      : spans_(spans), id_(spans.begin(name, parent)) {}
  ~ScopedSpan() { spans_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

// --- run context ------------------------------------------------------------

// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;             // toy-size inputs (self-test)
  bool corrupt_oracle = false;  // flip one oracle value (self-test)
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Ctx {
  explicit Ctx(Args a) : args(std::move(a)), spans(args.trace) {}

  Args args;
  Spans spans;
  std::string dir;  // this workload's scratch directory
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<Metric> metrics;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records one failed operation (error, refusal or wrong answer).
  void fail(const std::string& what);
};

// --- graph bundle -----------------------------------------------------------

// One workload graph as the kernels see it: the mmap-opened .pgr with its
// embedded transpose, the symmetrized copy BCC runs on, and a weighted copy
// for SSSP, plus the seeded sources.
struct Bundle {
  Graph g, gt, gs;
  WGraph wg;
  std::vector<VertexId> bfs_sources, sssp_sources;
};

struct SetupTimes {
  double generate_s = 0, transpose_s = 0, write_s = 0, open_s = 0;
  double validate_s = 0, validate_bytes = 0;
};

// Writes `generated` (with transpose), its symmetrization and a weighted
// copy as .pgr files under `dir`, mmap-opens them, validates, and draws
// `k_bfs`/`k_sssp` distinct sources of out-degree >= 1 from `seed`.
Bundle build_bundle(Ctx& ctx, const std::string& dir, const Graph& generated,
                    std::uint64_t seed, std::size_t k_bfs, std::size_t k_sssp,
                    SetupTimes* times);

// fsync()s a file the set-up just wrote, so its writeback is charged to
// set-up instead of running under the timed loop.
void sync_file(const std::string& path);

// Graph500-style sources: distinct, seeded, out-degree >= 1.
std::vector<VertexId> pick_sources(const Graph& g, std::uint64_t seed,
                                   std::size_t k);

// --- kernel calls -----------------------------------------------------------

enum class Family { kBfs, kScc, kBcc, kSssp };
inline constexpr const char* kFamilyName[] = {"bfs", "scc", "bcc", "sssp"};

struct Call {
  Family family;
  VertexId source = 0;
  double seconds = 0;
  RunTelemetry telemetry;
};

// Kernel outputs kept for the oracle comparison: the first output of every
// distinct (family, source) in a run. Later BFS/SSSP outputs (canonical
// distances) are compared against the first by digest.
class OutputCheck {
 public:
  void bfs(Ctx& ctx, VertexId s, std::vector<std::uint32_t>&& d);
  void sssp(Ctx& ctx, VertexId s, std::vector<pasgal::Dist>&& d);
  void scc(std::vector<pasgal::SccLabel>&& labels);
  void bcc(pasgal::BccResult&& r);
  // Compares every kept output against its sequential oracle (outside the
  // timed region); each mismatch counts as a failed operation. Oracle wall
  // times land in `ref_ms` per family ("seq_bfs", "seq_scc", ...).
  void verify(Ctx& ctx, const Bundle& b,
              std::map<std::string, std::vector<double>>& ref_ms);

 private:
  std::map<VertexId, std::vector<std::uint32_t>> bfs_;
  std::map<VertexId, std::uint64_t> bfs_digest_;
  std::map<VertexId, std::vector<pasgal::Dist>> sssp_;
  std::map<VertexId, std::uint64_t> sssp_digest_;
  std::vector<pasgal::SccLabel> scc_;
  bool has_scc_ = false;
  pasgal::BccResult bcc_;
  bool has_bcc_ = false;
};

// One timed call of `f` on the bundle; `check` keeps the output for the
// oracle comparison. Errors count as failed operations.
Call run_call(Ctx& ctx, const Bundle& b, Family f, VertexId source,
              OutputCheck* check);

// --- per-layer metrics (layers.cpp) -----------------------------------------

// Metrics derived from kernel calls' telemetry: algorithms.*, vgc.* and
// hashbag counters, parlay busy/steal ratios, edge_map.edges_per_m.
void kernel_layer_metrics(Ctx& ctx, const Bundle& b,
                          const std::vector<Call>& calls);
// Microbenches of the parlay, edge_map, hashbag, vgc, graphs and telemetry
// layers on the bundle's graph, plus self-relative speedups and the
// repeatability probe.
void layer_microbenches(Ctx& ctx, const Bundle& b);
void graphs_setup_metrics(Ctx& ctx, const std::vector<SetupTimes>& setups,
                          double first_touch_ms);
void span_metrics(Ctx& ctx);

// --- workloads --------------------------------------------------------------

void run_analytic(Ctx& ctx);  // road-hd, social-ld
void run_serve(Ctx& ctx);     // serve-mixed

// Served-request layer probe used by the traced run of the kernel workloads:
// an in-process Server over a copy of `g` answering reads, updates, a
// compact and PageRank; emits the serve.* and class.* per-layer metrics.
void serve_probe(Ctx& ctx, const Graph& g, const std::string& dir);

}  // namespace perfbench
