// Shared benchmark harness: the dataset suite standing in for the paper's 22
// graphs (DESIGN.md §2/§4), wall-clock timing, paper-style table printing,
// and the documented cost model for projecting speedup-vs-cores curves.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "algorithms/bfs/bfs.h"
#include "graphs/generators.h"
#include "graphs/graph_io.h"
#include "pasgal/telemetry.h"

namespace pasgal::bench {

struct GraphSpec {
  std::string name;    // e.g. "ROAD-NA"
  std::string cls;     // Social / Web / Road / kNN / Synthetic
  std::string paper_analogue;
  bool directed;       // false: builder returns a symmetrized graph
  std::function<Graph()> build;
};

// When PASGAL_SUITE_DIR is set and holds a pre-converted <NAME>.pgr for a
// suite graph, the builder mmaps it instead of regenerating — repeated bench
// runs then share one page-cached read-only copy and skip generation
// entirely. Produce the files once with:
//   graph_convert <spec> $PASGAL_SUITE_DIR/<NAME>.pgr --transpose
inline std::function<Graph()> with_pgr_override(const std::string& name,
                                                std::function<Graph()> build) {
  return [name, build = std::move(build)]() {
    if (const char* dir = std::getenv("PASGAL_SUITE_DIR"); dir && *dir) {
      std::string path = std::string(dir) + "/" + name + ".pgr";
      if (std::filesystem::exists(path)) return read_pgr(path);
    }
    return build();
  };
}

// The suite. Scaled-down but class-faithful: same m/n ratios and diameter
// regimes as the paper's datasets (Table 1); see DESIGN.md for the mapping.
inline std::vector<GraphSpec> graph_suite() {
  std::vector<GraphSpec> specs;
  // --- Social: power-law, low diameter.
  specs.push_back({"SOC-LJ", "Social", "soc-LiveJournal1", true,
                   [] { return gen::rmat(17, 2'000'000, 101); }});
  specs.push_back({"SOC-OK", "Social", "com-orkut (undirected)", false,
                   [] { return gen::rmat(16, 1'500'000, 102).symmetrize(); }});
  // --- Web: power-law with more local structure, low-mid diameter.
  specs.push_back({"WEB-SD", "Web", "sd-arc", true,
                   [] { return gen::rmat(17, 1'500'000, 103, 0.65, 0.15, 0.15); }});
  // --- Road: sparse lattices with one-way streets, D ~ sqrt(n).
  specs.push_back({"ROAD-NA", "Road", "OSM North America", true,
                   [] { return gen::road_grid(600, 600, 0.85, 104); }});
  specs.push_back({"ROAD-EU", "Road", "OSM Europe", true,
                   [] { return gen::road_grid(500, 900, 0.80, 105); }});
  // --- k-NN: geometric, large diameter.
  specs.push_back({"KNN-CH5", "kNN", "Chem k=5", true,
                   [] { return gen::knn_graph(200'000, 5, 106, 16); }});
  specs.push_back({"KNN-GL10", "kNN", "GeoLife k=10", true,
                   [] { return gen::knn_graph(200'000, 10, 107); }});
  // --- Synthetic: the paper's REC/SREC rectangles, bubbles, and a chain.
  specs.push_back({"REC", "Synthetic", "10^3 x 10^5 grid", true,
                   [] { return gen::road_grid(100, 8000, 0.9, 108); }});
  specs.push_back({"SREC", "Synthetic", "sampled REC", true,
                   [] {
                     return gen::sampled_edges(gen::road_grid(100, 8000, 0.9, 108),
                                               0.75, 109);
                   }});
  specs.push_back({"BBL", "Synthetic", "huge-bubbles (undirected)", false,
                   [] { return gen::bubbles(1200, 40); }});
  specs.push_back({"CHAIN", "Synthetic", "adversarial path (undirected)", false,
                   [] { return gen::chain(500'000); }});
  for (auto& s : specs) s.build = with_pgr_override(s.name, std::move(s.build));
  return specs;
}

// Subset helpers used by individual benches.
inline std::vector<GraphSpec> directed_suite() {
  std::vector<GraphSpec> out;
  for (auto& s : graph_suite()) {
    if (s.directed) out.push_back(s);
  }
  return out;
}

// --- timing ---------------------------------------------------------------

template <typename F>
double time_seconds(F&& f, int repeats = 1) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    auto start = std::chrono::steady_clock::now();
    f();
    auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

// --- cost model (DESIGN.md §4) ---------------------------------------------
//
// T_P = W*c_work / min(P, avg_frontier) + R * c_sync * (1 + log2 P)
//
// W = edges scanned + vertices visited, R = rounds, avg_frontier = average
// frontier size (a round with 3 active vertices cannot use 96 cores).
// c_work is calibrated per graph from the measured sequential baseline;
// c_sync defaults to 5 microseconds, a typical fork/join barrier +
// task-distribution cost on a 4-socket box.
struct Projection {
  double c_work_ns = 1.0;
  double c_sync_ns = 5000.0;

  double time_at(int p, const RunTelemetry& t) const {
    double visits = double(t.vertices_visited);
    double rounds = double(t.rounds.size());
    double work = double(t.edges_scanned) + visits;
    double avg_frontier = rounds > 0 ? visits / rounds : 1.0;
    double usable = std::min<double>(p, std::max(1.0, avg_frontier));
    double compute = work * c_work_ns / usable;
    double sync = p <= 1 ? 0.0
                         : rounds * c_sync_ns * (1.0 + std::log2(double(p)));
    return compute + sync;
  }

  double speedup_at(int p, const RunTelemetry& t, double seq_time_ns) const {
    return seq_time_ns / time_at(p, t);
  }
};

// Calibrate c_work so that the sequential baseline's modeled time matches
// its measured time.
inline Projection calibrate(double seq_seconds, const RunTelemetry& t) {
  Projection proj;
  double work = double(t.edges_scanned + t.vertices_visited);
  if (work > 0) proj.c_work_ns = seq_seconds * 1e9 / work;
  return proj;
}

// --- machine-readable results (BENCH_<name>.json) ----------------------------
//
// Each table bench accumulates one metrics document per (variant, graph) run
// — the same schema the drivers emit via --json-metrics, so the per-round
// traces land in version control alongside the printed tables. The envelope
// is {"schema": "pasgal.bench", "runs": [<pasgal.metrics docs>...]};
// `metrics_check` validates both formats.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void add(const MetricsDoc& doc) { runs_.push_back(doc.to_json()); }

  // Writes BENCH_<bench>.json into $PASGAL_BENCH_DIR (or the cwd) and
  // reports the path; benches treat failure as fatal so CI notices.
  bool write() const {
    const char* dir = std::getenv("PASGAL_BENCH_DIR");
    std::string path =
        (dir && *dir ? std::string(dir) + "/" : std::string()) + "BENCH_" +
        bench_ + ".json";
    std::string out = "{\"schema\": \"pasgal.bench\", \"version\": 1, "
                      "\"bench\": \"" + json::escape(bench_) + "\", "
                      "\"runs\": [\n";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      std::string run = runs_[i];
      while (!run.empty() && (run.back() == '\n' || run.back() == ' ')) {
        run.pop_back();
      }
      out += run;
      out += i + 1 < runs_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    bool ok = f != nullptr &&
              std::fwrite(out.data(), 1, out.size(), f) == out.size();
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (!ok) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("bench metrics: wrote %s (%zu runs)\n", path.c_str(),
                runs_.size());
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::string> runs_;
};

// --- table printing ---------------------------------------------------------

// Title suffix naming the worker count the printed times were taken at.
inline std::string workers_note() {
  return "(this machine, " + std::to_string(num_workers()) + " workers)";
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

  void add_row(const std::string& cls, const std::string& graph,
               const std::vector<double>& values) {
    rows_.push_back({cls, graph, values});
  }

  // Prints rows grouped by class, then per-class geometric means — the
  // layout of the paper's appendix tables.
  void print(const std::string& title, const std::string& value_kind) const {
    std::printf("\n=== %s ===\n(%s; lower is better for times, higher for speedups)\n",
                title.c_str(), value_kind.c_str());
    std::printf("%-10s %-10s", "Class", "Graph");
    for (const auto& c : columns_) std::printf(" %12s", c.c_str());
    std::printf("\n");
    for (const auto& r : rows_) {
      std::printf("%-10s %-10s", r.cls.c_str(), r.graph.c_str());
      for (double v : r.values) std::printf(" %12.4g", v);
      std::printf("\n");
    }
    // Geometric means per class.
    std::map<std::string, std::vector<std::vector<double>>> by_class;
    for (const auto& r : rows_) by_class[r.cls].push_back(r.values);
    std::printf("--- geometric means ---\n");
    for (const auto& [cls, rows] : by_class) {
      std::printf("%-10s %-10s", cls.c_str(), "geomean");
      for (std::size_t c = 0; c < columns_.size(); ++c) {
        double log_sum = 0;
        int count = 0;
        for (const auto& vals : rows) {
          if (c < vals.size() && vals[c] > 0) {
            log_sum += std::log(vals[c]);
            ++count;
          }
        }
        std::printf(" %12.4g", count ? std::exp(log_sum / count) : 0.0);
      }
      std::printf("\n");
    }
  }

 private:
  struct Row {
    std::string cls, graph;
    std::vector<double> values;
  };
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

}  // namespace pasgal::bench
