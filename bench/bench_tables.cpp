// The paper's evaluation tables, one per algorithm family, driven by the
// variant catalog (algorithms/catalog.h): `bfs` is Table A4, `scc` Table A3,
// `bcc` Table A2, their P=192 projections Figure 2; the other families are
// tabled in the same layout (cc has no sequential row, so no projections).
//
//   bench_tables [family ...]      (default: every catalog family)
//
// On each suite graph a family runs every row with a single-mode run
// (batch-only rows are bench_qps's), checks it against the family's oracle
// row (catalog::oracle) through Family::agrees, and records it in
// BENCH_<family>.json. A new catalog row needs no edit here.
// Exit codes: 0 ok / 1 mismatch or unwritable metrics / 2 unknown family.
#include <cstdio>
#include <map>
#include <set>
#include <string_view>

#include "algorithms/catalog.h"
#include "suite.h"

using namespace pasgal;
using namespace pasgal::bench;
using catalog::Variant;
using namespace std::string_view_literals;

namespace {

// Rows the tables leave out on a graph; skipping the oracle skips the family.
bool skipped(const GraphSpec& spec, const Variant& v) {
  std::string_view family = v.family->name, row = v.name;
  // A weighted chain: Bellman-Ford needs O(n) rounds and hours of bag churn.
  if (family == "sssp" && spec.name == "CHAIN") return true;
  // O(diameter * m) rows outside the paper's columns: label propagation and
  // em (sharded Bellman-Ford; in core up to 2.4x bf's time) would dominate
  // the bench on the road, kNN and synthetic graphs (D up to 5*10^5).
  if ((family == "cc" && row == "lp") || (family == "sssp" && row == "em")) {
    return spec.cls != "Social" && spec.cls != "Web";
  }
  // "SCC does not apply to undirected graphs."
  return family == "scc" && !spec.directed;
}

// Delta-stepping's delta, params.delta on the row that reads it.
constexpr std::uint64_t kDelta = 256;

VertexId max_degree_vertex(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  }
  return best;
}

// One suite graph and its input shapes, each prepared on first use.
struct SuiteGraph {
  const GraphSpec& spec;
  Graph g;
  std::map<catalog::Input, catalog::Inputs> shapes{};

  const catalog::Inputs& in(catalog::Input shape) {
    auto [it, fresh] = shapes.try_emplace(shape);
    if (!fresh) return it->second;
    WeightedGraph<std::uint32_t> wg;
    if (shape == catalog::Input::kWeighted) wg = gen::add_weights(g, 1000, 42);
    it->second = catalog::prepare(shape, g, std::move(wg));
    return it->second;
  }
};

class FamilyTables {
 public:
  explicit FamilyTables(const catalog::Family& family)
      : family_(family),
        oracle_(catalog::oracle(family.name)),
        projected_(oracle_.name == "seq"sv),
        metrics_(family.name) {
    std::vector<std::string> columns;
    for (const Variant& v : catalog::variants(family.name)) {
      if (v.run == nullptr || &v == &oracle_) continue;
      rows_.push_back(&v);
      columns.emplace_back(v.name);
    }
    rounds_ = at96_ = at192_ = Table(columns);
    columns.push_back(std::string(oracle_.name) + "*");
    times_ = Table(columns);
  }

  // Runs the family on one suite graph; false on a cross-check mismatch.
  bool run(SuiteGraph& graph) {
    const GraphSpec& spec = graph.spec;
    if (skipped(spec, oracle_)) return true;
    AlgoOptions opt{.sssp_delta = kDelta};
    if (family_.single_source) opt.source = max_degree_vertex(graph.g);
    catalog::Run want = record(graph, oracle_, opt);
    Projection proj = calibrate(want.seconds, want.telemetry);
    double oracle_ns = want.seconds * 1e9;
    Table* tables[] = {&times_, &rounds_, &at96_, &at192_};
    std::vector<double> cols[4];
    for (const Variant* v : rows_) {
      double cell[4] = {};  // zeros for a skipped row
      if (!skipped(spec, *v)) {
        catalog::Run got = record(graph, *v, opt);
        if (!family_.agrees(got.outputs.front(), want.outputs.front())) {
          std::fprintf(stderr, "%s MISMATCH: %s vs %s on %s\n", family_.name,
                       v->name, oracle_.name, spec.name.c_str());
          return false;
        }
        const RunTelemetry& t = got.telemetry;
        cell[0] = got.seconds;
        cell[1] = double(t.rounds.size());
        cell[2] = proj.speedup_at(96, t, oracle_ns);
        cell[3] = proj.speedup_at(192, t, oracle_ns);
      }
      for (int i = 0; i < 4; ++i) cols[i].push_back(cell[i]);
    }
    cols[0].push_back(want.seconds);
    for (int i = 0; i < 4; ++i) {
      tables[i]->add_row(spec.cls, spec.name, cols[i]);
    }
    if (family_.name == "bcc"sv) {
      const Graph& g = graph.in(oracle_.input).g;
      aux_.add_row(spec.cls, spec.name,
                   {double(g.num_vertices()), double(g.num_edges() / 2)});
    }
    return true;
  }

  // Prints the tables and writes BENCH_<family>.json (false if it cannot).
  bool finish() const {
    std::string name = family_.name;
    times_.print(name + " running time " + workers_note(),
                 "seconds; * marks the oracle row, 0 = skipped");
    rounds_.print(name + " global synchronizations (rounds)", "count");
    if (projected_) {
      std::string over = " projected speedup over " + name +
                         "/seq (cost model, DESIGN.md §4) at P=";
      const char* kind = "speedup; <1 = slower than seq, 0 = skipped";
      bool fig2 = name == "bfs" || name == "scc" || name == "bcc";
      at96_.print(name + over + "96", kind);
      at192_.print(name + over + "192" + (fig2 ? " (Figure 2)" : ""), kind);
    }
    if (family_.name == "bcc"sv) {
      aux_.print("BCC auxiliary space (the paper's o.o.m. column for TV)",
                 "entries; FAST-BCC: O(n) per-vertex arrays, implicit "
                 "skeleton; TV: O(m) auxiliary graph");
    }
    return metrics_.write();
  }

 private:
  catalog::Run record(SuiteGraph& graph, const Variant& v,
                      const AlgoOptions& opt) {
    const catalog::Inputs& in = graph.in(v.input);
    catalog::Run r = v.run(in, opt);
    MetricsDoc doc(family_.name, v.name, graph.spec.name, in.g.num_vertices(),
                   in.g.num_edges());
    if (family_.single_source) {
      doc.set_param("source", std::uint64_t{opt.source});
    }
    if (v.name == "delta"sv) doc.set_param("delta", opt.sssp_delta);
    if (family_.result_params) family_.result_params(r.outputs.front(), doc);
    doc.add_trial(r.seconds, r.telemetry);
    metrics_.add(doc);
    return r;
  }

  const catalog::Family& family_;
  const Variant& oracle_;
  // The cost model is calibrated on the oracle run, which has to be the
  // measured sequential baseline for a projected speedup to mean anything.
  const bool projected_;
  std::vector<const Variant*> rows_;  // the other single-mode rows
  // Time (plus the oracle's column), rounds, projected speedup at P=96/192.
  Table times_{{}}, rounds_{{}}, at96_{{}}, at192_{{}};
  Table aux_{{"PASGAL(per-vertex n)", "TV(aux nodes m/2)"}};
  BenchJson metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  std::set<std::string_view> named(argv + 1, argv + argc);
  const bool all = named.empty();
  std::vector<FamilyTables> tables;
  std::string families;
  const catalog::Family* last = nullptr;
  for (const Variant& v : catalog::variants()) {
    if (v.family == last) continue;
    last = v.family;
    families += std::string(" ") + v.family->name;
    if (all || named.erase(v.family->name) != 0) {
      tables.emplace_back(*v.family);
    }
  }
  if (!named.empty()) {
    std::fprintf(stderr, "bench_tables: unknown family '%s' (families:%s)\n",
                 std::string(*named.begin()).c_str(), families.c_str());
    return 2;
  }

  for (const GraphSpec& spec : graph_suite()) {
    SuiteGraph graph{spec, spec.build()};
    for (FamilyTables& t : tables) {
      if (!t.run(graph)) return 1;
    }
    std::fflush(stdout);
  }
  bool ok = true;
  for (const FamilyTables& t : tables) ok = t.finish() && ok;
  return ok ? 0 : 1;
}
