// The variant catalog (algorithms/catalog.h): every row runs identically on
// a heap graph, a mmap'd .pgr and a v2-compressed .pgr and matches its
// family's sequential oracle; the name sets the drivers and the daemon
// expose; the in_core/overlay columns against what each run_api entry point
// really throws; and validate_metrics' family whitelist.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <set>

#include "algorithms/bfs/bfs.h"
#include "algorithms/catalog.h"
#include "algorithms/kcore/kcore.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "algorithms/tc/tc.h"
#include "graphs/delta.h"
#include "graphs/generators.h"
#include "graphs/graph_io.h"
#include "graphs/registry.h"
#include "pasgal/error.h"
#include "pasgal/telemetry.h"

namespace pasgal {
namespace {

using catalog::Input;
using catalog::Output;
using catalog::Variant;

const std::vector<VertexId> kSources = {0, 3, 17};

// Relabels by first occurrence, so label sets that induce the same
// partition compare equal.
template <typename L>
std::vector<std::size_t> canon(const std::vector<L>& labels) {
  std::map<L, std::size_t> ids;
  std::vector<std::size_t> out;
  for (L l : labels) out.push_back(ids.emplace(l, ids.size()).first->second);
  return out;
}

std::vector<VertexId> union_find_cc(const Graph& g) {
  std::vector<VertexId> parent(g.num_vertices());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](VertexId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) parent[find(u)] = find(v);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) parent[v] = find(v);
  return parent;
}

bool runs_in(const Variant& v, bool batch) {
  return batch ? v.run_batch != nullptr : v.run != nullptr;
}

catalog::Run run_row(const Variant& v, const catalog::Inputs& in,
                     bool batch) {
  if (batch) return v.run_batch(in, {kSources, {}});
  return v.run(in, {});
}

// Runs a row in its single mode when it has one, else as a batch.
catalog::Run run_row(const Variant& v, const catalog::Inputs& in) {
  return run_row(v, in, !runs_in(v, false));
}

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override { GraphRegistry::instance().clear(); }
  void TearDown() override {
    GraphRegistry::instance().clear();
    std::filesystem::remove_all(dir());
  }

  static std::filesystem::path dir() {
    auto d = std::filesystem::temp_directory_path() / "pasgal_catalog_test";
    std::filesystem::create_directories(d);
    return d;
  }

  // The shared test graph: small, directed, several SCCs and BCCs.
  static Graph graph() { return gen::rmat(8, 1200, 5); }
  static WeightedGraph<std::uint32_t> weighted() {
    return gen::add_weights(graph(), 20);
  }

  // A `.pgr` copy of the test graph (transpose sections embedded).
  std::string write(const std::string& name, bool weighted_copy,
                    bool compress) {
    std::string path = (dir() / name).string();
    PgrWriteOptions opts;
    opts.include_transpose = !weighted_copy;
    opts.compress_targets = compress;
    if (weighted_copy) {
      write_pgr(weighted(), path, opts);
    } else {
      write_pgr(graph(), path, opts);
    }
    return path;
  }

  // Opens the test graph on one backend: heap, mmap or v2-compressed mmap.
  catalog::Inputs open(const Variant& v, const std::string& backend) {
    bool w = v.input == Input::kWeighted;
    if (backend == "heap") {
      if (!w) return catalog::prepare(v.input, graph());
      WeightedGraph<std::uint32_t> wg = weighted();
      return catalog::prepare(v.input, wg.unweighted(), wg);
    }
    std::string path = write(backend + (w ? "_w.pgr" : ".pgr"), w,
                             backend == "v2");
    if (w) {
      WeightedGraph<std::uint32_t> wg = read_weighted_pgr(path);
      return catalog::prepare(v.input, wg.unweighted(), wg);
    }
    return catalog::prepare(v.input, read_pgr(path));
  }
};

// --- every row on every backend vs the sequential oracle ---------------------

void expect_matches_oracle(const Variant& v, const Output& out,
                           const catalog::Inputs& in, VertexId source) {
  std::string family = v.family->name;
  std::string what = family + "/" + v.name;
  if (family == "bfs") {
    EXPECT_EQ(std::get<std::vector<std::uint32_t>>(out), seq_bfs(in.g, source))
        << what;
  } else if (family == "sssp") {
    EXPECT_EQ(std::get<std::vector<Dist>>(out), dijkstra(in.wg, source))
        << what;
  } else if (family == "scc") {
    EXPECT_EQ(canon(std::get<std::vector<SccLabel>>(out)),
              canon(tarjan_scc(in.g)))
        << what;
  } else if (family == "bcc") {
    BccResult want = hopcroft_tarjan_bcc(in.g);
    const BccResult& got = std::get<BccResult>(out);
    EXPECT_EQ(canon(got.edge_label), canon(want.edge_label)) << what;
    EXPECT_EQ(got.num_bccs, want.num_bccs) << what;
  } else if (family == "cc") {
    EXPECT_EQ(canon(std::get<std::vector<VertexId>>(out)),
              canon(union_find_cc(in.g)))
        << what;
  } else if (family == "kcore") {
    EXPECT_EQ(std::get<std::vector<std::uint32_t>>(out), seq_kcore(in.g))
        << what;
  } else if (family == "pagerank") {
    // Same math, different summation order: agree to well below epsilon.
    PagerankResult want = seq_pagerank(in.g, in.gt);
    const PagerankResult& got = std::get<PagerankResult>(out);
    ASSERT_EQ(got.rank.size(), want.rank.size()) << what;
    EXPECT_EQ(got.iterations, want.iterations) << what;
    double l1 = 0;
    for (std::size_t i = 0; i < want.rank.size(); ++i) {
      l1 += std::fabs(got.rank[i] - want.rank[i]);
    }
    EXPECT_LT(l1, 1e-9) << what;
  } else if (family == "tc") {
    EXPECT_EQ(std::get<std::uint64_t>(out), seq_tc(in.g)) << what;
  } else {
    ADD_FAILURE() << "no oracle for family " << family;
  }
}

TEST_F(CatalogTest, EveryRowMatchesAcrossBackendsAndTheOracle) {
  ASSERT_EQ(catalog::variants().size(), 27u);
  for (const Variant& v : catalog::variants()) {
    for (bool batch : {false, true}) {
      if (!runs_in(v, batch)) continue;
      SCOPED_TRACE(std::string(v.family->name) + "/" + v.name +
                   (batch ? " batch" : ""));
      catalog::Inputs heap = open(v, "heap");
      catalog::Run expected = run_row(v, heap, batch);
      ASSERT_EQ(expected.outputs.size(), batch ? kSources.size() : 1u);
      for (const std::string backend : {"mmap", "v2"}) {
        catalog::Run got = run_row(v, open(v, backend), batch);
        EXPECT_EQ(got.outputs, expected.outputs) << backend;
      }
      for (std::size_t i = 0; i < expected.outputs.size(); ++i) {
        VertexId source = batch ? kSources[i] : 0;
        expect_matches_oracle(v, expected.outputs[i], heap, source);
      }
      // The family formatter renders every output.
      EXPECT_FALSE(
          v.family->result_line(expected.outputs.front(), heap).empty());
    }
  }
}

// --- name sets ---------------------------------------------------------------

TEST_F(CatalogTest, DriverVariantSetsAndDefaults) {
  const std::map<std::string, std::vector<std::string>> expected = {
      {"bfs", {"pasgal", "gbbs", "gapbs", "seq", "ms"}},
      {"sssp", {"rho", "delta", "bf", "em", "seq"}},
      {"scc", {"pasgal", "gbbs", "multistep", "seq"}},
      {"bcc", {"pasgal", "gbbs", "tv", "seq"}},
      {"cc", {"uf", "lp", "ldd"}},
      {"kcore", {"pasgal", "seq"}},
      {"pagerank", {"pasgal", "seq"}},
      {"tc", {"pasgal", "seq"}},
  };
  std::size_t rows = 0;
  for (const auto& [family, names] : expected) {
    EXPECT_EQ(catalog::names(family), names) << family;
    ASSERT_NE(catalog::find_family(family), nullptr) << family;
    rows += names.size();
  }
  EXPECT_EQ(rows, catalog::variants().size());
  EXPECT_EQ(catalog::find_family("nope"), nullptr);
  EXPECT_EQ(catalog::find("bfs", "nope"), nullptr);
}

TEST_F(CatalogTest, NamesAreUniqueWithinEachFamily) {
  std::set<std::pair<std::string, std::string>> seen;
  for (const Variant& v : catalog::variants()) {
    EXPECT_TRUE(seen.emplace(v.family->name, v.name).second)
        << v.family->name << "/" << v.name;
    EXPECT_EQ(catalog::find(v.family->name, v.name), &v);
  }
}

TEST_F(CatalogTest, EveryServedPairResolvesToItsRow) {
  struct Mode {
    bool batch;
    std::map<std::string, std::vector<std::string>> verbs;  // default first
  };
  const Mode modes[] = {
      {false,
       {{"bfs", {"pasgal", "gbbs"}},
        {"sssp", {"rho", "delta", "em"}},
        {"cc", {"uf", "lp", "ldd"}},
        {"kcore", {"pasgal", "seq"}},
        {"pagerank", {"pasgal", "seq"}},
        {"tc", {"pasgal", "seq"}}}},
      {true, {{"bfs", {"ms"}}, {"sssp", {"rho", "delta"}}}},
  };
  std::size_t pairs = 0;
  for (const Mode& mode : modes) {
    for (const auto& [verb, algos] : mode.verbs) {
      EXPECT_TRUE(catalog::serves(verb)) << verb;
      EXPECT_EQ(catalog::served(verb, "", mode.batch).name, algos.front());
      for (const std::string& algo : algos) {
        const Variant& v = catalog::served(verb, algo, mode.batch);
        EXPECT_EQ(&v, catalog::find(verb, algo)) << verb << " " << algo;
        EXPECT_TRUE(mode.batch ? v.run_batch != nullptr : v.run != nullptr)
            << verb << " " << algo;
        ++pairs;
      }
      try {
        catalog::served(verb, "nope", mode.batch);
        ADD_FAILURE() << verb << ": unknown algo must throw";
      } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::kUsage);
        std::string list = algos.front();
        for (std::size_t i = 1; i < algos.size(); ++i) list += "|" + algos[i];
        EXPECT_NE(std::string(e.what()).find(list), std::string::npos)
            << e.what();
      }
    }
  }
  // No row is served beyond the pairs above.
  std::size_t served_bits = 0;
  for (const Variant& v : catalog::variants()) {
    served_bits += ((v.served & catalog::kServedSingle) != 0) +
                   ((v.served & catalog::kServedBatch) != 0);
  }
  EXPECT_EQ(served_bits, pairs);
  EXPECT_FALSE(catalog::serves("scc"));
  EXPECT_FALSE(catalog::serves("bcc"));
  EXPECT_FALSE(catalog::serves("nope"));
}

// --- in_core / overlay columns ---------------------------------------------
//
// The entry points' guards read these columns, so each column is also
// checked against behaviour: a variant cleared to run sharded must produce
// its heap output through a windowed open, one cleared to see an overlay
// must produce its output on the rebuilt graph. The pinned sets below are
// the behaviour contract the guards enforce.

std::string id(const Variant& v) {
  return std::string(v.family->name) + "/" + v.name;
}

// Runs `v` on `in`; on a typed kUsage error whose message contains
// `needle` returns nullopt, any other failure fails the test.
std::optional<catalog::Run> try_run(const Variant& v,
                                    const catalog::Inputs& in,
                                    const std::string& needle) {
  try {
    return run_row(v, in);
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUsage) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    return std::nullopt;
  }
}

TEST_F(CatalogTest, InCoreColumnMatchesWindowedOpens) {
  const std::set<std::string> sharded_ok = {"bfs/gbbs", "sssp/em",
                                            "pagerank/pasgal"};
  PgrShardSpec spec;
  spec.window_bytes = 1 << 10;
  // Compressed files open windowed: no whole-graph targets span exists.
  Graph g = read_pgr(write("shard.pgr", false, true), PgrOpen::kMmap, false,
                     nullptr, spec);
  ASSERT_TRUE(g.windowed());
  WeightedGraph<std::uint32_t> wg =
      read_weighted_pgr(write("shard_w.pgr", true, true), PgrOpen::kMmap,
                        false, nullptr, spec);
  for (const Variant& v : catalog::variants()) {
    ASSERT_EQ(!v.in_core, sharded_ok.count(id(v)) == 1) << id(v);
    // Hand the sharded open straight to the runner: symmetrize() itself
    // refuses a sharded graph, and this checks the entry point's guard.
    catalog::Inputs in;
    if (v.input == Input::kWeighted) {
      in.wg = wg;
      in.g = wg.unweighted();
    } else {
      in.g = g;
      in.gt = g.transpose();  // the embedded, equally windowed transpose
    }
    std::optional<catalog::Run> got = try_run(v, in, "windowed");
    EXPECT_EQ(!got.has_value(), v.in_core) << id(v);
    if (got) {
      EXPECT_EQ(got->outputs, run_row(v, open(v, "heap")).outputs) << id(v);
    }
  }
}

TEST_F(CatalogTest, OverlayColumnMatchesOverlaidGraphs) {
  const std::set<std::string> overlay_ok = {"bfs/gbbs", "pagerank/pasgal",
                                            "pagerank/seq"};
  for (const Variant& v : catalog::variants()) {
    ASSERT_EQ(v.overlay, overlay_ok.count(id(v)) == 1) << id(v);
    Graph g = graph();
    Graph gt = g.transpose();  // memoized: the overlay reaches it too
    // One new edge out of vertex 0.
    VertexId to = 1;
    for (VertexId u : g.neighbors(0)) to = std::max(to, u + 1);
    std::vector<EdgeUpdate> batch = {{EdgeUpdate::Op::kInsert, 0, to}};
    apply_updates(g, batch);
    ASSERT_TRUE(g.has_delta());
    catalog::Inputs in;
    in.g = g;
    in.gt = gt;
    if (v.input == Input::kWeighted) {
      in.wg = WeightedGraph<std::uint32_t>(
          g, std::vector<std::uint32_t>(g.num_edges(), 1));
    }
    std::optional<catalog::Run> got = try_run(v, in, "overlay");
    EXPECT_EQ(got.has_value(), v.overlay) << id(v);
    if (got) {
      catalog::Inputs rebuilt = catalog::prepare(v.input,
                                                 materialize_effective(g));
      EXPECT_EQ(got->outputs, run_row(v, rebuilt).outputs) << id(v);
    }
  }
}

// --- validate_metrics' family whitelist --------------------------------------

Status validate(const MetricsDoc& doc) {
  json::Value parsed;
  Status st = json::parse(doc.to_json(), parsed);
  return st.ok() ? validate_metrics(parsed) : st;
}

TEST_F(CatalogTest, ValidateMetricsKnowsEveryFamily) {
  std::set<std::string> families;
  for (const Variant& v : catalog::variants()) {
    if (v.run == nullptr || !families.insert(v.family->name).second) continue;
    catalog::Inputs in = open(v, "heap");
    catalog::Run r = v.run(in, {});
    MetricsDoc doc(v.family->name, v.name, "rmat:8:1200:5",
                   in.g.num_vertices(), in.g.num_edges());
    if (v.family->result_params != nullptr) {
      v.family->result_params(r.outputs.front(), doc);
    }
    doc.add_trial(r.seconds, r.telemetry);
    Status st = validate(doc);
    EXPECT_TRUE(st.ok()) << v.family->name << ": " << st.message();
  }
  EXPECT_EQ(families.size(), 8u);

  Tracer empty;
  MetricsDoc unknown("nope", "pasgal", "chain:4", 4, 3);
  unknown.add_trial(0.0, empty.aggregate());
  EXPECT_FALSE(validate(unknown).ok());
  MetricsDoc tool("graph_gen", "generate", "chain:4", 4, 3);
  tool.add_trial(0.0, empty.aggregate());
  EXPECT_TRUE(validate(tool).ok()) << validate(tool).message();
}

}  // namespace
}  // namespace pasgal
