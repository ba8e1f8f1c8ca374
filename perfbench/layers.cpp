// Per-layer metrics of the traced run: telemetry-derived counts from kernel
// calls, and microbenches that call each layer's public functions directly
// on the workload's graph (parlay, edge_map, hashbag, vgc, graphs,
// telemetry), plus the paper-comparison and repeatability diagnostics.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>

#include "common.h"
#include "graphs/delta.h"
#include "graphs/graph_io.h"
#include "parlay/hash_rng.h"
#include "parlay/parallel.h"
#include "parlay/scheduler.h"
#include "pasgal/edge_map.h"
#include "pasgal/hashbag.h"
#include "pasgal/vgc.h"

namespace perfbench {

using namespace pasgal;

namespace {

double spread(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double m = median(v);
  auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return m > 0 ? (*hi - *lo) / m : 0;
}

// Median per-item time of `reps` timed calls of `body`, which returns the
// number of items it processed.
template <typename F>
double per_item(int reps, double scale, F&& body) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    Clock::time_point t0 = Clock::now();
    double items = body();
    double dt = seconds_since(t0);
    if (items > 0) v.push_back(dt * scale / items);
  }
  return median(v);
}

// ~ns of sequential work per call; kept opaque to the optimizer.
std::uint64_t spin(std::uint64_t iters, std::uint64_t x) {
  for (std::uint64_t i = 0; i < iters; ++i) x = hash64(x + i);
  return x;
}

std::vector<VertexId> random_frontier(std::size_t n, double frac,
                                      std::uint64_t seed) {
  std::vector<VertexId> out;
  Random rng(seed);
  for (std::size_t v = 0; v < n; ++v) {
    if (static_cast<double>(rng.ith_rand(v) >> 11) / 9007199254740992.0 < frac) {
      out.push_back(static_cast<VertexId>(v));
    }
  }
  if (out.empty()) out.push_back(0);
  return out;
}

void parlay_bench(Ctx& ctx) {
  ScopedSpan span(ctx.spans, "parlay.rounds");
  const int P = num_workers();
  std::vector<std::uint64_t> sink(64);
  auto batch_us = [&](int rounds, std::uint64_t leaf_iters) {
    std::vector<double> per_round;
    for (int b = 0; b < 15; ++b) {
      Clock::time_point t0 = Clock::now();
      for (int r = 0; r < rounds; ++r) {
        parallel_for(0, 64, [&](std::size_t i) { sink[i] = spin(leaf_iters, i + r); }, 1);
      }
      per_round.push_back(seconds_since(t0) * 1e6 / rounds);
    }
    return median(per_round);
  };
  ctx.put("parlay.round_empty_us", batch_us(200, 0), "us");

  // ~145 us of work per round at P=1, split over 64 leaves.
  Clock::time_point t0 = Clock::now();
  std::uint64_t x = spin(2000000, 1);
  double ns_per_iter = seconds_since(t0) * 1e9 / 2e6;
  sink[0] = x;
  std::uint64_t leaf_iters =
      static_cast<std::uint64_t>(145000.0 / 64.0 / std::max(ns_per_iter, 0.01));
  double loaded_p = batch_us(20, leaf_iters);
  Scheduler::reset(1);
  double loaded_1 = batch_us(20, leaf_iters);
  Scheduler::reset(P);
  ctx.put("parlay.round_loaded_speedup", loaded_1 / loaded_p, "x");
  ctx.attempted.fetch_add(1);
}

void edge_map_bench(Ctx& ctx, const Bundle& b) {
  const Graph& g = b.g;
  std::size_t n = g.num_vertices();
  std::vector<double> sparse_ns, sparse_ms, dense_ns, dense_ms;
  auto visited = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  std::vector<VertexId> sparse_front = random_frontier(n, 0.01, ctx.args.seed + 1);
  {
    ScopedSpan span(ctx.spans, "edge_map.sparse");
    for (int r = 0; r < 10; ++r) {
      parallel_for(0, n, [&](std::size_t v) { visited[v].store(0, std::memory_order_relaxed); });
      for (VertexId v : sparse_front) visited[v].store(1, std::memory_order_relaxed);
      VertexSubset fr = VertexSubset::sparse(n, sparse_front);
      Tracer t;
      Clock::time_point t0 = Clock::now();
      VertexSubset out = edge_map_sparse(
          g, fr,
          [&](VertexId, VertexId v) {
            std::uint8_t expect = 0;
            return visited[v].compare_exchange_strong(expect, 1);
          },
          [&](VertexId v) { return visited[v].load(std::memory_order_relaxed) == 0; },
          {}, &t);
      double dt = seconds_since(t0);
      ctx.attempted.fetch_add(1);
      if (out.size() > n) ctx.fail("edge_map_sparse: frontier larger than n");
      if (t.edges_scanned() > 0) sparse_ns.push_back(dt * 1e9 / static_cast<double>(t.edges_scanned()));
      sparse_ms.push_back(dt * 1e3);
    }
  }
  {
    ScopedSpan span(ctx.spans, "edge_map.dense");
    std::vector<VertexId> dense_front = random_frontier(n, 0.5, ctx.args.seed + 2);
    std::vector<std::uint8_t> vis(n);
    for (int r = 0; r < 10; ++r) {
      std::vector<std::uint8_t> mask(n, 0);
      std::fill(vis.begin(), vis.end(), 0);
      for (VertexId v : dense_front) mask[v] = vis[v] = 1;
      VertexSubset fr = VertexSubset::dense(std::move(mask), dense_front.size());
      Tracer t;
      Clock::time_point t0 = Clock::now();
      VertexSubset out = edge_map_dense(
          g, b.gt, fr,
          [&](VertexId, VertexId v) {
            if (vis[v]) return false;
            vis[v] = 1;
            return true;
          },
          [&](VertexId v) { return vis[v] == 0; }, {}, &t);
      double dt = seconds_since(t0);
      ctx.attempted.fetch_add(1);
      if (out.size() + dense_front.size() > n) ctx.fail("edge_map_dense: activated a frontier vertex");
      if (t.edges_scanned() > 0) dense_ns.push_back(dt * 1e9 / static_cast<double>(t.edges_scanned()));
      dense_ms.push_back(dt * 1e3);
    }
  }
  ctx.put("edge_map.sparse_ns_per_edge", median(sparse_ns), "ns");
  ctx.put("edge_map.dense_ns_per_edge", median(dense_ns), "ns");
  ctx.put("edge_map.sparse_round_ms", median(sparse_ms), "ms");
  ctx.put("edge_map.dense_round_ms", median(dense_ms), "ms");
}

void hashbag_bench(Ctx& ctx, std::size_t n) {
  ScopedSpan span(ctx.spans, "hashbag.insert_extract");
  std::vector<double> ins, ext;
  for (int r = 0; r < 5; ++r) {
    HashBag<VertexId> bag;
    Clock::time_point t0 = Clock::now();
    parallel_for(0, n, [&](std::size_t i) { bag.insert(static_cast<VertexId>(i)); });
    ins.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
    t0 = Clock::now();
    std::vector<VertexId> out = bag.extract_all();
    ext.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
    ctx.attempted.fetch_add(1);
    if (out.size() != n) ctx.fail("hashbag: extracted " + std::to_string(out.size()) + " of " + std::to_string(n));
  }
  ctx.put("hashbag.insert_ns", median(ins), "ns");
  ctx.put("hashbag.extract_ns_per_elem", median(ext), "ns");
}

void vgc_bench(Ctx& ctx, const Graph& g) {
  ScopedSpan span(ctx.spans, "vgc.local_search");
  std::size_t n = g.num_vertices();
  std::vector<VertexId> roots = random_frontier(n, 0.01, ctx.args.seed + 3);
  auto claimed = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  double ns = per_item(3, 1e9, [&] {
    parallel_for(0, n, [&](std::size_t v) { claimed[v].store(0, std::memory_order_relaxed); });
    HashBag<VertexId> next;
    auto try_mark = [&](VertexId v) {
      std::uint8_t expect = 0;
      return claimed[v].compare_exchange_strong(expect, 1);
    };
    std::uint64_t expanded = 0;
    for (VertexId r : roots) {
      if (try_mark(r)) expanded += local_search(g, r, VgcParams{}, try_mark, next);
    }
    ctx.attempted.fetch_add(1);
    if (expanded == 0) ctx.fail("vgc: local searches expanded nothing");
    return static_cast<double>(expanded);
  });
  ctx.put("vgc.local_search_ns_per_vertex", ns, "ns");
}

void graphs_bench(Ctx& ctx, const Bundle& b) {
  const Graph& g = b.g;
  std::size_t n = g.num_vertices();
  std::string dir = ctx.dir + "/layers";
  std::filesystem::create_directories(dir);
  {
    ScopedSpan span(ctx.spans, "graphs.v2_decode");
    std::vector<double> mb_s;
    for (int r = 0; r < 3; ++r) {
      std::string path = dir + "/v2_" + std::to_string(r) + ".pgr";
      PgrWriteOptions w;
      w.compress_targets = true;
      write_pgr(g, path, w);
      PgrOpenStats st;
      Graph v = read_pgr(path, PgrOpen::kMmap, false, &st);
      ctx.attempted.fetch_add(1);
      if (v.num_edges() != g.num_edges() ||
          !std::equal(v.targets().begin(), v.targets().end(), g.targets().begin())) {
        ctx.fail("v2 decode: targets differ from the raw graph");
      }
      if (st.decode_wall_ns > 0) {
        mb_s.push_back(static_cast<double>(st.encoded_target_bytes) / 1e6 /
                       (static_cast<double>(st.decode_wall_ns) / 1e9));
      }
    }
    ctx.put("graphs.v2_decode_mb_s", median(mb_s), "MB/s");
  }
  {
    // Toggle a seeded pool of candidate edges (present base edges and absent
    // ones) on a private heap copy, 16 updates per batch.
    ScopedSpan span(ctx.spans, "graphs.delta_apply");
    Graph copy(std::vector<EdgeId>(g.offsets().begin(), g.offsets().end()),
               std::vector<VertexId>(g.targets().begin(), g.targets().end()));
    Random rng(ctx.args.seed + 4);
    std::vector<std::pair<VertexId, VertexId>> cand;
    std::set<std::pair<VertexId, VertexId>> seen;
    std::vector<bool> present;
    for (std::uint64_t i = 0; cand.size() < 256 && i < 100000; ++i) {
      VertexId u = static_cast<VertexId>(rng.ith_rand(2 * i, n));
      auto nb = g.neighbors(u);
      VertexId v = (i % 2 == 0 && !nb.empty())
                       ? nb[rng.ith_rand(2 * i + 1, nb.size())]
                       : static_cast<VertexId>(rng.ith_rand(2 * i + 1, n));
      if (u == v || !seen.insert({u, v}).second) continue;
      cand.push_back({u, v});
      present.push_back(std::find(nb.begin(), nb.end(), v) != nb.end());
    }
    std::vector<double> us;
    for (int batch = 0; batch < 30; ++batch) {
      std::vector<EdgeUpdate> ups;
      std::set<std::size_t> picked;
      for (std::uint64_t j = 0; picked.size() < std::min<std::size_t>(16, cand.size()); ++j) {
        picked.insert(rng.ith_rand(1000003 * (batch + 1) + j, cand.size()));
      }
      for (std::size_t k : picked) {
        // present[] tracks the effective graph (base + overlay).
        EdgeUpdate e;
        e.from = cand[k].first;
        e.to = cand[k].second;
        e.op = present[k] ? EdgeUpdate::Op::kDelete : EdgeUpdate::Op::kInsert;
        ups.push_back(e);
        present[k] = !present[k];
      }
      Clock::time_point t0 = Clock::now();
      ApplyStats st;
      ctx.attempted.fetch_add(1);
      try {
        st = apply_updates(copy, ups);
      } catch (const std::exception& e) {
        ctx.fail(std::string("apply_updates: ") + e.what());
        break;
      }
      us.push_back(seconds_since(t0) * 1e6);
      if (st.batch_inserts + st.batch_deletes != ups.size()) {
        ctx.fail("apply_updates: batch op counts disagree");
      }
    }
    ctx.put("graphs.delta_apply_us", median(us), "us");
  }
  std::filesystem::remove_all(dir);
}

void telemetry_bench(Ctx& ctx, const Bundle& b) {
  std::vector<double> gbbs_ms;
  RunTelemetry tel;
  double tel_s = 0;
  {
    ScopedSpan span(ctx.spans, "ref.gbbs_bfs");
    for (std::size_t i = 0; i < std::min<std::size_t>(4, b.bfs_sources.size()); ++i) {
      AlgoOptions opt;
      opt.source = b.bfs_sources[i];
      ctx.attempted.fetch_add(1);
      auto r = gbbs_bfs(b.g, b.gt, opt);
      gbbs_ms.push_back(r.seconds * 1e3);
      if (r.output != seq_bfs(b.g, opt.source)) ctx.fail("gbbs_bfs: differs from seq_bfs");
      tel = std::move(r.telemetry);
      tel_s = r.seconds;
    }
  }
  ctx.put("ref.gbbs_bfs_ms", median(gbbs_ms), "ms");
  ScopedSpan span(ctx.spans, "telemetry.serialize");
  MetricsDoc doc("bfs", "gbbs", "bench.pgr", b.g.num_vertices(), b.g.num_edges());
  doc.set_param("source", static_cast<std::uint64_t>(b.bfs_sources.back()));
  doc.add_trial(tel_s, tel);
  std::size_t bytes = 0;
  double us = per_item(20, 1e6, [&] {
    bytes += doc.to_json().size();
    return 1.0;
  });
  ctx.attempted.fetch_add(1);
  if (bytes == 0) ctx.fail("MetricsDoc::to_json produced nothing");
  ctx.put("telemetry.serialize_us", us, "us");
}

// Self-relative speedup T(P=1) / T(P) per family from the first source, and
// the call-to-call spread of BFS rounds and edges at a fixed source.
void speedup_and_repeatability(Ctx& ctx, const Bundle& b) {
  const int P = num_workers();
  ScopedSpan span(ctx.spans, "bench.speedup");
  auto time_family = [&](Family f, int reps) {
    VertexId s = f == Family::kSssp ? b.sssp_sources[0] : b.bfs_sources[0];
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
      Call c = run_call(ctx, b, f, s, nullptr);
      if (c.seconds > 0) v.push_back(c.seconds);
    }
    return median(v);
  };
  double tp[4], t1[4];
  for (int f = 0; f < 4; ++f) tp[f] = time_family(static_cast<Family>(f), 3);
  Scheduler::reset(1);
  for (int f = 0; f < 4; ++f) t1[f] = time_family(static_cast<Family>(f), f == 0 ? 3 : 1);
  Scheduler::reset(P);
  for (int f = 0; f < 4; ++f) {
    ctx.put(std::string("speedup.") + kFamilyName[f], tp[f] > 0 ? t1[f] / tp[f] : 0, "x");
  }

  std::vector<double> rounds, edges;
  for (int r = 0; r < 8; ++r) {
    Call c = run_call(ctx, b, Family::kBfs, b.bfs_sources[0], nullptr);
    rounds.push_back(static_cast<double>(c.telemetry.rounds.size()));
    edges.push_back(static_cast<double>(c.telemetry.edges_scanned));
  }
  ctx.put("bfs.rounds_spread", spread(rounds), "frac");
  ctx.put("bfs.edges_scanned_spread", spread(edges), "frac");
}

}  // namespace

void kernel_layer_metrics(Ctx& ctx, const Bundle& b, const std::vector<Call>& calls) {
  double n = static_cast<double>(b.g.num_vertices());
  double m = static_cast<double>(b.g.num_edges());
  std::map<std::string, std::vector<double>> v;
  std::uint64_t steals = 0, busy = 0, idle = 0;
  for (const Call& c : calls) {
    const RunTelemetry& t = c.telemetry;
    std::string fam = kFamilyName[static_cast<int>(c.family)];
    double round_ns = 0, local = 0;
    for (const RoundTrace& r : t.rounds) {
      round_ns += static_cast<double>(r.wall_ns);
      if (r.kind == RoundKind::kLocal) {
        ++local;
        if (c.family == Family::kBfs) v["local_round_ms"].push_back(static_cast<double>(r.wall_ns) / 1e6);
      }
    }
    std::map<std::string, double> phase_ms;
    double phase_ns = 0;
    for (const PhaseTiming& p : t.phases) {
      phase_ms[p.name] += static_cast<double>(p.ns) / 1e6;
      phase_ns += static_cast<double>(p.ns);
    }
    for (auto& [name, ms] : phase_ms) v[fam + ".phase." + name].push_back(ms);
    v[fam + ".rounds"].push_back(static_cast<double>(t.rounds.size()));
    v[fam + ".edges"].push_back(static_cast<double>(t.edges_scanned));
    v[fam + ".visits"].push_back(static_cast<double>(t.vertices_visited));
    v[fam + ".local_rounds"].push_back(local);
    if (c.family == Family::kBfs || c.family == Family::kSssp) {
      v["bag_inserts"].push_back(static_cast<double>(t.hashbag.inserts));
      v["bag_advances"].push_back(static_cast<double>(t.hashbag.block_advances));
    }
    // Wall time not charged to a named round or phase. Phases enclose the
    // rounds run inside them, so a call with phases is attributed by phase.
    double attributed = phase_ns > 0 ? phase_ns : round_ns;
    if (c.seconds > 0) v["unattributed"].push_back(1.0 - attributed / (c.seconds * 1e9));
    WorkerCounters w = t.scheduler.total();
    steals += w.steals;
    busy += w.busy_ns;
    idle += w.idle_ns;
  }
  ctx.put("bfs.rounds", median(v["bfs.rounds"]), "count");
  ctx.put("bfs.edges_scanned", median(v["bfs.edges"]), "count");
  ctx.put("scc.rounds", median(v["scc.rounds"]), "count");
  for (const char* p : {"trim", "partition", "pivot_rounds"}) {
    ctx.put(std::string("scc.phase.") + p + "_ms", median(v[std::string("scc.phase.") + p]), "ms");
  }
  for (const char* p : {"spanning_forest", "euler_tour", "skeleton"}) {
    ctx.put(std::string("bcc.phase.") + p + "_ms", median(v[std::string("bcc.phase.") + p]), "ms");
  }
  ctx.put("sssp.rounds", median(v["sssp.rounds"]), "count");
  ctx.put("sssp.edges_scanned", median(v["sssp.edges"]), "count");
  ctx.put("algorithms.unattributed_frac", median(v["unattributed"]), "frac");
  ctx.put("edge_map.edges_per_m", median(v["bfs.edges"]) / m, "x");
  ctx.put("vgc.rounds_per_call", mean(v["bfs.local_rounds"]), "count");
  ctx.put("vgc.visits_per_n", median(v["bfs.visits"]) / n, "x");
  ctx.put("vgc.local_round_ms", median(v["local_round_ms"]), "ms");
  ctx.put("hashbag.inserts_per_call", mean(v["bag_inserts"]), "count");
  ctx.put("hashbag.advances_per_call", mean(v["bag_advances"]), "count");
  ctx.put("parlay.busy_frac",
          busy + idle ? static_cast<double>(busy) / static_cast<double>(busy + idle) : 0,
          "frac");
  ctx.put("parlay.steals_per_call",
          calls.empty() ? 0 : static_cast<double>(steals) / static_cast<double>(calls.size()),
          "count");
}

void layer_microbenches(Ctx& ctx, const Bundle& b) {
  parlay_bench(ctx);
  edge_map_bench(ctx, b);
  hashbag_bench(ctx, b.g.num_vertices());
  vgc_bench(ctx, b.g);
  graphs_bench(ctx, b);
  telemetry_bench(ctx, b);
  speedup_and_repeatability(ctx, b);
}

void graphs_setup_metrics(Ctx& ctx, const std::vector<SetupTimes>& setups,
                          double first_touch_ms) {
  std::vector<double> gen, write, open, validate, transpose;
  for (const SetupTimes& s : setups) {
    gen.push_back(s.generate_s);
    write.push_back(s.write_s);
    open.push_back(s.open_s * 1e3);
    if (s.validate_s > 0) validate.push_back(s.validate_bytes / 1e6 / s.validate_s);
    transpose.push_back(s.transpose_s * 1e3);
  }
  ctx.put("graphs.generate_s", median(gen), "s");
  ctx.put("graphs.write_pgr_s", median(write), "s");
  ctx.put("graphs.open_ms", median(open), "ms");
  ctx.put("graphs.validate_mb_s", median(validate), "MB/s");
  ctx.put("graphs.transpose_ms", median(transpose), "ms");
  ctx.put("graphs.first_touch_ms", first_touch_ms, "ms");
}

void span_metrics(Ctx& ctx) {
  std::map<std::string, double> self = ctx.spans.self_ms_by_layer();
  for (const char* layer : {"bench", "graphs", "algorithms", "ref", "parlay",
                            "edge_map", "hashbag", "vgc", "serve", "telemetry"}) {
    ctx.put(std::string("self.") + layer + "_ms", self[layer], "ms");
  }
}

}  // namespace perfbench
