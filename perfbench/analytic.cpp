// Kernel workloads: road-hd (high diameter) and social-ld (low diameter).
//
// One process at P workers calls the run_api entry points in a closed loop
// over a fixed mix per cycle: pasgal_bfs from 8 seeded sources, pasgal_scc,
// fast_bcc, and rho-stepping_sssp from 2 seeded sources. Sources rotate over
// 64 (BFS) and 16 (SSSP) distinct vertices drawn from the seed. The graphs
// are the fixed generator instances the workloads are named after; the seed
// picks the sources.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>

#include "common.h"
#include "graphs/generators.h"
#include "graphs/graph_io.h"
#include "graphs/storage.h"
#include "parlay/hash_rng.h"

namespace perfbench {

using namespace pasgal;

// --- sources and bundle -----------------------------------------------------

void sync_file(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("open " + path + " for fsync failed");
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("fsync " + path + " failed");
}

std::vector<VertexId> pick_sources(const Graph& g, std::uint64_t seed,
                                   std::size_t k) {
  std::size_t n = g.num_vertices();
  std::vector<VertexId> out;
  Random rng(hash64(seed) ^ 0x5eed);
  for (std::uint64_t i = 0; out.size() < k && i < 64 * n; ++i) {
    VertexId v = static_cast<VertexId>(rng.ith_rand(i, n));
    if (g.out_degree(v) >= 1 &&
        std::find(out.begin(), out.end(), v) == out.end()) {
      out.push_back(v);
    }
  }
  if (out.size() < k) throw std::runtime_error("not enough sources of out-degree >= 1");
  return out;
}

Bundle build_bundle(Ctx& ctx, const std::string& dir, const Graph& generated,
                    std::uint64_t seed, std::size_t k_bfs, std::size_t k_sssp,
                    SetupTimes* times) {
  std::filesystem::create_directories(dir);
  Spans& sp = ctx.spans;
  SetupTimes t;
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan s(sp, "graphs.transpose");
    (void)generated.transpose();  // memoized; write_pgr embeds it
  }
  t.transpose_s = seconds_since(t0);

  t0 = Clock::now();
  {
    ScopedSpan s(sp, "graphs.write_pgr");
    PgrWriteOptions with_t;
    with_t.include_transpose = true;
    write_pgr(generated, dir + "/graph.pgr", with_t);
  }
  t.write_s = seconds_since(t0);
  {
    ScopedSpan s(sp, "graphs.derive_copies");
    PgrWriteOptions sym;
    sym.symmetric = true;
    write_pgr(generated.symmetrize(), dir + "/sym.pgr", sym);
    write_pgr(gen::add_weights(generated), dir + "/weighted.pgr");
    for (const char* f : {"/graph.pgr", "/sym.pgr", "/weighted.pgr"}) sync_file(dir + f);
  }

  Bundle b;
  t0 = Clock::now();
  {
    ScopedSpan s(sp, "graphs.open");
    b.g = read_pgr(dir + "/graph.pgr");
  }
  t.open_s = seconds_since(t0);
  {
    ScopedSpan s(sp, "graphs.open_copies");
    b.gs = read_pgr(dir + "/sym.pgr");
    b.wg = read_weighted_pgr(dir + "/weighted.pgr");
  }

  t0 = Clock::now();
  {
    ScopedSpan s(sp, "graphs.validate");
    b.g.ensure_validated();
  }
  t.validate_s = seconds_since(t0);
  t.validate_bytes = static_cast<double>((b.g.num_vertices() + 1) * sizeof(EdgeId) +
                                         b.g.num_edges() * sizeof(VertexId));
  {
    ScopedSpan s(sp, "graphs.validate_copies");
    b.gt = b.g.transpose();
    b.gt.ensure_validated();
    b.gs.ensure_validated();
    b.wg.ensure_validated();
  }
  b.bfs_sources = pick_sources(b.g, seed, k_bfs);
  b.sssp_sources = pick_sources(b.g, seed + 0x9e3779b9, k_sssp);
  if (times) *times = t;
  return b;
}

// --- output checks ----------------------------------------------------------

namespace {

template <typename T>
std::uint64_t digest(const std::vector<T>& v) {
  return hash_bytes(v.data(), v.size() * sizeof(T));
}

template <typename T>
void keep(Ctx& ctx, const char* family, VertexId s, std::vector<T>&& out,
          std::map<VertexId, std::vector<T>>& first,
          std::map<VertexId, std::uint64_t>& digests) {
  std::uint64_t d = digest(out);
  auto it = digests.find(s);
  if (it == digests.end()) {
    digests.emplace(s, d);
    first.emplace(s, std::move(out));
  } else if (it->second != d) {
    ctx.fail(std::string(family) + " source " + std::to_string(s) +
             ": output differs from the first call's");
  }
}

}  // namespace

void OutputCheck::bfs(Ctx& ctx, VertexId s, std::vector<std::uint32_t>&& d) {
  keep(ctx, "bfs", s, std::move(d), bfs_, bfs_digest_);
}

void OutputCheck::sssp(Ctx& ctx, VertexId s, std::vector<Dist>&& d) {
  keep(ctx, "sssp", s, std::move(d), sssp_, sssp_digest_);
}

void OutputCheck::scc(std::vector<SccLabel>&& labels) {
  if (has_scc_) return;
  scc_ = std::move(labels);
  has_scc_ = true;
}

void OutputCheck::bcc(BccResult&& r) {
  if (has_bcc_) return;
  bcc_ = std::move(r);
  has_bcc_ = true;
}

void OutputCheck::verify(Ctx& ctx, const Bundle& b,
                         std::map<std::string, std::vector<double>>& ref_ms) {
  ScopedSpan root(ctx.spans, "ref.verify");
  bool corrupt = ctx.args.corrupt_oracle;
  auto timed = [&](const char* name, auto&& f) {
    ScopedSpan s(ctx.spans, std::string("ref.") + name);
    Clock::time_point t0 = Clock::now();
    auto out = f();
    ref_ms[name].push_back(seconds_since(t0) * 1e3);
    return out;
  };
  // A deliberately corrupted oracle (self-test) flips one value of the first
  // comparison, which must surface as a failed operation.
  auto maybe_corrupt = [&](auto& v) {
    if (corrupt && !v.empty()) {
      v[0] ^= 1;
      corrupt = false;
    }
  };
  for (auto& [s, out] : bfs_) {
    auto ref = timed("seq_bfs", [&] { return seq_bfs(b.g, s); });
    maybe_corrupt(ref);
    if (ref != out) ctx.fail("bfs source " + std::to_string(s) + ": differs from seq_bfs");
  }
  for (auto& [s, out] : sssp_) {
    auto ref = timed("seq_sssp", [&] { return dijkstra(b.wg, s); });
    maybe_corrupt(ref);
    if (ref != out) ctx.fail("sssp source " + std::to_string(s) + ": differs from dijkstra");
  }
  if (has_scc_) {
    auto ref = normalize_scc_labels(timed("seq_scc", [&] { return tarjan_scc(b.g); }));
    maybe_corrupt(ref);
    if (ref != normalize_scc_labels(scc_)) ctx.fail("scc: differs from tarjan_scc");
  }
  if (has_bcc_) {
    auto ref = normalize_bcc_labels(
        timed("seq_bcc", [&] { return hopcroft_tarjan_bcc(b.gs); }).edge_label);
    maybe_corrupt(ref);
    if (ref != normalize_bcc_labels(bcc_.edge_label)) {
      ctx.fail("bcc: differs from hopcroft_tarjan_bcc");
    }
  }
}

// --- kernel calls -----------------------------------------------------------

Call run_call(Ctx& ctx, const Bundle& b, Family f, VertexId source,
              OutputCheck* check) {
  Call c;
  c.family = f;
  c.source = source;
  ctx.attempted.fetch_add(1);
  ScopedSpan span(ctx.spans, std::string("algorithms.") + kFamilyName[static_cast<int>(f)]);
  AlgoOptions opt;
  opt.source = source;
  try {
    switch (f) {
      case Family::kBfs: {
        auto r = pasgal_bfs(b.g, b.gt, opt);
        c.seconds = r.seconds;
        c.telemetry = std::move(r.telemetry);
        if (check) check->bfs(ctx, source, std::move(r.output));
        break;
      }
      case Family::kScc: {
        auto r = pasgal_scc(b.g, b.gt, opt);
        c.seconds = r.seconds;
        c.telemetry = std::move(r.telemetry);
        if (check) check->scc(std::move(r.output));
        break;
      }
      case Family::kBcc: {
        auto r = fast_bcc(b.gs, opt);
        c.seconds = r.seconds;
        c.telemetry = std::move(r.telemetry);
        if (check) check->bcc(std::move(r.output));
        break;
      }
      case Family::kSssp: {
        auto r = stepping_sssp(b.wg, opt);
        c.seconds = r.seconds;
        c.telemetry = std::move(r.telemetry);
        if (check) check->sssp(ctx, source, std::move(r.output));
        break;
      }
    }
  } catch (const std::exception& e) {
    ctx.fail(std::string(kFamilyName[static_cast<int>(f)]) + ": " + e.what());
    c.seconds = -1;
  }
  ctx.spans.attach(span.id(), c.telemetry);
  return c;
}

namespace {

struct LoopResult {
  std::vector<double> ms[4];  // per family, successful calls only
  std::uint64_t ok = 0;
  double wall_s = 0;
};

// Closed loop over the fixed mix until `seconds` of wall time have passed
// (a started cycle finishes its current call, not the whole cycle).
LoopResult run_mix(Ctx& ctx, const Bundle& b, double seconds, OutputCheck& check,
                   std::vector<Call>* calls) {
  std::vector<std::pair<Family, int>> cycle;
  for (int i = 0; i < 8; ++i) cycle.push_back({Family::kBfs, i});
  cycle.push_back({Family::kScc, 0});
  cycle.push_back({Family::kBcc, 0});
  for (int i = 0; i < 2; ++i) cycle.push_back({Family::kSssp, i});

  LoopResult res;
  ScopedSpan loop(ctx.spans, "bench.loop");
  Clock::time_point start = Clock::now();
  std::size_t bfs_i = 0, sssp_i = 0;
  for (std::size_t step = 0; seconds_since(start) < seconds; ++step) {
    Family f = cycle[step % cycle.size()].first;
    VertexId s = 0;
    if (f == Family::kBfs) s = b.bfs_sources[bfs_i++ % b.bfs_sources.size()];
    if (f == Family::kSssp) s = b.sssp_sources[sssp_i++ % b.sssp_sources.size()];
    Call c = run_call(ctx, b, f, s, &check);
    if (c.seconds < 0) continue;
    res.ms[static_cast<int>(f)].push_back(c.seconds * 1e3);
    ++res.ok;
    if (calls) calls->push_back(std::move(c));
  }
  res.wall_s = seconds_since(start);
  return res;
}

}  // namespace

void run_analytic(Ctx& ctx) {
  const Args& a = ctx.args;
  const bool road = a.workload == "road-hd";
  auto generate = [&]() -> Graph {
    if (road) {
      std::size_t side = a.toy ? 40 : 600;
      return gen::road_grid(side, side, 0.85);
    }
    return a.toy ? gen::rmat(10, 8000) : gen::rmat(17, 2000000);
  };
  const std::size_t k_bfs = a.toy ? 4 : 64;
  const std::size_t k_sssp = a.toy ? 2 : 16;

  // Set up kSetups times (generate, write, open, validate, transpose, warm
  // up) and report the median; the last bundle serves the loop.
  std::vector<double> setup_s;
  std::vector<SetupTimes> setup_times;
  Bundle b;
  double warm_bfs_ms = 0;
  for (int i = 0; i < kSetups; ++i) {
    ScopedSpan s(ctx.spans, "bench.setup");
    Clock::time_point t0 = Clock::now();
    Graph generated;
    Clock::time_point tg = Clock::now();
    {
      ScopedSpan g(ctx.spans, "graphs.generate");
      generated = generate();
    }
    double gen_s = seconds_since(tg);
    std::string dir = ctx.dir + "/setup" + std::to_string(i);
    SetupTimes st;
    b = build_bundle(ctx, dir, generated, a.seed, k_bfs, k_sssp, &st);
    st.generate_s = gen_s;
    generated = Graph();
    {
      // First touch: one call per family, so lazy validation, transpose
      // memoization and page faults are charged here, not to a timed p50.
      ScopedSpan w(ctx.spans, "algorithms.warmup");
      for (int f = 0; f < 4; ++f) {
        Family fam = static_cast<Family>(f);
        VertexId src = fam == Family::kSssp ? b.sssp_sources[0] : b.bfs_sources[0];
        Call c = run_call(ctx, b, fam, src, nullptr);
        if (fam == Family::kBfs) warm_bfs_ms = c.seconds * 1e3;
      }
    }
    setup_s.push_back(seconds_since(t0));
    setup_times.push_back(st);
    if (i > 0) std::filesystem::remove_all(ctx.dir + "/setup" + std::to_string(i - 1));
  }
  ctx.put("setup_s", median(setup_s), "s");

  OutputCheck check;
  std::vector<Call> calls;
  LoopResult loop;
  if (!a.trace) {
    loop = run_mix(ctx, b, a.seconds, check, nullptr);
  } else {
    // Traced run: an untraced half and a traced half of the same loop; the
    // throughput difference between them is the tracing overhead.
    ctx.spans.set_on(false);
    LoopResult plain = run_mix(ctx, b, a.seconds / 2, check, nullptr);
    ctx.spans.set_on(true);
    loop = run_mix(ctx, b, a.seconds / 2, check, &calls);
    double plain_ops = static_cast<double>(plain.ok) / plain.wall_s;
    double traced_ops = static_cast<double>(loop.ok) / loop.wall_s;
    ctx.put("trace.overhead_frac", (plain_ops - traced_ops) / plain_ops, "frac");
    for (int f = 0; f < 4; ++f) {
      loop.ms[f].insert(loop.ms[f].end(), plain.ms[f].begin(), plain.ms[f].end());
    }
  }

  ctx.put("ops_per_s", static_cast<double>(loop.ok) / loop.wall_s, "1/s");
  ctx.put("bfs_p50_ms", median(loop.ms[0]), "ms");
  ctx.put("bfs_tail_ms", quantile(loop.ms[0], 0.9), "ms");
  ctx.put("others_p50_ms",
          geomean({median(loop.ms[1]), median(loop.ms[2]), median(loop.ms[3])}),
          "ms");
  if (loop.ms[0].size() < 100 && !a.toy && !a.trace) {
    std::cerr << "perfbench: warning: only " << loop.ms[0].size()
              << " BFS calls; p90 has fewer than 10 samples beyond it\n";
  }

  std::map<std::string, std::vector<double>> ref_ms;
  check.verify(ctx, b, ref_ms);

  if (a.trace) {
    ctx.put("class.scc_p50_ms", median(loop.ms[1]), "ms");
    ctx.put("class.bcc_p50_ms", median(loop.ms[2]), "ms");
    ctx.put("class.sssp_p50_ms", median(loop.ms[3]), "ms");
    for (const char* r : {"seq_bfs", "seq_scc", "seq_bcc", "seq_sssp"}) {
      ctx.put(std::string("ref.") + r + "_ms", median(ref_ms[r]), "ms");
    }
    kernel_layer_metrics(ctx, b, calls);
    layer_microbenches(ctx, b);
    // First touch: the warm-up BFS minus the median of later calls from the
    // same source.
    std::vector<double> again;
    for (int r = 0; r < 3; ++r) {
      again.push_back(run_call(ctx, b, Family::kBfs, b.bfs_sources[0], nullptr).seconds * 1e3);
    }
    graphs_setup_metrics(ctx, setup_times, warm_bfs_ms - median(again));
    serve_probe(ctx, b.g, ctx.dir + "/serve");
  }
}

}  // namespace perfbench
