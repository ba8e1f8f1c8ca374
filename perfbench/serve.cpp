// serve-mixed workload: an in-process pasgal::Server on a scratch unix
// socket, driven in a closed loop by 3 client connections.
//
//   * clients 0 and 1 send short reads: `bfs graph=<grid> source=<s>
//     algo=gbbs` on a grid:300:300 .pgr. The reads name gbbs because the
//     default pasgal BFS refuses graphs with pending updates ([usage]).
//   * client 2 repeats: 4 x (seeded `update` batch of 16 edge toggles on the
//     same grid, short read), one `compact`, one `pagerank` (long read) on a
//     v2-compressed road .pgr.
//
// Every response must be `ok ...` with the expected counters or a metrics
// document that passes validate_metrics; after the loop the served grid
// (base + overlay) is checked edge by edge and by BFS against seq_bfs.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <set>
#include <thread>

#include "common.h"
#include "graphs/delta.h"
#include "graphs/generators.h"
#include "graphs/graph_io.h"
#include "graphs/registry.h"
#include "parlay/hash_rng.h"
#include "pasgal/server.h"

namespace perfbench {

using namespace pasgal;

namespace {

// Per-class latencies and server-layer samples of one client session.
struct ServeLatencies {
  std::vector<double> read_ms, write_ms, compact_ms, long_ms;
  std::vector<double> read_overhead_ms, read_kernel_frac, read_bytes;
  std::vector<double> long_overhead_ms, long_kernel_frac, long_bytes;
  double registry_hits = 0, registry_misses = 0;
};

// --- transport --------------------------------------------------------------

class Client {
 public:
  explicit Client(const std::string& sock) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, sock.c_str(), std::min(sock.size() + 1, sizeof(addr.sun_path) - 1));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      int err = errno;
      ::close(fd_);
      throw std::runtime_error("connect " + sock + ": " + std::strerror(err));
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // One request line out, one response line back (without the newline).
  std::string request(const std::string& line) {
    std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      ssize_t k = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (k <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(k);
    }
    for (;;) {
      std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return resp;
      }
      char chunk[65536];
      ssize_t k = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (k <= 0) throw std::runtime_error("connection closed mid-response");
      buf_.append(chunk, static_cast<std::size_t>(k));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// Owns a bound Server and the thread running it; stops and joins on exit.
class ServerHost {
 public:
  explicit ServerHost(const std::string& sock) : server_(options(sock)) {
    server_.bind();
    thread_ = std::thread([this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        std::cerr << "perfbench: server stopped: " << e.what() << "\n";
      }
    });
  }
  ~ServerHost() {
    server_.request_stop();
    thread_.join();
  }
  ServerHost(const ServerHost&) = delete;
  ServerHost& operator=(const ServerHost&) = delete;

 private:
  static ServerOptions options(const std::string& sock) {
    ServerOptions o;
    o.socket_path = sock;
    o.admission_budget_bytes = std::uint64_t{4} << 30;
    o.poll_tick_ms = 10;
    return o;
  }
  Server server_;
  std::thread thread_;
};

// "ok k1=v1 k2=v2 ..." -> value of `key` (empty if absent).
std::string field(const std::string& resp, const std::string& key) {
  std::string pat = " " + key + "=";
  std::size_t at = resp.find(pat);
  if (at == std::string::npos) return "";
  at += pat.size();
  return resp.substr(at, resp.find(' ', at) - at);
}

// --- candidate edge toggles -------------------------------------------------

// A seeded pool of candidate edges the writer toggles: present base edges
// and absent ones. Tracks the effective state, the state at the last
// compaction, and the effective edge count, so every `update`/`compact`
// response and the final graph can be checked.
struct Toggles {
  std::vector<std::pair<VertexId, VertexId>> cand;
  std::vector<char> present, at_compact;
  std::uint64_t m = 0;

  template <typename Absent>
  Toggles(const Graph& g, std::uint64_t seed, std::size_t k, Absent&& absent) {
    std::size_t n = g.num_vertices();
    Random rng(seed);
    std::set<std::pair<VertexId, VertexId>> seen;
    for (std::uint64_t i = 0; cand.size() < k && i < 64 * k; ++i) {
      VertexId u = static_cast<VertexId>(rng.ith_rand(2 * i, n));
      auto nb = g.neighbors(u);
      VertexId v = (i % 2 == 0 && !nb.empty()) ? nb[rng.ith_rand(2 * i + 1, nb.size())]
                                               : absent(u, rng.ith_rand(2 * i + 1));
      if (v == u || v >= n || !seen.insert({u, v}).second) continue;
      cand.push_back({u, v});
      present.push_back(std::find(nb.begin(), nb.end(), v) != nb.end());
    }
    at_compact = present;
    m = g.num_edges();
  }

  // Flips 16 seeded candidates; returns the request's add=/del= arguments.
  std::string batch(std::uint64_t seed, std::uint64_t index) {
    Random rng(hash64(seed) + index);
    std::set<std::size_t> picked;
    for (std::uint64_t j = 0; picked.size() < std::min<std::size_t>(16, cand.size()); ++j) {
      picked.insert(rng.ith_rand(j, cand.size()));
    }
    std::string add, del;
    for (std::size_t k : picked) {
      std::string& list = present[k] ? del : add;
      if (!list.empty()) list += ",";
      list += std::to_string(cand[k].first) + ":" + std::to_string(cand[k].second);
      m = present[k] ? m - 1 : m + 1;
      present[k] = !present[k];
    }
    std::string out;
    if (!add.empty()) out += " add=" + add;
    if (!del.empty()) out += " del=" + del;
    return out;
  }

  std::uint64_t pending(bool inserts) const {
    std::uint64_t c = 0;
    for (std::size_t k = 0; k < cand.size(); ++k) {
      c += inserts ? (present[k] && !at_compact[k]) : (!present[k] && at_compact[k]);
    }
    return c;
  }
};

// --- one client session -----------------------------------------------------

// Issues requests on one connection, times them, checks each response, and
// records per-class latencies. A failed check counts as a failed operation.
class Session {
 public:
  Session(Ctx& ctx, const std::string& sock, int parent_span)
      : parent_span(parent_span), ctx_(ctx), client_(sock) {}

  int parent_span;  // span the request spans hang under
  ServeLatencies lat;
  std::uint64_t ok = 0;

  std::string send(const std::string& verb, const std::string& line, double* ms,
                   int* span_out = nullptr) {
    ctx_.attempted.fetch_add(1);
    int span = ctx_.spans.begin("serve." + verb, parent_span);
    Clock::time_point t0 = Clock::now();
    std::string resp;
    try {
      resp = client_.request(line);
    } catch (const std::exception& e) {
      resp = std::string("error [io] ") + e.what();
    }
    *ms = seconds_since(t0) * 1e3;
    ctx_.spans.count(span, "response_bytes", static_cast<double>(resp.size()));
    ctx_.spans.end(span);
    if (span_out) *span_out = span;
    return resp;
  }

  void expect_ok(const std::string& line) {
    double ms;
    std::string resp = send(line.substr(0, line.find(' ')), line, &ms);
    if (resp.rfind("ok", 0) != 0) {
      failed(line, resp);
      return;
    }
    ++ok;
  }

  void read(const std::string& graph, VertexId s, std::uint64_t n) {
    query("bfs", "bfs graph=" + graph + " source=" + std::to_string(s) + " algo=gbbs",
          "bfs", "gbbs", n, lat.read_ms, lat.read_overhead_ms, lat.read_kernel_frac,
          lat.read_bytes);
  }

  void pagerank(const std::string& graph, std::uint64_t n) {
    query("pagerank", "pagerank graph=" + graph, "pagerank", "pasgal", n, lat.long_ms,
          lat.long_overhead_ms, lat.long_kernel_frac, lat.long_bytes);
  }

  void update(const std::string& graph, Toggles& t, std::uint64_t seed, std::uint64_t index) {
    std::string line = "update graph=" + graph + t.batch(seed, index);
    double ms;
    std::string resp = send("update", line, &ms);
    if (resp.rfind("ok updated", 0) != 0 ||
        field(resp, "inserts") != std::to_string(t.pending(true)) ||
        field(resp, "deletes") != std::to_string(t.pending(false))) {
      failed(line, resp);
      return;
    }
    ++ok;
    lat.write_ms.push_back(ms);
  }

  void compact(const std::string& graph, Toggles& t) {
    std::string line = "compact graph=" + graph;
    double ms;
    std::string resp = send("compact", line, &ms);
    if (resp.rfind("ok compacted", 0) != 0 ||
        (field(resp, "noop").empty() && field(resp, "m") != std::to_string(t.m))) {
      failed(line, resp);
      return;
    }
    t.at_compact = t.present;
    ++ok;
    lat.compact_ms.push_back(ms);
  }

  // Registry hit/miss counters from the `stats` verb.
  std::pair<double, double> registry() {
    double ms;
    std::string resp = send("stats", "stats", &ms);
    if (resp.rfind("ok", 0) != 0) {
      failed("stats", resp);
      return {0, 0};
    }
    ++ok;
    return {std::stod(field(resp, "hits")), std::stod(field(resp, "misses"))};
  }

 private:
  void failed(const std::string& line, const std::string& resp) {
    ctx_.fail("'" + line + "' -> '" + resp.substr(0, 200) + "'");
  }

  void query(const std::string& verb, const std::string& line, const char* algo,
             const char* variant, std::uint64_t n, std::vector<double>& ms_out,
             std::vector<double>& overhead, std::vector<double>& kernel_frac,
             std::vector<double>& bytes) {
    double ms;
    int span = -1;
    std::string resp = send(verb, line, &ms, &span);
    json::Value doc;
    if (!json::parse(resp, doc).ok() || !validate_metrics(doc).ok()) {
      failed(line, resp);
      return;
    }
    const json::Value* a = doc.find("algo");
    const json::Value* v = doc.find("variant");
    const json::Value* g = doc.find("graph");
    const json::Value* gn = g ? g->find("n") : nullptr;
    const json::Value* trials = doc.find("trials");
    const json::Value* secs =
        trials && !trials->array.empty() ? trials->array[0].find("seconds") : nullptr;
    if (!a || a->str != algo || !v || v->str != variant || !gn ||
        static_cast<std::uint64_t>(gn->number) != n || !secs) {
      failed(line, resp);
      return;
    }
    ++ok;
    double kernel_ms = secs->number * 1e3;
    ms_out.push_back(ms);
    overhead.push_back(ms - kernel_ms);
    kernel_frac.push_back(kernel_ms / ms);
    bytes.push_back(static_cast<double>(resp.size()));
    ctx_.spans.count(span, "kernel_ms", kernel_ms);
  }

  Ctx& ctx_;
  Client client_;
};

void merge(ServeLatencies& into, const ServeLatencies& from) {
  auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(into.read_ms, from.read_ms);
  cat(into.write_ms, from.write_ms);
  cat(into.compact_ms, from.compact_ms);
  cat(into.long_ms, from.long_ms);
  cat(into.read_overhead_ms, from.read_overhead_ms);
  cat(into.read_kernel_frac, from.read_kernel_frac);
  cat(into.read_bytes, from.read_bytes);
  cat(into.long_overhead_ms, from.long_overhead_ms);
  cat(into.long_kernel_frac, from.long_kernel_frac);
  cat(into.long_bytes, from.long_bytes);
}

// Final-state check of a served graph with pending updates: every candidate
// edge is present exactly when the writer left it on, the edge count
// matches, and gbbs_bfs over base + overlay equals seq_bfs on the
// materialized graph.
void check_final_graph(Ctx& ctx, const std::string& path, const Toggles& t,
                       const std::vector<VertexId>& sources) {
  ScopedSpan span(ctx.spans, "ref.final_graph");
  ctx.attempted.fetch_add(1);
  try {
    Graph g = read_pgr(path);
    Graph eff = g.has_delta() ? materialize_effective(g) : g;
    bool ok = eff.num_edges() == t.m;
    for (std::size_t k = 0; ok && k < t.cand.size(); ++k) {
      auto nb = eff.neighbors(t.cand[k].first);
      ok = (std::find(nb.begin(), nb.end(), t.cand[k].second) != nb.end()) ==
           static_cast<bool>(t.present[k]);
    }
    Graph gt = g.transpose();
    for (std::size_t i = 0; ok && i < std::min<std::size_t>(2, sources.size()); ++i) {
      std::vector<std::uint32_t> ref = seq_bfs(eff, sources[i]);
      if (ctx.args.corrupt_oracle && i == 0 && !ref.empty()) ref[0] ^= 1;
      ok = gbbs_bfs(g, gt, sources[i]) == ref;
    }
    if (!ok) ctx.fail("served graph " + path + ": final state differs from the writer's");
  } catch (const std::exception& e) {
    ctx.fail(std::string("final graph check: ") + e.what());
  }
}

struct ServeFiles {
  std::string grid, road;
  std::uint64_t grid_n = 0, road_n = 0;
  Graph grid_graph;
};

ServeFiles write_files(Ctx& ctx, const std::string& dir, SetupTimes* st) {
  const Args& a = ctx.args;
  std::filesystem::create_directories(dir);
  ServeFiles f;
  f.grid = dir + "/grid.pgr";
  f.road = dir + "/road.pgr";
  Graph road;
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan s(ctx.spans, "graphs.generate");
    std::size_t side = a.toy ? 30 : 300;
    f.grid_graph = gen::rectangle_grid(side, side);
    road = gen::road_grid(a.toy ? 30 : 400, a.toy ? 30 : 400, 0.85);
  }
  st->generate_s = seconds_since(t0);
  t0 = Clock::now();
  {
    ScopedSpan s(ctx.spans, "graphs.transpose");
    (void)f.grid_graph.transpose();  // memoized; write_pgr embeds it
  }
  st->transpose_s = seconds_since(t0);
  t0 = Clock::now();
  {
    ScopedSpan s(ctx.spans, "graphs.write_pgr");
    PgrWriteOptions w;
    w.include_transpose = true;
    write_pgr(f.grid_graph, f.grid, w);
    w.compress_targets = true;
    write_pgr(road, f.road, w);
    sync_file(f.grid);
    sync_file(f.road);
  }
  st->write_s = seconds_since(t0);
  f.grid_n = f.grid_graph.num_vertices();
  f.road_n = road.num_vertices();
  return f;
}

void serve_layer_metrics(Ctx& ctx, const ServeLatencies& lat) {
  ctx.put("serve.bfs.overhead_ms", median(lat.read_overhead_ms), "ms");
  ctx.put("serve.bfs.kernel_frac", median(lat.read_kernel_frac), "frac");
  ctx.put("serve.bfs.response_bytes", median(lat.read_bytes), "B");
  ctx.put("serve.pagerank.overhead_ms", median(lat.long_overhead_ms), "ms");
  ctx.put("serve.pagerank.kernel_frac", median(lat.long_kernel_frac), "frac");
  ctx.put("serve.pagerank.response_bytes", median(lat.long_bytes), "B");
  ctx.put("serve.registry_hits", lat.registry_hits, "count");
  ctx.put("serve.registry_misses", lat.registry_misses, "count");
  ctx.put("class.write_p50_ms", median(lat.write_ms), "ms");
  ctx.put("class.compact_p50_ms", median(lat.compact_ms), "ms");
  ctx.put("class.long_p50_ms", median(lat.long_ms), "ms");
}

}  // namespace

void run_serve(Ctx& ctx) {
  const Args& a = ctx.args;
  const std::string sock = ctx.dir + "/s.sock";
  std::vector<double> setup_s;
  ServeFiles files;
  std::unique_ptr<ServerHost> host;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<VertexId> sources;
  std::vector<SetupTimes> setup_times;
  double warm_kernel_ms = 0;

  // Set up kSetups times (generate, write, bind, open, warm up: the first read
  // and PageRank pay lazy validation, transpose and decode) and report the
  // median; the last server serves the loop.
  for (int i = 0; i < kSetups; ++i) {
    sessions.clear();
    host.reset();
    if (i > 0) {
      GraphRegistry::instance().evict(files.grid);
      GraphRegistry::instance().evict(files.road);
      std::filesystem::remove_all(ctx.dir + "/setup" + std::to_string(i - 1));
    }
    ScopedSpan s(ctx.spans, "bench.setup");
    Clock::time_point t0 = Clock::now();
    SetupTimes st;
    files = write_files(ctx, ctx.dir + "/setup" + std::to_string(i), &st);
    setup_times.push_back(st);
    sources = pick_sources(files.grid_graph, a.seed, a.toy ? 8 : 64);
    {
      ScopedSpan b(ctx.spans, "serve.start");
      host = std::make_unique<ServerHost>(sock);
      for (int c = 0; c < 3; ++c) sessions.push_back(std::make_unique<Session>(ctx, sock, s.id()));
    }
    Session& c0 = *sessions[0];
    c0.expect_ok("open graph=" + files.grid);
    c0.expect_ok("open graph=" + files.road);
    c0.read(files.grid, sources[0], files.grid_n);
    c0.pagerank(files.road, files.road_n);
    if (!c0.lat.read_ms.empty()) {
      warm_kernel_ms = c0.lat.read_ms.back() - c0.lat.read_overhead_ms.back();
    }
    c0.lat = ServeLatencies();
    setup_s.push_back(seconds_since(t0));
  }
  ctx.put("setup_s", median(setup_s), "s");

  Toggles toggles(files.grid_graph, a.seed + 7, a.toy ? 64 : 2048,
                  [&](VertexId u, std::uint64_t) { return u + 2; });
  auto loop = [&](double seconds, ServeLatencies& lat, std::uint64_t& ok,
                  double& wall, std::uint64_t& batch_index) {
    ScopedSpan span(ctx.spans, "bench.loop");
    for (auto& s : sessions) {
      s->lat = ServeLatencies();
      s->ok = 0;
      s->parent_span = span.id();
    }
    std::pair<double, double> reg0 = sessions[0]->registry();
    Clock::time_point start = Clock::now();
    auto live = [&] { return seconds_since(start) < seconds; };
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = static_cast<std::size_t>(c); live(); i += 2) {
          sessions[static_cast<std::size_t>(c)]->read(files.grid, sources[i % sources.size()],
                                                      files.grid_n);
        }
      });
    }
    clients.emplace_back([&] {
      Session& w = *sessions[2];
      for (std::size_t i = 0; live(); ++i) {
        for (int j = 0; j < 4 && live(); ++j) {
          w.update(files.grid, toggles, a.seed, batch_index++);
          w.read(files.grid, sources[(7 * i + j) % sources.size()], files.grid_n);
        }
        if (live()) w.compact(files.grid, toggles);
        if (live()) w.pagerank(files.road, files.road_n);
      }
    });
    for (std::thread& t : clients) t.join();
    wall = seconds_since(start);
    std::pair<double, double> reg1 = sessions[0]->registry();
    for (auto& s : sessions) {
      merge(lat, s->lat);
      ok += s->ok;
    }
    lat.registry_hits = reg1.first - reg0.first;
    lat.registry_misses = reg1.second - reg0.second;
  };

  ServeLatencies lat;
  std::uint64_t ok = 0, batch_index = 0;
  double wall = 0;
  if (!a.trace) {
    loop(a.seconds, lat, ok, wall, batch_index);
  } else {
    ServeLatencies plain;
    std::uint64_t plain_ok = 0;
    double plain_wall = 0;
    ctx.spans.set_on(false);
    loop(a.seconds / 2, plain, plain_ok, plain_wall, batch_index);
    ctx.spans.set_on(true);
    loop(a.seconds / 2, lat, ok, wall, batch_index);
    double plain_ops = static_cast<double>(plain_ok) / plain_wall;
    double traced_ops = static_cast<double>(ok) / wall;
    ctx.put("trace.overhead_frac", (plain_ops - traced_ops) / plain_ops, "frac");
  }

  ctx.put("ops_per_s", static_cast<double>(ok) / wall, "1/s");
  ctx.put("bfs_p50_ms", median(lat.read_ms), "ms");
  ctx.put("bfs_tail_ms", quantile(lat.read_ms, 0.99), "ms");
  ctx.put("others_p50_ms", geomean({median(lat.write_ms), median(lat.long_ms)}), "ms");
  if (lat.read_ms.size() < 1000 && !a.toy && !a.trace) {
    std::cerr << "perfbench: warning: only " << lat.read_ms.size()
              << " short reads; p99 has fewer than 10 samples beyond it\n";
  }

  sessions.clear();
  host.reset();
  check_final_graph(ctx, files.grid, toggles, sources);
  GraphRegistry::instance().evict(files.grid);
  GraphRegistry::instance().evict(files.road);

  if (a.trace) {
    serve_layer_metrics(ctx, lat);
    // Kernel-layer probe on the served grid: the same families, microbenches
    // and oracles the kernel workloads use, on this workload's graph.
    SetupTimes st;
    Bundle b = build_bundle(ctx, ctx.dir + "/kernels", files.grid_graph, a.seed,
                            a.toy ? 4 : 8, a.toy ? 2 : 4, &st);
    OutputCheck check;
    std::vector<Call> calls;
    std::vector<double> ms[4];
    for (int r = 0; r < 3; ++r) {
      for (int f = 0; f < 4; ++f) {
        Family fam = static_cast<Family>(f);
        const auto& src = fam == Family::kSssp ? b.sssp_sources : b.bfs_sources;
        for (VertexId s : src) {
          Call c = run_call(ctx, b, fam, s, &check);
          if (c.seconds < 0) continue;
          ms[f].push_back(c.seconds * 1e3);
          calls.push_back(std::move(c));
          if (fam == Family::kScc || fam == Family::kBcc) break;
        }
      }
    }
    std::map<std::string, std::vector<double>> ref_ms;
    check.verify(ctx, b, ref_ms);
    ctx.put("class.scc_p50_ms", median(ms[1]), "ms");
    ctx.put("class.bcc_p50_ms", median(ms[2]), "ms");
    ctx.put("class.sssp_p50_ms", median(ms[3]), "ms");
    for (const char* r : {"seq_bfs", "seq_scc", "seq_bcc", "seq_sssp"}) {
      ctx.put(std::string("ref.") + r + "_ms", median(ref_ms[r]), "ms");
    }
    kernel_layer_metrics(ctx, b, calls);
    layer_microbenches(ctx, b);
    // Generate/transpose/write come from the serve setups, open/validate
    // from the probe's mmap open of the same grid. First touch compares the
    // kernel seconds of the warm-up read with the loop's median read.
    for (SetupTimes& s : setup_times) {
      s.open_s = st.open_s;
      s.validate_s = st.validate_s;
      s.validate_bytes = st.validate_bytes;
    }
    std::vector<double> kernel_ms;
    for (std::size_t i = 0; i < lat.read_ms.size(); ++i) {
      kernel_ms.push_back(lat.read_ms[i] - lat.read_overhead_ms[i]);
    }
    graphs_setup_metrics(ctx, setup_times, warm_kernel_ms - median(kernel_ms));
  }
}

void serve_probe(Ctx& ctx, const Graph& g, const std::string& dir) {
  ScopedSpan span(ctx.spans, "bench.serve_probe");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/serve.pgr";
  {
    PgrWriteOptions w;
    w.include_transpose = true;
    write_pgr(g, path, w);
  }
  std::uint64_t n = g.num_vertices();
  std::vector<VertexId> sources = pick_sources(g, ctx.args.seed + 11, 8);
  Toggles toggles(g, ctx.args.seed + 13, 256,
                  [&](VertexId, std::uint64_t r) { return static_cast<VertexId>(r % n); });
  const std::string sock = dir + "/s.sock";
  ServeLatencies lat;
  {
    ServerHost host(sock);
    Session s(ctx, sock, span.id());
    s.expect_ok("open graph=" + path);
    std::pair<double, double> reg0 = s.registry();
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < 4; ++i) {
        s.update(path, toggles, ctx.args.seed, static_cast<std::uint64_t>(4 * round + i));
        s.read(path, sources[static_cast<std::size_t>(2 * i + round) % sources.size()], n);
        s.read(path, sources[static_cast<std::size_t>(2 * i + 1) % sources.size()], n);
      }
      s.compact(path, toggles);
      s.pagerank(path, n);
    }
    std::pair<double, double> reg1 = s.registry();
    lat = s.lat;
    lat.registry_hits = reg1.first - reg0.first;
    lat.registry_misses = reg1.second - reg0.second;
  }
  check_final_graph(ctx, path, toggles, sources);
  GraphRegistry::instance().evict(path);
  serve_layer_metrics(ctx, lat);
}

}  // namespace perfbench
