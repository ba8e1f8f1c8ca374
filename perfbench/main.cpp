// Repository benchmark driver. One invocation runs one workload for a fixed
// wall time and prints, as its last stdout line, one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
//
// With --trace 0 the metrics are the end-to-end set (kEndToEnd below); with
// --trace 1 the run also records benchmark-side spans and prints the
// per-layer set instead. A record of the run (provenance, every metric,
// spans) is written under <out>/records/. Usage:
//
//   perfbench --workload road-hd|social-ld|serve-mixed --seed N
//             --seconds S --trace 0|1 [--toy] [--corrupt-oracle]
//             [--out DIR] [--git-sha SHA] [--src-digest HEX]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "common.h"
#include "parlay/scheduler.h"

namespace perfbench {

// --- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- spans ------------------------------------------------------------------

namespace {
thread_local std::vector<int> open_spans;  // innermost last

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

int Spans::begin(const std::string& name, int parent) {
  if (!on_) return -1;
  std::uint64_t t = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count());
  if (parent == kCurrent) parent = open_spans.empty() ? -1 : open_spans.back();
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, t, t, parent, {}});
  }
  open_spans.push_back(id);
  return id;
}

void Spans::end(int id) {
  if (id < 0) return;
  std::uint64_t t = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count());
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

void Spans::count(int id, const std::string& key, double value) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].counts.emplace_back(key, value);
}

void Spans::attach(int id, const RunTelemetry& t) {
  if (id < 0) return;
  std::uint64_t by_kind[3] = {0, 0, 0};
  for (const pasgal::RoundTrace& r : t.rounds) ++by_kind[static_cast<int>(r.kind)];
  pasgal::WorkerCounters sched = t.scheduler.total();
  count(id, "rounds", static_cast<double>(t.rounds.size()));
  count(id, "rounds_sparse", static_cast<double>(by_kind[0]));
  count(id, "rounds_dense", static_cast<double>(by_kind[1]));
  count(id, "rounds_local", static_cast<double>(by_kind[2]));
  count(id, "edges", static_cast<double>(t.edges_scanned));
  count(id, "visits", static_cast<double>(t.vertices_visited));
  count(id, "bag_inserts", static_cast<double>(t.hashbag.inserts));
  count(id, "bag_advances", static_cast<double>(t.hashbag.block_advances));
  count(id, "steals", static_cast<double>(sched.steals));
  count(id, "busy_ns", static_cast<double>(sched.busy_ns));
  count(id, "idle_ns", static_cast<double>(sched.idle_ns));
  for (const pasgal::PhaseTiming& p : t.phases) {
    count(id, "phase." + p.name + "_ns", static_cast<double>(p.ns));
  }
}

std::map<std::string, double> Spans::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::clamp(lo, s.start_ns, s.end_ns);
      hi = std::clamp(hi, s.start_ns, s.end_ns);
      if (!open || lo > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

std::string Spans::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
       << pasgal::json::escape(s.name) << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent;
    if (!s.counts.empty()) {
      os << ",\"counts\":{";
      for (std::size_t k = 0; k < s.counts.size(); ++k) {
        os << (k ? "," : "") << "\"" << pasgal::json::escape(s.counts[k].first)
           << "\":" << fmt(s.counts[k].second);
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]";
  return os.str();
}

void Ctx::fail(const std::string& what) {
  std::uint64_t k = failed.fetch_add(1) + 1;
  if (k <= 20) std::cerr << "perfbench: failed operation: " << what << "\n";
}

namespace {

// Worker threads: the reference box has 4 cores, and all load comes from one
// process at P = 4 so runs on machines of other sizes stay comparable.
constexpr int kWorkers = 4;

// The end-to-end set printed with --trace 0 (BENCHMARK.json "end_to_end").
const std::vector<std::string> kEndToEnd = {
    "setup_s", "ops_per_s", "bfs_p50_ms", "bfs_tail_ms", "others_p50_ms"};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload road-hd|social-ld|serve-mixed"
               " --seed N --seconds S --trace 0|1 [--toy] [--corrupt-oracle]"
               " [--out DIR] [--git-sha SHA] [--src-digest HEX]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = next();
      else if (k == "--seed") a.seed = std::stoull(next());
      else if (k == "--seconds") a.seconds = std::stod(next());
      else if (k == "--trace") a.trace = std::stoi(next()) != 0;
      else if (k == "--toy") a.toy = true;
      else if (k == "--corrupt-oracle") a.corrupt_oracle = true;
      else if (k == "--out") a.out_dir = next();
      else if (k == "--git-sha") a.git_sha = next();
      else if (k == "--src-digest") a.src_digest = next();
      else usage("unknown argument " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.workload != "road-hd" && a.workload != "social-ld" &&
      a.workload != "serve-mixed") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Ctx ctx(parse_args(argc, argv));
  const Args& a = ctx.args;
  pasgal::Scheduler::reset(kWorkers);
  ctx.dir = a.out_dir + "/" + a.workload;
  std::filesystem::remove_all(ctx.dir);
  std::filesystem::create_directories(ctx.dir);
  std::filesystem::create_directories(a.out_dir + "/records");

  std::ostringstream prov;
  prov << "{\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
       << ",\"seconds\":" << fmt(a.seconds) << ",\"trace\":" << a.trace
       << ",\"toy\":" << a.toy << ",\"P\":" << pasgal::num_workers()
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu_model\":\"" << pasgal::json::escape(cpu_model())
       << "\",\"git_sha\":\"" << pasgal::json::escape(a.git_sha)
       << "\",\"src_digest\":\"" << pasgal::json::escape(a.src_digest) << "\"}";
  std::cout << "provenance " << prov.str() << std::endl;

  int root = ctx.spans.begin("bench.run");
  try {
    if (a.workload == "serve-mixed") {
      run_serve(ctx);
    } else {
      run_analytic(ctx);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: aborted: " << e.what() << "\n";
    return 1;
  }
  ctx.spans.end(root);
  if (a.trace) span_metrics(ctx);
  std::filesystem::remove_all(ctx.dir);

  std::uint64_t attempted = ctx.attempted.load();
  std::uint64_t failed = ctx.failed.load();
  if (a.trace) {
    ctx.put("failed_frac",
            attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                      : 0,
            "frac");
  }

  // Select the printed set and make sure nothing in it is missing.
  std::set<std::string> e2e(kEndToEnd.begin(), kEndToEnd.end());
  std::vector<Metric> printed;
  std::set<std::string> seen;
  for (const Metric& m : ctx.metrics) {
    if (!seen.insert(m.name).second) {
      std::cerr << "perfbench: metric " << m.name << " reported twice\n";
      return 1;
    }
    if ((e2e.count(m.name) != 0) != a.trace) printed.push_back(m);
  }
  if (!a.trace) {
    for (const std::string& name : kEndToEnd) {
      if (seen.count(name) == 0) {
        std::cerr << "perfbench: end-to-end metric " << name << " missing\n";
        return 1;
      }
    }
  }
  if (attempted == 0) {
    std::cerr << "perfbench: no operation was attempted\n";
    return 1;
  }

  std::ostringstream metrics;
  metrics << "{";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    metrics << (i ? ", " : "") << "\"" << printed[i].name
            << "\": {\"value\": " << fmt(printed[i].value) << ", \"unit\": \""
            << printed[i].unit << "\"}";
  }
  metrics << "}";

  std::ostringstream all;
  all << "{";
  for (std::size_t i = 0; i < ctx.metrics.size(); ++i) {
    all << (i ? ", " : "") << "\"" << ctx.metrics[i].name
        << "\": {\"value\": " << fmt(ctx.metrics[i].value) << ", \"unit\": \""
        << ctx.metrics[i].unit << "\"}";
  }
  all << "}";
  std::string record_path = a.out_dir + "/records/" + a.workload + "-seed" +
                            std::to_string(a.seed) + "-trace" +
                            std::to_string(a.trace) + ".json";
  std::ofstream rec(record_path);
  rec << "{\"provenance\": " << prov.str() << ",\n\"attempted\": " << attempted
      << ", \"failed\": " << failed << ",\n\"metrics\": " << all.str()
      << ",\n\"spans\": " << ctx.spans.to_json() << "}\n";

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return 0;
}
