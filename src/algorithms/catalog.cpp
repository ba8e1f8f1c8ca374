#include "algorithms/catalog.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "algorithms/bfs/bfs.h"
#include "algorithms/cc/cc.h"
#include "algorithms/cc/ldd.h"
#include "algorithms/kcore/kcore.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "algorithms/tc/tc.h"
#include "graphs/delta.h"
#include "pasgal/error.h"

namespace pasgal::catalog {

namespace {

// --- result formatters -------------------------------------------------------

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// Vertices reached (finite distance) and the largest finite distance.
template <typename D>
std::pair<unsigned long long, unsigned long long> reach(
    const std::vector<D>& dist) {
  unsigned long long reached = 0, far = 0;
  for (D d : dist) {
    if (d != static_cast<D>(-1)) {
      ++reached;
      far = std::max<unsigned long long>(far, d);
    }
  }
  return {reached, far};
}

// Component count and the largest component's size.
template <typename L>
std::pair<std::size_t, std::size_t> components(const std::vector<L>& label) {
  std::map<L, std::size_t> sizes;
  for (L l : label) ++sizes[l];
  std::size_t giant = 0;
  for (const auto& [l, s] : sizes) giant = std::max(giant, s);
  return {sizes.size(), giant};
}

std::string bfs_line(const Output& out, const Inputs&) {
  auto [reached, ecc] = reach(std::get<std::vector<std::uint32_t>>(out));
  return format("reached %llu vertices, eccentricity %llu", reached, ecc);
}

std::string sssp_line(const Output& out, const Inputs&) {
  auto [reached, far] = reach(std::get<std::vector<Dist>>(out));
  return format("reached %llu vertices, weighted eccentricity %llu", reached,
                far);
}

std::string scc_line(const Output& out, const Inputs&) {
  auto [count, giant] = components(std::get<std::vector<SccLabel>>(out));
  return format("%zu SCCs, largest has %zu vertices", count, giant);
}

std::string bcc_line(const Output& out, const Inputs& in) {
  const BccResult& bcc = std::get<BccResult>(out);
  return format("%zu biconnected components, %zu articulation points, "
                "%zu bridges",
                bcc.num_bccs, articulation_points(in.g, bcc).size(),
                count_bridges(in.g, bcc));
}

std::string cc_line(const Output& out, const Inputs&) {
  auto [count, giant] = components(std::get<std::vector<VertexId>>(out));
  return format("%zu components, largest has %zu vertices", count, giant);
}

std::string kcore_line(const Output& out, const Inputs&) {
  const auto& core = std::get<std::vector<std::uint32_t>>(out);
  std::uint32_t max_core = 0;
  for (std::uint32_t c : core) max_core = std::max(max_core, c);
  std::size_t in_max = std::count(core.begin(), core.end(), max_core);
  return format("max coreness %u, %zu vertices in the max core", max_core,
                in_max);
}

std::string pagerank_line(const Output& out, const Inputs&) {
  const PagerankResult& pr = std::get<PagerankResult>(out);
  std::size_t best = 0;
  for (std::size_t v = 1; v < pr.rank.size(); ++v) {
    if (pr.rank[v] > pr.rank[best]) best = v;
  }
  return format("converged after %u rounds (delta %.17g), top vertex %zu "
                "with rank %.17g",
                pr.iterations, pr.delta, best,
                pr.rank.empty() ? 0.0 : pr.rank[best]);
}

void pagerank_params(const Output& out, MetricsDoc& doc) {
  doc.set_param("iterations", static_cast<std::uint64_t>(
                                  std::get<PagerankResult>(out).iterations));
}

std::string tc_line(const Output& out, const Inputs&) {
  return format("%llu triangles",
                static_cast<unsigned long long>(std::get<std::uint64_t>(out)));
}

void tc_params(const Output& out, MetricsDoc& doc) {
  doc.set_param("triangles", std::get<std::uint64_t>(out));
}

const Family kBfs{"bfs", true, bfs_line, nullptr};
const Family kSssp{"sssp", true, sssp_line, nullptr};
const Family kScc{"scc", false, scc_line, nullptr};
const Family kBcc{"bcc", false, bcc_line, nullptr};
const Family kCc{"cc", false, cc_line, nullptr};
const Family kKcore{"kcore", false, kcore_line, nullptr};
const Family kPagerank{"pagerank", false, pagerank_line, pagerank_params};
const Family kTc{"tc", false, tc_line, tc_params};

// --- runners -----------------------------------------------------------------

template <typename T>
Run single(RunReport<T> r) {
  Run out{r.seconds, std::move(r.telemetry), {}};
  out.outputs.emplace_back(std::move(r.output));
  return out;
}

template <typename T>
Run batch(BatchReport<T> r) {
  Run out{r.seconds, std::move(r.telemetry), {}};
  for (RunReport<T>& slice : r.per_source) {
    out.outputs.emplace_back(std::move(slice.output));
  }
  return out;
}

AlgoOptions stepping(const AlgoOptions& opt, bool delta_mode) {
  AlgoOptions o = opt;
  o.sssp_delta_mode = delta_mode;
  return o;
}

BatchOptions stepping(const BatchOptions& opt, bool delta_mode) {
  return {opt.sources, stepping(opt.algo, delta_mode)};
}

using In = const Inputs&;
using Opt = const AlgoOptions&;
using Batch = const BatchOptions&;
using enum Input;
constexpr unsigned kNone = 0;

// Within a family the first row is the driver default, and the first row
// served in a mode is the daemon default for that mode.
const Variant kVariants[] = {
    // family, name, label, input, in_core, overlay, served, run, run_batch
    {&kBfs, "pasgal", "pasgal-bfs", kTransposed, true, false, kServedSingle,
     [](In in, Opt o) { return single(pasgal_bfs(in.g, in.gt, o)); }},
    {&kBfs, "gbbs", "gbbs-bfs", kTransposed, false, true, kServedSingle,
     [](In in, Opt o) { return single(gbbs_bfs(in.g, in.gt, o)); }},
    {&kBfs, "gapbs", "gapbs-bfs", kTransposed, true, false, kNone,
     [](In in, Opt o) { return single(gapbs_bfs(in.g, in.gt, o)); }},
    {&kBfs, "seq", "seq-bfs", kDirected, true, false, kNone,
     [](In in, Opt o) { return single(seq_bfs(in.g, o)); }},
    {&kBfs, "ms", "ms-bfs", kTransposed, true, false, kServedBatch, nullptr,
     [](In in, Batch b) { return batch(ms_bfs(in.g, in.gt, b)); }},

    {&kSssp, "rho", "stepping SSSP", kWeighted, true, false,
     kServedSingle | kServedBatch,
     [](In in, Opt o) {
       return single(stepping_sssp(in.wg, stepping(o, false)));
     },
     [](In in, Batch b) {
       return batch(batch_sssp(in.wg, stepping(b, false)));
     }},
    {&kSssp, "delta", "stepping SSSP", kWeighted, true, false,
     kServedSingle | kServedBatch,
     [](In in, Opt o) {
       return single(stepping_sssp(in.wg, stepping(o, true)));
     },
     [](In in, Batch b) {
       return batch(batch_sssp(in.wg, stepping(b, true)));
     }},
    {&kSssp, "bf", "bellman-ford", kWeighted, true, false, kNone,
     [](In in, Opt o) { return single(bellman_ford(in.wg, o)); }},
    {&kSssp, "em", "em-bellman-ford", kWeighted, false, false, kServedSingle,
     [](In in, Opt o) { return single(em_bellman_ford(in.wg, o)); }},
    {&kSssp, "seq", "dijkstra", kWeighted, true, false, kNone,
     [](In in, Opt o) { return single(dijkstra(in.wg, o)); }},

    {&kScc, "pasgal", "pasgal-scc", kTransposed, true, false, kNone,
     [](In in, Opt o) { return single(pasgal_scc(in.g, in.gt, o)); }},
    {&kScc, "gbbs", "gbbs-scc", kTransposed, true, false, kNone,
     [](In in, Opt o) { return single(gbbs_scc(in.g, in.gt, o)); }},
    {&kScc, "multistep", "multistep-scc", kTransposed, true, false, kNone,
     [](In in, Opt o) { return single(multistep_scc(in.g, in.gt, o)); }},
    {&kScc, "seq", "tarjan-scc", kDirected, true, false, kNone,
     [](In in, Opt o) { return single(tarjan_scc(in.g, o)); }},

    {&kBcc, "pasgal", "fast-bcc", kSymmetrized, true, false, kNone,
     [](In in, Opt o) { return single(fast_bcc(in.g, o)); }},
    {&kBcc, "gbbs", "gbbs-bcc", kSymmetrized, true, false, kNone,
     [](In in, Opt o) { return single(gbbs_bcc(in.g, o)); }},
    {&kBcc, "tv", "tarjan-vishkin-bcc", kSymmetrized, true, false, kNone,
     [](In in, Opt o) { return single(tarjan_vishkin_bcc(in.g, o)); }},
    {&kBcc, "seq", "hopcroft-tarjan-bcc", kSymmetrized, true, false, kNone,
     [](In in, Opt o) { return single(hopcroft_tarjan_bcc(in.g, o)); }},

    {&kCc, "uf", "connected-components", kSymmetrized, true, false,
     kServedSingle,
     [](In in, Opt o) {
       RunReport<ConnectivityResult> r = connected_components(in.g, o);
       return single(RunReport<std::vector<VertexId>>{
           std::move(r.output.label), r.seconds, std::move(r.telemetry)});
     }},
    {&kCc, "lp", "label-prop-cc", kSymmetrized, true, false, kServedSingle,
     [](In in, Opt o) { return single(label_prop_cc(in.g, o)); }},
    {&kCc, "ldd", "ldd-cc", kSymmetrized, true, false, kServedSingle,
     [](In in, Opt o) { return single(ldd_cc(in.g, o)); }},

    {&kKcore, "pasgal", "pasgal-kcore", kSymmetrized, true, false,
     kServedSingle, [](In in, Opt o) { return single(pasgal_kcore(in.g, o)); }},
    {&kKcore, "seq", "seq-kcore", kSymmetrized, true, false, kServedSingle,
     [](In in, Opt o) { return single(seq_kcore(in.g, o)); }},

    // The dense pull walks the transpose's shard plan (out-degrees come from
    // g's always-resident offsets), so pasgal PageRank runs sharded.
    {&kPagerank, "pasgal", "pasgal-pagerank", kTransposed, false, true,
     kServedSingle,
     [](In in, Opt o) { return single(pasgal_pagerank(in.g, in.gt, o)); }},
    {&kPagerank, "seq", "seq-pagerank", kTransposed, true, true, kServedSingle,
     [](In in, Opt o) { return single(seq_pagerank(in.g, in.gt, o)); }},

    {&kTc, "pasgal", "pasgal-tc", kSymmetrized, true, false, kServedSingle,
     [](In in, Opt o) { return single(pasgal_tc(in.g, o)); }},
    {&kTc, "seq", "seq-tc", kSymmetrized, true, false, kServedSingle,
     [](In in, Opt o) { return single(seq_tc(in.g, o)); }},
};

bool runs_in(const Variant& v, bool batch) {
  return batch ? v.run_batch != nullptr : v.run != nullptr;
}

const Variant& by_label(std::string_view label) {
  for (const Variant& v : kVariants) {
    if (label == v.label) return v;
  }
  throw std::logic_error("no catalog row labelled '" + std::string(label) +
                         "'");
}

// Typed guard message subject: the label, plus the family's first variant
// that runs sharded in the same mode, when there is one.
std::string in_core_subject(const Variant& v, bool batch) {
  std::string what = v.label;
  for (const Variant& alt : variants(v.family->name)) {
    if (!alt.in_core && runs_in(alt, batch)) {
      return what + " (use -a " + alt.name + " for sharded runs)";
    }
  }
  return what;
}

}  // namespace

std::span<const Variant> variants() { return kVariants; }

std::span<const Variant> variants(std::string_view family) {
  const Variant* first = std::find_if(
      std::begin(kVariants), std::end(kVariants),
      [&](const Variant& v) { return family == v.family->name; });
  const Variant* last = std::find_if(
      first, std::end(kVariants),
      [&](const Variant& v) { return family != v.family->name; });
  return {first, last};
}

const Variant* find(std::string_view family, std::string_view name) {
  for (const Variant& v : variants(family)) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

std::vector<std::string> names(std::string_view family) {
  std::vector<std::string> out;
  for (const Variant& v : variants(family)) out.emplace_back(v.name);
  return out;
}

const Family* find_family(std::string_view name) {
  std::span<const Variant> rows = variants(name);
  return rows.empty() ? nullptr : rows.front().family;
}

const Variant& served(std::string_view family, std::string_view algo,
                      bool batch) {
  unsigned bit = batch ? kServedBatch : kServedSingle;
  std::string expected;
  for (const Variant& v : variants(family)) {
    if ((v.served & bit) == 0) continue;
    if (algo.empty() || algo == v.name) return v;
    expected += (expected.empty() ? "" : "|") + std::string(v.name);
  }
  throw Error(ErrorCategory::kUsage,
              std::string(family) + ": " +
                  (batch ? "algo '" + std::string(algo) +
                               "' has no batch mode (sources= expects "
                         : "unknown algo '" + std::string(algo) +
                               "' (expected ") +
                  expected + ")");
}

bool serves(std::string_view verb) {
  for (const Variant& v : variants(verb)) {
    if (v.served != 0) return true;
  }
  return false;
}

Inputs prepare(Input shape, Graph g, WeightedGraph<std::uint32_t> wg) {
  Inputs in{std::move(g), {}, std::move(wg)};
  if (shape == kTransposed) in.gt = in.g.transpose();
  if (shape == kSymmetrized) in.g = in.g.symmetrize();
  return in;
}

void check_inputs(std::string_view label, const Graph& g, const Graph* gt,
                  bool batch) {
  g.ensure_validated();
  if (gt != nullptr) gt->ensure_validated();
  const Variant& v = by_label(label);
  if (v.in_core) {
    std::string what = in_core_subject(v, batch);
    g.ensure_in_core(what.c_str());
    if (gt != nullptr) gt->ensure_in_core(what.c_str());
  }
  if (!v.overlay) g.ensure_no_delta(v.label);
}

void check_inputs(std::string_view label,
                  const WeightedGraph<std::uint32_t>& wg, bool batch) {
  check_inputs(label, wg.unweighted(), nullptr, batch);
}

void record_shard(MetricsDoc& doc, const Graph& g) {
  const StorageRef& storage = g.storage();
  if (storage == nullptr || storage->shard_window() == nullptr) return;
  const MappedWindow& w = *storage->shard_window();
  std::uint64_t sweeps = w.sweeps();
  std::uint64_t faults = w.faults();
  if (StorageRef t = storage->transpose_cache();
      t != nullptr && t->shard_window() != nullptr) {
    sweeps += t->shard_window()->sweeps();
    faults += t->shard_window()->faults();
  }
  doc.set_shard(w.plan().size(), w.plan().window_bytes(), sweeps, faults);
}

void record_delta(MetricsDoc& doc, const Graph& g, std::uint64_t resettled,
                  std::uint64_t full_settled, bool fallback) {
  if (g.storage() == nullptr) return;
  std::shared_ptr<const DeltaSnapshot> d = g.storage()->delta_snapshot();
  if (d == nullptr) return;
  doc.set_delta(d->insert_count(), d->delete_count(), d->batches(), resettled,
                full_settled, fallback);
}

}  // namespace pasgal::catalog
