// Modern AlgoOptions/RunReport entry points for every algorithm family.
//
// Each wrapper assembles the family's legacy parameter struct from the
// shared AlgoOptions and routes the run through run_traced(), which owns the
// tracer plumbing and the wall-clock/telemetry bookkeeping. The legacy
// `(..., Params, RunStats*)` signatures remain the implementations.

#include <chrono>
#include <unordered_set>

#include "algorithms/bcc/bcc.h"
#include "algorithms/bfs/bfs.h"
#include "algorithms/catalog.h"
#include "algorithms/cc/cc.h"
#include "algorithms/cc/ldd.h"
#include "algorithms/kcore/kcore.h"
#include "algorithms/pagerank/pagerank.h"
#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "algorithms/tc/tc.h"
#include "algorithms/toposort/toposort.h"
#include "pasgal/error.h"
#include "pasgal/options.h"

namespace pasgal {

// Every wrapper starts with catalog::check_inputs under its catalog label:
// the single choke point where the modern entry points lazily validate
// their graph(s) (the O(1) mmap open path defers per-element CSR checks; a
// no-op after the first call on a storage handle, see
// Graph::ensure_validated) and apply the row's in_core and overlay columns.
// A variant whose kernel random-accesses the CSR arrays rejects sharded
// opens; one that reads the base CSR directly rejects a pending update
// overlay (graphs/delta.h), against which it would silently compute on the
// stale base. Toposort has no catalog row (no driver runs it) and applies
// the same two guards directly.

namespace {

PasgalBfsParams bfs_params(const AlgoOptions& opt) {
  PasgalBfsParams p;
  p.vgc = opt.vgc;
  p.vgc_engage_factor = opt.vgc_engage_factor;
  p.dense_threshold_den = opt.dense_threshold_den;
  p.use_dense = opt.use_dense;
  p.cancel = opt.cancel;
  return p;
}

SccParams scc_params(const AlgoOptions& opt) {
  SccParams p;
  p.vgc = opt.vgc;
  p.dense_threshold_den = opt.dense_threshold_den;
  p.use_dense = opt.use_dense;
  p.beta = opt.scc_beta;
  p.seed = opt.scc_seed;
  return p;
}

SteppingParams stepping_params(const AlgoOptions& opt) {
  SteppingParams p;
  p.strategy = opt.sssp_delta_mode ? SteppingParams::Strategy::kDelta
                                   : SteppingParams::Strategy::kRho;
  p.delta = opt.sssp_delta;
  p.rho = opt.sssp_rho;
  p.vgc = opt.vgc;
  p.cancel = opt.cancel;
  return p;
}

}  // namespace

// --- batch source validation -------------------------------------------------

void check_batch_sources(std::span<const VertexId> sources, std::size_t n) {
  if (sources.empty()) {
    throw Error(ErrorCategory::kUsage, "batch source list is empty");
  }
  if (sources.size() > kMaxBatchSources) {
    throw Error(ErrorCategory::kUsage,
                "batch holds " + std::to_string(sources.size()) +
                    " sources; the bit-parallel kernels carry one source per "
                    "bit, max " +
                    std::to_string(kMaxBatchSources));
  }
  std::unordered_set<VertexId> seen;
  seen.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    VertexId s = sources[i];
    if (static_cast<std::size_t>(s) >= n) {
      throw Error(ErrorCategory::kUsage,
                  "batch source " + std::to_string(s) + " (entry " +
                      std::to_string(i) + ") out of range for graph with " +
                      std::to_string(n) + " vertices");
    }
    if (!seen.insert(s).second) {
      throw Error(ErrorCategory::kUsage,
                  "duplicate batch source " + std::to_string(s) + " (entry " +
                      std::to_string(i) + ")");
    }
  }
}

// --- BFS ---------------------------------------------------------------------

RunReport<std::vector<std::uint32_t>> seq_bfs(const Graph& g,
                                              const AlgoOptions& opt) {
  catalog::check_inputs("seq-bfs", g);
  return run_traced(opt,
                    [&](Tracer* t) { return seq_bfs(g, opt.source, t); });
}

RunReport<std::vector<std::uint32_t>> gbbs_bfs(const Graph& g, const Graph& gt,
                                               const AlgoOptions& opt) {
  catalog::check_inputs("gbbs-bfs", g, &gt);
  return run_traced(opt, [&](Tracer* t) {
    return gbbs_bfs(g, gt, opt.source, t, opt.cancel);
  });
}

RunReport<std::vector<std::uint32_t>> gapbs_bfs(const Graph& g, const Graph& gt,
                                                const AlgoOptions& opt) {
  catalog::check_inputs("gapbs-bfs", g, &gt);
  GapbsParams p{opt.gapbs_alpha, opt.gapbs_beta};
  return run_traced(
      opt, [&](Tracer* t) { return gapbs_bfs(g, gt, opt.source, p, t); });
}

RunReport<std::vector<std::uint32_t>> pasgal_bfs(const Graph& g,
                                                 const Graph& gt,
                                                 const AlgoOptions& opt) {
  catalog::check_inputs("pasgal-bfs", g, &gt);
  PasgalBfsParams p = bfs_params(opt);
  return run_traced(
      opt, [&](Tracer* t) { return pasgal_bfs(g, gt, opt.source, p, t); });
}

BatchReport<std::vector<std::uint32_t>> ms_bfs(const Graph& g, const Graph& gt,
                                               const BatchOptions& opt) {
  catalog::check_inputs("ms-bfs", g, &gt, /*batch=*/true);
  check_batch_sources(opt.sources, g.num_vertices());
  MsBfsParams p;
  p.dense_threshold_den = opt.algo.dense_threshold_den;
  p.use_dense = opt.algo.use_dense;
  p.cancel = opt.algo.cancel;
  Tracer local;
  Tracer* tracer = opt.algo.tracer != nullptr ? opt.algo.tracer : &local;
  tracer->reset();
  auto start = std::chrono::steady_clock::now();
  auto dists = ms_bfs(g, gt, opt.sources, p, tracer);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  BatchReport<std::vector<std::uint32_t>> report;
  report.seconds = seconds;
  report.telemetry = tracer->aggregate();
  report.per_source.resize(dists.size());
  // One shared sweep advanced every source; a slice's cost is its amortized
  // share of the batch wall (see BatchReport in options.h).
  double amortized = seconds / static_cast<double>(dists.size());
  for (std::size_t i = 0; i < dists.size(); ++i) {
    report.per_source[i].output = std::move(dists[i]);
    report.per_source[i].seconds = amortized;
  }
  return report;
}

// --- SSSP --------------------------------------------------------------------

RunReport<std::vector<Dist>> dijkstra(const WeightedGraph<std::uint32_t>& g,
                                      const AlgoOptions& opt) {
  catalog::check_inputs("dijkstra", g);
  return run_traced(opt,
                    [&](Tracer* t) { return dijkstra(g, opt.source, t); });
}

RunReport<std::vector<Dist>> bellman_ford(const WeightedGraph<std::uint32_t>& g,
                                          const AlgoOptions& opt) {
  catalog::check_inputs("bellman-ford", g);
  return run_traced(
      opt, [&](Tracer* t) { return bellman_ford(g, opt.source, t); });
}

RunReport<std::vector<Dist>> stepping_sssp(
    const WeightedGraph<std::uint32_t>& g, const AlgoOptions& opt) {
  catalog::check_inputs("stepping SSSP", g);
  SteppingParams p = stepping_params(opt);
  return run_traced(
      opt, [&](Tracer* t) { return stepping_sssp(g, opt.source, p, t); });
}

BatchReport<std::vector<Dist>> batch_sssp(const WeightedGraph<std::uint32_t>& g,
                                          const BatchOptions& opt) {
  catalog::check_inputs("stepping SSSP", g, /*batch=*/true);
  check_batch_sources(opt.sources, g.num_vertices());
  SteppingParams p = stepping_params(opt.algo);
  Tracer local;
  Tracer* tracer = opt.algo.tracer != nullptr ? opt.algo.tracer : &local;
  tracer->reset();
  BatchReport<std::vector<Dist>> report;
  report.per_source.resize(opt.sources.size());
  auto batch_start = std::chrono::steady_clock::now();
  // No bit-parallel kernel for weighted distances: run the stepping framework
  // once per source under the shared tracer (rounds accumulate monotonically,
  // so the batch telemetry validates like one long run) and the shared
  // CancelToken (expiry unwinds the whole batch with kTimeout).
  for (std::size_t i = 0; i < opt.sources.size(); ++i) {
    auto start = std::chrono::steady_clock::now();
    report.per_source[i].output = stepping_sssp(g, opt.sources[i], p, tracer);
    report.per_source[i].seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  report.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - batch_start)
                       .count();
  report.telemetry = tracer->aggregate();
  return report;
}

// --- SCC ---------------------------------------------------------------------

RunReport<std::vector<SccLabel>> tarjan_scc(const Graph& g,
                                            const AlgoOptions& opt) {
  catalog::check_inputs("tarjan-scc", g);
  return run_traced(opt, [&](Tracer* t) { return tarjan_scc(g, t); });
}

RunReport<std::vector<SccLabel>> pasgal_scc(const Graph& g, const Graph& gt,
                                            const AlgoOptions& opt) {
  catalog::check_inputs("pasgal-scc", g, &gt);
  SccParams p = scc_params(opt);
  return run_traced(opt,
                    [&](Tracer* t) { return pasgal_scc(g, gt, p, t); });
}

RunReport<std::vector<SccLabel>> gbbs_scc(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt) {
  catalog::check_inputs("gbbs-scc", g, &gt);
  SccParams p = scc_params(opt);
  return run_traced(opt, [&](Tracer* t) { return gbbs_scc(g, gt, p, t); });
}

RunReport<std::vector<SccLabel>> multistep_scc(const Graph& g, const Graph& gt,
                                               const AlgoOptions& opt) {
  catalog::check_inputs("multistep-scc", g, &gt);
  MultistepParams p{opt.multistep_cutoff};
  return run_traced(opt,
                    [&](Tracer* t) { return multistep_scc(g, gt, p, t); });
}

// --- BCC ---------------------------------------------------------------------

RunReport<BccResult> hopcroft_tarjan_bcc(const Graph& g,
                                         const AlgoOptions& opt) {
  catalog::check_inputs("hopcroft-tarjan-bcc", g);
  return run_traced(opt, [&](Tracer* t) { return hopcroft_tarjan_bcc(g, t); });
}

RunReport<BccResult> fast_bcc(const Graph& g, const AlgoOptions& opt) {
  catalog::check_inputs("fast-bcc", g);
  return run_traced(opt, [&](Tracer* t) { return fast_bcc(g, t); });
}

RunReport<BccResult> tarjan_vishkin_bcc(const Graph& g,
                                        const AlgoOptions& opt) {
  catalog::check_inputs("tarjan-vishkin-bcc", g);
  return run_traced(opt, [&](Tracer* t) { return tarjan_vishkin_bcc(g, t); });
}

RunReport<BccResult> gbbs_bcc(const Graph& g, const AlgoOptions& opt) {
  catalog::check_inputs("gbbs-bcc", g);
  return run_traced(opt, [&](Tracer* t) { return gbbs_bcc(g, t); });
}

// --- CC ----------------------------------------------------------------------

RunReport<ConnectivityResult> connected_components(const Graph& g,
                                                   const AlgoOptions& opt) {
  catalog::check_inputs("connected-components", g);
  return run_traced(opt, [&](Tracer* t) { return connected_components(g, t); });
}

RunReport<std::vector<VertexId>> label_prop_cc(const Graph& g,
                                               const AlgoOptions& opt) {
  catalog::check_inputs("label-prop-cc", g);
  return run_traced(opt, [&](Tracer* t) { return label_prop_cc(g, t); });
}

RunReport<std::vector<VertexId>> ldd_cc(const Graph& g,
                                        const AlgoOptions& opt) {
  catalog::check_inputs("ldd-cc", g);
  return run_traced(opt, [&](Tracer* t) {
    return ldd_cc(g, opt.scc_beta, opt.scc_seed, t);
  });
}

// --- k-core ------------------------------------------------------------------

RunReport<std::vector<std::uint32_t>> seq_kcore(const Graph& g,
                                                const AlgoOptions& opt) {
  catalog::check_inputs("seq-kcore", g);
  return run_traced(opt, [&](Tracer* t) { return seq_kcore(g, t); });
}

RunReport<std::vector<std::uint32_t>> pasgal_kcore(const Graph& g,
                                                   const AlgoOptions& opt) {
  catalog::check_inputs("pasgal-kcore", g);
  KcoreParams p{opt.vgc};
  return run_traced(opt, [&](Tracer* t) { return pasgal_kcore(g, p, t); });
}

// --- PageRank ----------------------------------------------------------------

namespace {

PagerankParams pagerank_params(const AlgoOptions& opt) {
  PagerankParams p;
  p.max_iterations = opt.pagerank_iterations;
  p.epsilon = opt.pagerank_epsilon;
  p.damping = opt.pagerank_damping;
  p.cancel = opt.cancel;
  return p;
}

}  // namespace

RunReport<PagerankResult> seq_pagerank(const Graph& g, const Graph& gt,
                                       const AlgoOptions& opt) {
  catalog::check_inputs("seq-pagerank", g, &gt);
  PagerankParams p = pagerank_params(opt);
  return run_traced(opt,
                    [&](Tracer* t) { return seq_pagerank(g, gt, p, t); });
}

RunReport<PagerankResult> pasgal_pagerank(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt) {
  catalog::check_inputs("pasgal-pagerank", g, &gt);
  PagerankParams p = pagerank_params(opt);
  return run_traced(opt,
                    [&](Tracer* t) { return pasgal_pagerank(g, gt, p, t); });
}

// --- triangle counting -------------------------------------------------------

RunReport<std::uint64_t> seq_tc(const Graph& g, const AlgoOptions& opt) {
  catalog::check_inputs("seq-tc", g);
  return run_traced(opt, [&](Tracer* t) { return seq_tc(g, t); });
}

RunReport<std::uint64_t> pasgal_tc(const Graph& g, const AlgoOptions& opt) {
  catalog::check_inputs("pasgal-tc", g);
  TcParams p;
  p.cancel = opt.cancel;
  return run_traced(opt, [&](Tracer* t) { return pasgal_tc(g, p, t); });
}

// --- toposort ----------------------------------------------------------------

RunReport<std::vector<std::uint32_t>> seq_toposort(const Graph& g,
                                                   const AlgoOptions& opt) {
  g.ensure_validated();
  g.ensure_in_core("seq-toposort");
  g.ensure_no_delta("seq-toposort");
  return run_traced(opt, [&](Tracer* t) {
    std::vector<std::uint32_t> levels;
    seq_toposort(g, levels, t).throw_if_error();
    return levels;
  });
}

RunReport<std::vector<std::uint32_t>> pasgal_toposort(const Graph& g,
                                                      const AlgoOptions& opt) {
  g.ensure_validated();
  g.ensure_in_core("pasgal-toposort");
  g.ensure_no_delta("pasgal-toposort");
  ToposortParams p{opt.vgc};
  return run_traced(opt, [&](Tracer* t) {
    std::vector<std::uint32_t> levels;
    pasgal_toposort(g, levels, p, t).throw_if_error();
    return levels;
  });
}

}  // namespace pasgal
