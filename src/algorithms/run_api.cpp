// AlgoOptions/RunReport entry points for every algorithm family.
//
// Each wrapper guards its inputs and routes the run through run_traced(),
// which owns the tracer plumbing and the wall-clock/telemetry bookkeeping.
// The kernels read their knobs, source and cancel token from the same
// AlgoOptions the caller passed.

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
// the single choke point where the entry points lazily validate
// their graph(s) (the O(1) mmap open path defers per-element CSR checks; a
// no-op after the first call on a storage handle, see
// Graph::ensure_validated) and apply the row's in_core and overlay columns.
// A variant whose kernel random-accesses the CSR arrays rejects sharded
// opens; one that reads the base CSR directly rejects a pending update
// overlay (graphs/delta.h), against which it would silently compute on the
// stale base. Toposort has no catalog row (no driver runs it) and applies
// the same two guards directly.

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
  return run_traced(
      opt, [&](Tracer* t) { return internal::gapbs_bfs(g, gt, opt, t); });
}

RunReport<std::vector<std::uint32_t>> pasgal_bfs(const Graph& g,
                                                 const Graph& gt,
                                                 const AlgoOptions& opt) {
  catalog::check_inputs("pasgal-bfs", g, &gt);
  return run_traced(
      opt, [&](Tracer* t) { return internal::pasgal_bfs(g, gt, opt, t); });
}

BatchReport<std::vector<std::uint32_t>> ms_bfs(const Graph& g, const Graph& gt,
                                               const BatchOptions& opt) {
  catalog::check_inputs("ms-bfs", g, &gt, /*batch=*/true);
  check_batch_sources(opt.sources, g.num_vertices());
  Tracer local;
  Tracer* tracer = opt.algo.tracer != nullptr ? opt.algo.tracer : &local;
  tracer->reset();
  auto start = std::chrono::steady_clock::now();
  auto dists = internal::ms_bfs(g, gt, opt, tracer);
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

RunReport<std::vector<Dist>> em_bellman_ford(
    const WeightedGraph<std::uint32_t>& g, const AlgoOptions& opt) {
  catalog::check_inputs("em-bellman-ford", g);
  return run_traced(opt, [&](Tracer* t) {
    return em_bellman_ford(g, opt.source, opt.cancel, t);
  });
}

RunReport<std::vector<Dist>> stepping_sssp(
    const WeightedGraph<std::uint32_t>& g, const AlgoOptions& opt) {
  catalog::check_inputs("stepping SSSP", g);
  return run_traced(
      opt, [&](Tracer* t) { return internal::stepping_sssp(g, opt, t); });
}

BatchReport<std::vector<Dist>> batch_sssp(const WeightedGraph<std::uint32_t>& g,
                                          const BatchOptions& opt) {
  catalog::check_inputs("stepping SSSP", g, /*batch=*/true);
  check_batch_sources(opt.sources, g.num_vertices());
  AlgoOptions one = opt.algo;  // `source` varies per run
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
    one.source = opt.sources[i];
    report.per_source[i].output = internal::stepping_sssp(g, one, tracer);
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
  return run_traced(
      opt, [&](Tracer* t) { return internal::pasgal_scc(g, gt, opt, t); });
}

RunReport<std::vector<SccLabel>> gbbs_scc(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt) {
  catalog::check_inputs("gbbs-scc", g, &gt);
  return run_traced(
      opt, [&](Tracer* t) { return internal::gbbs_scc(g, gt, opt, t); });
}

RunReport<std::vector<SccLabel>> multistep_scc(const Graph& g, const Graph& gt,
                                               const AlgoOptions& opt) {
  catalog::check_inputs("multistep-scc", g, &gt);
  return run_traced(opt, [&](Tracer* t) {
    return internal::multistep_scc(g, gt, opt, t);
  });
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
    return ldd_cc(g, kLddBeta, opt.scc_seed, t);
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
  return run_traced(
      opt, [&](Tracer* t) { return internal::pasgal_kcore(g, opt, t); });
}

// --- PageRank ----------------------------------------------------------------

RunReport<PagerankResult> seq_pagerank(const Graph& g, const Graph& gt,
                                       const AlgoOptions& opt) {
  catalog::check_inputs("seq-pagerank", g, &gt);
  return run_traced(opt, [&](Tracer* t) {
    return internal::seq_pagerank(g, gt, opt, t);
  });
}

RunReport<PagerankResult> pasgal_pagerank(const Graph& g, const Graph& gt,
                                          const AlgoOptions& opt) {
  catalog::check_inputs("pasgal-pagerank", g, &gt);
  return run_traced(opt, [&](Tracer* t) {
    return internal::pasgal_pagerank(g, gt, opt, t);
  });
}

// --- triangle counting -------------------------------------------------------

RunReport<std::uint64_t> seq_tc(const Graph& g, const AlgoOptions& opt) {
  catalog::check_inputs("seq-tc", g);
  return run_traced(opt, [&](Tracer* t) { return seq_tc(g, t); });
}

RunReport<std::uint64_t> pasgal_tc(const Graph& g, const AlgoOptions& opt) {
  catalog::check_inputs("pasgal-tc", g);
  return run_traced(
      opt, [&](Tracer* t) { return internal::pasgal_tc(g, opt, t); });
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
  return run_traced(opt, [&](Tracer* t) {
    std::vector<std::uint32_t> levels;
    internal::pasgal_toposort(g, levels, opt, t).throw_if_error();
    return levels;
  });
}

}  // namespace pasgal
