#include "algorithms/tc/tc.h"

#include <algorithm>
#include <vector>

#include "parlay/primitives.h"

namespace pasgal {

namespace {

// Degree-ordered rank: u precedes v iff (deg(u), u) < (deg(v), v). Ties
// break on vertex id, so the order is total and the DAG is well-defined.
inline bool rank_less(const Graph& g, VertexId u, VertexId v) {
  EdgeId du = g.out_degree(u), dv = g.out_degree(v);
  return du != dv ? du < dv : u < v;
}

// Oriented adjacency: for each u, the sorted list of neighbours v with
// rank(u) < rank(v). Sorted-by-id inputs stay sorted under filtering.
struct Dag {
  std::vector<EdgeId> offsets;
  std::vector<VertexId> targets;

  std::span<const VertexId> list(VertexId u) const {
    return {targets.data() + offsets[u],
            static_cast<std::size_t>(offsets[u + 1] - offsets[u])};
  }
};

Dag build_dag(const Graph& g) {
  std::size_t n = g.num_vertices();
  Dag dag;
  std::vector<EdgeId> degree(n);
  parallel_for(0, n, [&](std::size_t u) {
    EdgeId kept = 0;
    for (VertexId v : g.neighbors(static_cast<VertexId>(u))) {
      if (v != u && rank_less(g, static_cast<VertexId>(u), v)) ++kept;
    }
    degree[u] = kept;
  });
  dag.offsets.resize(n + 1);
  dag.offsets[n] = scan_indexed<EdgeId>(
      n, [&](std::size_t u) { return degree[u]; },
      [&](std::size_t u, EdgeId x) { dag.offsets[u] = x; });
  dag.targets.resize(dag.offsets[n]);
  parallel_for(0, n, [&](std::size_t u) {
    EdgeId out = dag.offsets[u];
    for (VertexId v : g.neighbors(static_cast<VertexId>(u))) {
      if (v != u && rank_less(g, static_cast<VertexId>(u), v)) {
        dag.targets[out++] = v;
      }
    }
  });
  return dag;
}

std::uint64_t merge_intersect(std::span<const VertexId> a,
                              std::span<const VertexId> b) {
  std::uint64_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

std::uint64_t search_intersect(std::span<const VertexId> small,
                               std::span<const VertexId> big) {
  std::uint64_t count = 0;
  for (VertexId v : small) {
    count += std::binary_search(big.begin(), big.end(), v) ? 1 : 0;
  }
  return count;
}

// Merge-vs-binary-search hybrid keyed on the list-length ratio.
std::uint64_t hybrid_intersect(std::span<const VertexId> a,
                               std::span<const VertexId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return 0;
  if (b.size() / a.size() >= kTcBinarySearchRatio) {
    return search_intersect(a, b);
  }
  return merge_intersect(a, b);
}

// One vertex's wedge closures: intersect its DAG list with each DAG
// neighbour's list. `scanned` counts list elements read, for telemetry.
template <typename Intersect>
std::uint64_t count_from(const Dag& dag, VertexId u, const Intersect& inter,
                         std::uint64_t& scanned) {
  std::uint64_t local = 0;
  std::span<const VertexId> lu = dag.list(u);
  for (VertexId v : lu) {
    std::span<const VertexId> lv = dag.list(v);
    scanned += lu.size() + lv.size();
    local += inter(lu, lv);
  }
  return local;
}

}  // namespace

std::uint64_t seq_tc(const Graph& g, Tracer* stats) {
  std::size_t n = g.num_vertices();
  Dag dag = build_dag(g);
  std::uint64_t triangles = 0;
  std::uint64_t scanned = 0;
  for (VertexId u = 0; u < n; ++u) {
    triangles += count_from(dag, u, merge_intersect, scanned);
  }
  if (stats) {
    stats->add_edges(scanned);
    stats->add_visits(n);
    stats->end_round(n);
  }
  return triangles;
}

std::uint64_t internal::pasgal_tc(const Graph& g, const AlgoOptions& opt,
                                  Tracer* stats) {
  const CancelToken* const cancel = opt.cancel;
  std::size_t n = g.num_vertices();
  Dag dag = build_dag(g);
  // Sources are processed in blocks: the block boundary is where the round
  // master checks the deadline and records a round, so a server query on a
  // huge graph still honours its deadline mid-count.
  constexpr std::size_t kBlock = 1 << 16;
  std::uint64_t triangles = 0;
  for (std::size_t lo = 0; lo < n; lo += kBlock) {
    if (cancel != nullptr) cancel->check("tc block boundary");
    std::size_t hi = std::min(n, lo + kBlock);
    triangles += reduce_indexed<std::uint64_t>(
        hi - lo, 0, std::plus<std::uint64_t>{}, [&](std::size_t rel) {
          VertexId u = static_cast<VertexId>(lo + rel);
          std::uint64_t scanned = 0;
          std::uint64_t local =
              count_from(dag, u, hybrid_intersect, scanned);
          if (stats) {
            stats->add_edges(scanned);
            stats->add_visits(1);
          }
          return local;
        });
    if (stats) stats->end_round(hi - lo, RoundKind::kLocal);
  }
  return triangles;
}

}  // namespace pasgal
