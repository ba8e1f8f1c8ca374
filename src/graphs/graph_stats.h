// Library-level graph statistics: degree profiles and the sampled-search
// diameter lower bound the paper uses for its dataset table ("the number
// shown is a lower bound obtained by ... sampled searches on each graph").
#pragma once

#include <cstdint>

#include "algorithms/bfs/bfs.h"
#include "graphs/graph.h"
#include "parlay/hash_rng.h"
#include "parlay/primitives.h"

namespace pasgal {

struct DegreeStats {
  EdgeId max_degree = 0;
  double avg_degree = 0.0;
  std::size_t isolated = 0;  // vertices with out-degree 0
};

inline DegreeStats degree_stats(const Graph& g) {
  std::size_t n = g.num_vertices();
  DegreeStats s;
  if (n == 0) return s;
  s.max_degree = reduce_indexed<EdgeId>(
      n, 0, [](EdgeId a, EdgeId b) { return a < b ? b : a; },
      [&](std::size_t v) { return g.out_degree(static_cast<VertexId>(v)); });
  s.avg_degree = static_cast<double>(g.num_edges()) / static_cast<double>(n);
  s.isolated = count_if_index(
      n, [&](std::size_t v) { return g.out_degree(static_cast<VertexId>(v)) == 0; });
  return s;
}

// Histogram of out-degrees, truncated at max_bucket (counts of degree >=
// max_bucket are accumulated in the last slot).
inline std::vector<std::size_t> degree_histogram(const Graph& g,
                                                 std::size_t max_bucket = 64) {
  auto keys = tabulate(g.num_vertices(), [&](std::size_t v) {
    EdgeId d = g.out_degree(static_cast<VertexId>(v));
    return static_cast<std::uint32_t>(
        d < max_bucket ? d : max_bucket);
  });
  return histogram(std::span<const std::uint32_t>(keys), max_bucket + 1);
}

// Diameter lower bound via sampled BFS double sweeps (alternating farthest
// vertex and random restarts, as the paper's dataset table does). `gt` is
// the transpose (pass g for symmetric graphs).
inline std::uint64_t diameter_lower_bound(const Graph& g, const Graph& gt,
                                          int samples = 8,
                                          std::uint64_t seed = 7) {
  std::size_t n = g.num_vertices();
  if (n == 0) return 0;
  std::uint64_t best = 0;
  Random rng(seed);
  VertexId source = 0;
  AlgoOptions opt;
  for (int s = 0; s < samples; ++s) {
    opt.source = source;
    auto dist = pasgal_bfs(g, gt, opt).output;
    std::uint64_t ecc = 0;
    VertexId far = source;
    for (VertexId v = 0; v < n; ++v) {
      if (dist[v] != kInfDist && dist[v] > ecc) {
        ecc = dist[v];
        far = v;
      }
    }
    best = std::max(best, ecc);
    source = (s % 2 == 0) ? far
                          : static_cast<VertexId>(rng.ith_rand(
                                static_cast<std::uint64_t>(s)) %
                                                  n);
  }
  return best;
}

// Degeneracy = maximum coreness; declared here, defined with the k-core
// module to avoid a header cycle.
std::uint32_t degeneracy(const Graph& g);

}  // namespace pasgal
