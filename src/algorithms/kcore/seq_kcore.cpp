#include "algorithms/kcore/kcore.h"

namespace pasgal {

// Batagelj-Zaversnik bucket peeling: vertices sorted by current degree in a
// bucket array; repeatedly remove a minimum-degree vertex, assign its
// coreness, and decrement its unpeeled neighbours (moving them down one
// bucket). O(n + m), the standard sequential baseline.
std::vector<std::uint32_t> seq_kcore(const Graph& g, Tracer* stats) {
  g.ensure_validated();  // degree[u] bucket moves index unchecked targets
  std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> degree(n);
  std::uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.out_degree(v));
    max_degree = std::max(max_degree, degree[v]);
  }

  // Counting sort by degree.
  std::vector<std::size_t> bucket_start(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bucket_start[degree[v] + 1];
  for (std::size_t d = 1; d < bucket_start.size(); ++d) {
    bucket_start[d] += bucket_start[d - 1];
  }
  std::vector<VertexId> order(n);        // vertices sorted by current degree
  std::vector<std::size_t> position(n);  // index of v within `order`
  {
    auto cursor = bucket_start;
    for (VertexId v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]];
      order[position[v]] = v;
      ++cursor[degree[v]];
    }
  }

  std::vector<std::uint32_t> core(n, 0);
  std::uint64_t edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    VertexId v = order[i];
    core[v] = degree[v];
    for (VertexId u : g.neighbors(v)) {
      ++edges;
      if (degree[u] <= degree[v]) continue;  // already peeled or same bucket
      // Move u one bucket down: swap it with the first vertex of its bucket.
      std::size_t u_pos = position[u];
      std::size_t bucket_first = bucket_start[degree[u]];
      VertexId w = order[bucket_first];
      if (u != w) {
        std::swap(order[u_pos], order[bucket_first]);
        position[u] = bucket_first;
        position[w] = u_pos;
      }
      ++bucket_start[degree[u]];
      --degree[u];
    }
  }
  if (stats) {
    stats->add_edges(edges);
    stats->add_visits(n);
    stats->end_round(n);
  }
  return core;
}

}  // namespace pasgal
