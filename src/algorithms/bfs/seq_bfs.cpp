#include <queue>

#include "algorithms/bfs/bfs.h"

namespace pasgal {

// The paper's sequential baseline: textbook queue-based BFS.
std::vector<std::uint32_t> seq_bfs(const Graph& g, VertexId source,
                                   Tracer* stats) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kInfDist);
  std::queue<VertexId> queue;
  dist[source] = 0;
  queue.push(source);
  std::uint64_t edges = 0, visits = 0;
  while (!queue.empty()) {
    VertexId u = queue.front();
    queue.pop();
    ++visits;
    for (VertexId v : g.neighbors(u)) {
      ++edges;
      if (dist[v] == kInfDist) {
        dist[v] = dist[u] + 1;
        queue.push(v);
      }
    }
  }
  if (stats) {
    stats->add_edges(edges);
    stats->add_visits(visits);
    stats->end_round(visits);  // a sequential run is one "round"
  }
  return dist;
}

}  // namespace pasgal
