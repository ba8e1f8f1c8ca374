// Network resilience audit via biconnectivity.
//
//   $ ./examples/network_resilience
//
// Models a backbone network (a chain of ring "pods" with tap lines — the
// large-diameter mesh class from the paper) and uses FAST-BCC to find its
// single points of failure: articulation nodes (whose loss disconnects the
// network) and bridge links (whose loss partitions it). Also shows the fix:
// adding redundant links and re-auditing.
#include <cstdio>

#include "algorithms/bcc/bcc.h"
#include "graphs/generators.h"

using namespace pasgal;

namespace {

void audit(const char* label, const Graph& g) {
  auto run = fast_bcc(g, AlgoOptions{});
  const BccResult& bcc = run.output;
  auto cuts = articulation_points(g, bcc);
  std::size_t bridges = count_bridges(g, bcc);
  std::printf("%s: %zu nodes, %zu links -> %zu biconnected components, "
              "%zu articulation nodes, %zu bridge links (%zu rounds)\n",
              label, g.num_vertices(), g.num_edges() / 2, bcc.num_bccs,
              cuts.size(), bridges, run.telemetry.rounds.size());
}

}  // namespace

int main() {
  // 60 pods of 24 routers each, pods chained by single uplinks: every
  // uplink is a bridge and every junction router an articulation point.
  Graph backbone = gen::bubbles(60, 24);
  audit("initial backbone   ", backbone);

  // Remediation: add a redundant express link between every second pod.
  auto edges = backbone.to_edges();
  std::size_t pod = 24;
  for (std::size_t ring = 0; ring + 2 < 60; ring += 2) {
    VertexId a = static_cast<VertexId>(ring * pod + 3);
    VertexId b = static_cast<VertexId>((ring + 2) * pod + 3);
    edges.push_back({a, b});
    edges.push_back({b, a});
  }
  Graph hardened = Graph::from_edges(backbone.num_vertices(), edges,
                                     /*dedup=*/true, /*drop_self_loops=*/true);
  audit("with express links ", hardened);

  // The worst offenders: articulation points ranked by how many distinct
  // components they touch.
  BccResult bcc = fast_bcc(backbone, AlgoOptions{}).output;
  auto cuts = articulation_points(backbone, bcc);
  std::printf("first articulation nodes in the initial design:");
  for (std::size_t i = 0; i < cuts.size() && i < 8; ++i) {
    std::printf(" %u", cuts[i]);
  }
  std::printf("%s\n", cuts.size() > 8 ? " ..." : "");
  return 0;
}
