// Lock-free concurrent union-find over a graph's own CSR, shared by
// connected_components (every edge), FAST-BCC's spanning-forest pass (one
// direction of each symmetric edge) and its implicit skeleton (the skeleton
// edges only). Roots link larger id under smaller, so every final root is its
// component's minimum vertex id.
#pragma once

#include <atomic>
#include <utility>
#include <vector>

#include "graphs/graph.h"
#include "parlay/primitives.h"
#include "pasgal/telemetry.h"

namespace pasgal::internal {

using UnionFindParents = std::vector<std::atomic<VertexId>>;

// Path-halving find on an atomic parent array. Safe under concurrent unions:
// parents only ever decrease (roots link to smaller ids), so every step makes
// progress toward a smaller-rooted tree. A child of a root is left alone: a
// CAS there would write its unchanged parent and bounce the cache line.
inline VertexId find_root(UnionFindParents& parent, VertexId v) {
  VertexId p = parent[v].load(std::memory_order_relaxed);
  while (p != v) {
    VertexId gp = parent[p].load(std::memory_order_relaxed);
    if (gp != p) {
      parent[v].compare_exchange_weak(p, gp, std::memory_order_relaxed);
    }
    v = p;
    p = parent[v].load(std::memory_order_relaxed);
  }
  return v;
}

// Merges the components of u and v. Returns the root this call linked under
// the other (each root is linked at most once, by exactly one call), or
// kInvalidVertex when u and v were already connected.
inline VertexId unite(UnionFindParents& parent, VertexId u, VertexId v) {
  for (;;) {
    VertexId ru = find_root(parent, u);
    VertexId rv = find_root(parent, v);
    if (ru == rv) return kInvalidVertex;
    if (ru < rv) std::swap(ru, rv);  // link larger root under smaller
    VertexId expected = ru;
    if (parent[ru].compare_exchange_strong(expected, rv,
                                           std::memory_order_relaxed)) {
      return ru;
    }
  }
}

// Unites the endpoints of every edge (u, v) of g with keep(u, v) in one
// parallel pass over the CSR, and returns label[v] = the minimum vertex id of
// v's component. With `forest`, a link of root r records its edge at slot r
// of an n-slot array; the slots of the n - #components linked roots are
// packed into *forest, which is then a spanning forest of the kept edges.
// Callers must have validated g (targets < n).
template <typename Keep>
std::vector<VertexId> union_edges(const Graph& g, const Keep& keep,
                                  std::vector<Edge>* forest, Tracer* stats) {
  std::size_t n = g.num_vertices();
  UnionFindParents parent(n);
  parallel_for(0, n, [&](std::size_t i) {
    parent[i].store(static_cast<VertexId>(i), std::memory_order_relaxed);
  });
  std::vector<Edge> link(forest != nullptr ? n : 0);
  parallel_for(0, n, [&](std::size_t ui) {
    VertexId u = static_cast<VertexId>(ui);
    for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      VertexId v = g.edge_target(e);
      if (!keep(u, v)) continue;
      VertexId linked = unite(parent, u, v);
      if (forest != nullptr && linked != kInvalidVertex) {
        link[linked] = Edge{u, v};
      }
    }
  });
  if (stats) {
    stats->add_edges(g.num_edges());
    stats->add_visits(n);
    stats->end_round(n);
  }

  std::vector<VertexId> label(n);
  parallel_for(0, n, [&](std::size_t v) {
    label[v] = find_root(parent, static_cast<VertexId>(v));
  });
  if (forest != nullptr) {
    // Exactly the non-roots were linked, once each.
    *forest = pack_indexed<Edge>(
        n, [&](std::size_t r) { return label[r] != r; },
        [&](std::size_t r) { return link[r]; });
  }
  return label;
}

}  // namespace pasgal::internal
