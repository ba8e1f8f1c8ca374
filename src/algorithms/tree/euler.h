// Euler-tour technique on a spanning forest: rooting, parents, and nested
// DFS-style intervals — without any DFS. Used by FAST-BCC and Tarjan-Vishkin.
//
// Pipeline: forest edges -> Euler circuit over arcs (each tree edge becomes
// two arcs; the successor of an arc (u,v) is the arc leaving v after (v,u)
// in v's circular adjacency order) -> cut at each root -> O(k)-work parallel
// list ranking gives tour positions -> the earlier arc of each pair points
// down the tree, yielding parent and the interval [first, last].
//
// Intervals are globally disjoint across trees, so
//   u is an ancestor of v  <=>  first[u] <= first[v] && last[v] <= last[u].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graphs/graph.h"

namespace pasgal {

struct EulerForest {
  std::vector<VertexId> parent;      // parent[root] = root
  std::vector<std::uint64_t> first;  // entry time (unique per vertex)
  std::vector<std::uint64_t> last;   // exit time; first[v] < last[v]

  bool is_ancestor(VertexId u, VertexId v) const {
    return first[u] <= first[v] && last[v] <= last[u];
  }
  bool is_root(VertexId v) const { return parent[v] == v; }
};

// `forest_edges` must be acyclic (a spanning forest, e.g. from
// connected_components). `component_label[v]` names v's component by its
// minimum vertex (also from connected_components); that vertex becomes the
// root of its tree.
EulerForest euler_tour_forest(std::size_t n, std::span<const Edge> forest_edges,
                              std::span<const VertexId> component_label);

// Parallel list ranking with O(k) work. succ[i] == kListEnd terminates a
// list; every node has at most one predecessor and the lists are acyclic.
// Returns r[i] = number of nodes from i to the end of its list, inclusive
// (so the head of an L-node list gets L). Deterministic samples (the list
// heads and the ids whose hash hits 1 in 64) cut the lists into short
// segments: parallel walks measure the segments and note each node's offset,
// pointer jumping ranks the ~k/64 samples, and one parallel pass over the
// nodes fills in every rank.
inline constexpr std::uint64_t kListEnd = static_cast<std::uint64_t>(-1);
std::vector<std::uint64_t> list_rank(std::span<const std::uint64_t> succ);

}  // namespace pasgal
