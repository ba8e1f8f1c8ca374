#include <algorithm>

#include "algorithms/bcc/bcc.h"

namespace pasgal {

namespace {

// Reverse directed slot of e = (u -> v): binary search u in v's sorted list.
EdgeId reverse_slot(const Graph& g, VertexId u, VertexId v) {
  auto nbrs = g.neighbors(v);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
  return g.edge_begin(v) + static_cast<EdgeId>(it - nbrs.begin());
}

}  // namespace

// Hopcroft-Tarjan biconnectivity (the paper's sequential baseline): one DFS
// maintaining discovery/low values and a stack of edges; when a child
// subtree cannot reach above the current vertex, the edges on the stack
// down to the tree edge form one biconnected component. Fully iterative —
// recursion would overflow on the paper's large-diameter inputs.
BccResult hopcroft_tarjan_bcc(const Graph& g, Tracer* stats) {
  std::size_t n = g.num_vertices();
  std::size_t m = g.num_edges();
  constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
  constexpr std::uint64_t kNoLabel = static_cast<std::uint64_t>(-1);

  std::vector<std::uint32_t> disc(n, kUnvisited), low(n, 0);
  BccResult result;
  result.edge_label.assign(m, kNoLabel);

  struct Frame {
    VertexId v;
    VertexId parent;
    EdgeId next_edge;
    bool skipped_parent_copy;  // skip exactly one (v -> parent) slot
  };
  std::vector<Frame> dfs;
  struct StackedEdge {
    VertexId from;
    EdgeId slot;
  };
  std::vector<StackedEdge> edge_stack;
  std::uint32_t timer = 0;
  std::uint64_t next_label = 0;
  std::uint64_t edges_scanned = 0;

  // Pops stacked edges into a fresh component until (and including) the tree
  // edge p -> v. Everything above it belongs to this component because
  // nested components were already popped.
  auto pop_component = [&](VertexId p, VertexId v) {
    std::uint64_t label = next_label++;
    for (;;) {
      StackedEdge top = edge_stack.back();
      edge_stack.pop_back();
      VertexId to = g.edge_target(top.slot);
      result.edge_label[top.slot] = label;
      result.edge_label[reverse_slot(g, top.from, to)] = label;
      if (top.from == p && to == v) break;
    }
  };

  for (VertexId root = 0; root < n; ++root) {
    if (disc[root] != kUnvisited) continue;
    disc[root] = low[root] = timer++;
    dfs.push_back({root, root, g.edge_begin(root), true});

    while (!dfs.empty()) {
      Frame& f = dfs.back();
      VertexId v = f.v;
      if (f.next_edge < g.edge_end(v)) {
        EdgeId e = f.next_edge++;
        VertexId w = g.edge_target(e);
        ++edges_scanned;
        if (w == f.parent && !f.skipped_parent_copy) {
          f.skipped_parent_copy = true;  // the tree edge back to the parent
          continue;
        }
        if (disc[w] == kUnvisited) {
          edge_stack.push_back({v, e});
          disc[w] = low[w] = timer++;
          dfs.push_back({w, v, g.edge_begin(w), v == w});
        } else if (disc[w] < disc[v]) {
          // Back edge (the forward copy is skipped via the disc test).
          edge_stack.push_back({v, e});
          low[v] = std::min(low[v], disc[w]);
        }
      } else {
        dfs.pop_back();
        if (dfs.empty()) continue;
        Frame& pf = dfs.back();
        VertexId p = pf.v;
        low[p] = std::min(low[p], low[v]);
        if (low[v] >= disc[p]) {
          // p separates v's subtree: everything stacked above (and
          // including) the tree edge (p, v) is one component.
          pop_component(p, v);
        }
      }
    }
  }
  result.num_bccs = static_cast<std::size_t>(next_label);
  if (stats) {
    stats->add_edges(edges_scanned);
    stats->add_visits(n);
    stats->end_round(n);
  }
  return result;
}

std::vector<EdgeId> normalize_bcc_labels(std::span<const std::uint64_t> labels) {
  std::size_t m = labels.size();
  std::vector<std::pair<std::uint64_t, EdgeId>> pairs(m);
  parallel_for(0, m, [&](std::size_t e) {
    pairs[e] = {labels[e], static_cast<EdgeId>(e)};
  });
  sort_inplace(std::span<std::pair<std::uint64_t, EdgeId>>(pairs));
  std::vector<EdgeId> out(m);
  EdgeId rep = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (i == 0 || pairs[i].first != pairs[i - 1].first) rep = pairs[i].second;
    out[pairs[i].second] = rep;
  }
  return out;
}

std::vector<VertexId> articulation_points(const Graph& g, const BccResult& bcc) {
  std::size_t n = g.num_vertices();
  return pack_indexed<VertexId>(
      n,
      [&](std::size_t vi) {
        VertexId v = static_cast<VertexId>(vi);
        EdgeId lo = g.edge_begin(v), hi = g.edge_end(v);
        for (EdgeId e = lo + 1; e < hi; ++e) {
          if (bcc.edge_label[e] != bcc.edge_label[lo]) return true;
        }
        return false;
      },
      [&](std::size_t vi) { return static_cast<VertexId>(vi); });
}

std::size_t count_bridges(const Graph& g, const BccResult& bcc) {
  std::size_t m = g.num_edges();
  // A bridge's component contains exactly one undirected edge = two slots.
  // Count slots whose label has multiplicity 2, then halve.
  std::vector<std::uint64_t> sorted_labels(bcc.edge_label.begin(),
                                           bcc.edge_label.end());
  sort_inplace(std::span<std::uint64_t>(sorted_labels));
  std::size_t bridge_slots = 0;
  for (std::size_t i = 0; i < m;) {
    std::size_t j = i;
    while (j < m && sorted_labels[j] == sorted_labels[i]) ++j;
    if (j - i == 2) bridge_slots += 2;
    i = j;
  }
  return bridge_slots / 2;
}

}  // namespace pasgal
