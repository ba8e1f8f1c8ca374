#include "algorithms/tree/euler.h"

#include <algorithm>

#include "parlay/hash_rng.h"
#include "parlay/parallel.h"
#include "parlay/primitives.h"

namespace pasgal {

std::vector<std::uint64_t> list_rank(std::span<const std::uint64_t> succ) {
  std::size_t k = succ.size();
  // Samples: every list head, plus the ids whose hash hits 1 in 64. They cut
  // the lists into segments of expected length <= 64, one per sample. A
  // successor is never a head, so a walk tests the hash alone.
  auto hashed = [](std::uint64_t i) { return (hash64(i) & 63) == 0; };
  std::vector<std::uint8_t> has_pred(k, 0);
  parallel_for(0, k, [&](std::size_t i) {
    if (succ[i] != kListEnd) has_pred[succ[i]] = 1;  // one predecessor each
  });
  auto samples = pack_index(
      k, [&](std::size_t i) { return has_pred[i] == 0 || hashed(i); });
  std::size_t s = samples.size();

  // Walk each segment once: every node notes its segment and its offset in
  // it (in rank, for now); the segment notes its length and the next sample.
  // A task advances kLanes walks in lockstep, so their cache misses overlap
  // instead of queueing behind one pointer chase.
  constexpr std::size_t kLanes = 16;
  std::vector<std::uint64_t> rank(k), segment(k);
  std::vector<std::uint64_t> seg_rank(s), seg_next(s);
  auto sample_index = [&](std::uint64_t id) {
    return static_cast<std::uint64_t>(
        std::lower_bound(samples.begin(), samples.end(), id) - samples.begin());
  };
  blocked_for(0, s, kLanes, [&](std::size_t, std::size_t lo, std::size_t hi) {
    struct Walk {
      std::uint64_t seg, cur, offset;
    };
    Walk walks[kLanes];
    std::size_t live = hi - lo;
    for (std::size_t i = 0; i < live; ++i) {
      walks[i] = {lo + i, samples[lo + i], 0};
    }
    while (live > 0) {
      for (std::size_t i = 0; i < live;) {
        Walk& w = walks[i];
        rank[w.cur] = w.offset++;
        segment[w.cur] = w.seg;
        std::uint64_t next = succ[w.cur];
        if (next != kListEnd && !hashed(next)) {
          w.cur = next;
          ++i;
          continue;
        }
        seg_rank[w.seg] = w.offset;
        seg_next[w.seg] = next == kListEnd ? kListEnd : sample_index(next);
        w = walks[--live];  // retire: the last live walk takes this slot
      }
    }
  });

  // Rank the short sample list by weighted pointer jumping.
  std::vector<std::uint64_t> rank2(s), next2(s);
  while (count_if_index(s, [&](std::size_t j) {
           return seg_next[j] != kListEnd;
         }) > 0) {
    parallel_for(0, s, [&](std::size_t j) {
      std::uint64_t nx = seg_next[j];
      rank2[j] = nx == kListEnd ? seg_rank[j] : seg_rank[j] + seg_rank[nx];
      next2[j] = nx == kListEnd ? kListEnd : seg_next[nx];
    });
    std::swap(seg_rank, rank2);
    std::swap(seg_next, next2);
  }

  parallel_for(0, k, [&](std::size_t i) {
    rank[i] = seg_rank[segment[i]] - rank[i];
  });
  return rank;
}

EulerForest euler_tour_forest(std::size_t n, std::span<const Edge> forest_edges,
                              std::span<const VertexId> component_label) {
  // Symmetric CSR over the forest: each tree edge becomes two arcs.
  std::vector<Edge> both(2 * forest_edges.size());
  parallel_for(0, forest_edges.size(), [&](std::size_t i) {
    both[2 * i] = forest_edges[i];
    both[2 * i + 1] = Edge{forest_edges[i].to, forest_edges[i].from};
  });
  Graph tree = Graph::from_edges(n, both);
  std::size_t k = tree.num_edges();

  // Arc source lookup.
  std::vector<VertexId> arc_source(k);
  parallel_for(0, n, [&](std::size_t v) {
    for (EdgeId e = tree.edge_begin(static_cast<VertexId>(v));
         e < tree.edge_end(static_cast<VertexId>(v)); ++e) {
      arc_source[e] = static_cast<VertexId>(v);
    }
  });

  // twin(e): the reverse arc; adjacency lists are sorted and duplicate-free,
  // so a binary search in the target's list finds it.
  auto twin = [&](EdgeId e) -> EdgeId {
    VertexId u = arc_source[e];
    VertexId v = tree.edge_target(e);
    auto nbrs = tree.neighbors(v);
    auto it = std::lower_bound(nbrs.begin(), nbrs.end(), u);
    return tree.edge_begin(v) + static_cast<EdgeId>(it - nbrs.begin());
  };

  // Euler circuit successor, then cut each tree's circuit at its root.
  std::vector<std::uint64_t> succ(k);
  parallel_for(0, k, [&](std::size_t e) {
    VertexId v = tree.edge_target(static_cast<EdgeId>(e));
    EdgeId tw = twin(static_cast<EdgeId>(e));
    EdgeId pos = tw - tree.edge_begin(v);
    EdgeId deg = tree.out_degree(v);
    succ[e] = tree.edge_begin(v) + (pos + 1) % deg;
  });
  parallel_for(0, n, [&](std::size_t vi) {
    VertexId v = static_cast<VertexId>(vi);
    if (component_label[v] != v || tree.out_degree(v) == 0) return;
    // v is a root: the tour starts at its first arc; the arc whose successor
    // would wrap to it ends the list.
    EdgeId start = tree.edge_begin(v);
    EdgeId ender = twin(tree.edge_end(v) - 1);
    (void)start;
    succ[ender] = kListEnd;
  });

  auto rank = list_rank(succ);  // nodes from arc to its tree's tour end

  // Disjoint position ranges per tree: tree t with tour length L occupies
  // [offset, offset + L + 2) — the +2 leaves room for the root's own
  // first/last around its arcs.
  std::vector<std::uint64_t> offset_of_root(n, 0);
  {
    auto roots = pack_indexed<VertexId>(
        n,
        [&](std::size_t v) { return component_label[v] == v; },
        [&](std::size_t v) { return static_cast<VertexId>(v); });
    std::vector<std::uint64_t> spans(roots.size());
    parallel_for(0, roots.size(), [&](std::size_t i) {
      VertexId r = roots[i];
      std::uint64_t len =
          tree.out_degree(r) == 0 ? 0 : rank[tree.edge_begin(r)];
      spans[i] = len + 2;
    });
    scan_inplace(std::span<std::uint64_t>(spans));
    parallel_for(0, roots.size(),
                 [&](std::size_t i) { offset_of_root[roots[i]] = spans[i]; });
  }

  // Global position of each arc along its tree's tour.
  std::vector<std::uint64_t> pos(k);
  parallel_for(0, k, [&](std::size_t e) {
    VertexId root = component_label[arc_source[e]];
    std::uint64_t len = rank[tree.edge_begin(root)];
    pos[e] = offset_of_root[root] + (len - rank[e]);
  });

  EulerForest out;
  out.parent.resize(n);
  out.first.resize(n);
  out.last.resize(n);
  parallel_for(0, n, [&](std::size_t vi) {
    VertexId v = static_cast<VertexId>(vi);
    VertexId root = component_label[v];
    if (root == v) {
      out.parent[v] = v;
      std::uint64_t len =
          tree.out_degree(v) == 0 ? 0 : rank[tree.edge_begin(v)];
      out.first[v] = offset_of_root[v];
      out.last[v] = offset_of_root[v] + len + 1;
      return;
    }
    // Of v's arcs' twins (arcs pointing at v), the one with the smallest
    // position is the entry (down) arc; its source is the parent.
    std::uint64_t best_pos = ~0ULL, worst_pos = 0;
    VertexId parent = v;
    for (EdgeId e = tree.edge_begin(v); e < tree.edge_end(v); ++e) {
      EdgeId in_arc = twin(e);
      if (pos[in_arc] < best_pos) {
        best_pos = pos[in_arc];
        parent = arc_source[in_arc];
      }
      // The exit time is just after the last arc leaving v.
      worst_pos = std::max(worst_pos, pos[e]);
    }
    out.parent[v] = parent;
    out.first[v] = best_pos + 1;
    out.last[v] = worst_pos + 1;
  });
  return out;
}

}  // namespace pasgal
