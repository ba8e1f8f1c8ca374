// Vertical granularity control (VGC) — the paper's core technique (§2.1).
//
// Classic (horizontal) granularity control batches *sibling* loop iterations
// into one task. VGC instead grows each task *downward*: a task that picks a
// frontier vertex keeps exploring the graph through multiple hops, using a
// task-local stack, until it has visited at least `tau` vertices. Only the
// overflow (vertices discovered after the budget is spent) is handed to the
// next shared frontier. On sparse large-diameter graphs this
//   (1) divides the number of global synchronizations by the hops a local
//       search advances, and
//   (2) snowballs the frontier so every core has work,
// at the cost of abandoning the strict BFS order — which is harmless for
// reachability-style computations, and handled with distance re-checks in
// BFS/SSSP.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/hashbag.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

// The budget itself, VgcParams::tau, rides AlgoOptions (pasgal/options.h).
// Hard cap on a task-local stack or queue (bounds per-task memory); shared by
// the local searches below and the k-core and toposort peeling tasks.
inline constexpr std::uint32_t kVgcLocalStackCap = 4096;

// Generic reachability-flavoured local search.
//
//   try_mark(v) -> bool : attempt to claim v (atomically); true iff this call
//                         claimed it. Called at most once per discovery.
//
// Starting from `root` (which must already be claimed), explores out-edges of
// claimed vertices. Claimed vertices beyond the budget are inserted into
// `next` for the following round. Returns the number of vertices expanded.
template <typename TryMark>
std::uint64_t local_search(const Graph& g, VertexId root, const VgcParams& p,
                           TryMark&& try_mark, HashBag<VertexId>& next,
                           Tracer* stats = nullptr) {
  // Task-local stack; plain vector, no sharing.
  std::vector<VertexId> stack;
  stack.reserve(64);
  stack.push_back(root);
  std::uint64_t expanded = 0;
  std::uint64_t edges = 0;
  while (!stack.empty()) {
    VertexId u = stack.back();
    stack.pop_back();
    ++expanded;
    for (VertexId v : g.neighbors(u)) {
      ++edges;
      if (try_mark(v)) {
        if (expanded < p.tau && stack.size() < kVgcLocalStackCap) {
          stack.push_back(v);
        } else {
          next.insert(v);
        }
      }
    }
  }
  if (stats) {
    stats->add_edges(edges);
    stats->add_visits(expanded);
    stats->add_local_depth(expanded);
  }
  return expanded;
}

// Distance-aware local search for BFS/SSSP-style algorithms. Entries carry
// the tentative distance they were enqueued with; stale entries (their
// vertex's distance has since improved) are skipped.
//
//   relax(u, d_u, emit) : relax all out-edges of u given its distance d_u;
//                         for each improved neighbour call emit(v, d_v).
//
// Vertices improved beyond the budget go to `spill(v, d_v)`.
//
// The task explores a *ball* around the root rather than a DFS tendril, so
// the tentative distances it assigns are (near-)exact within the ball and the
// spilled frontier sits just outside it. With a LIFO stack the task would
// label a depth-tau path with path-length distances, all of which later
// rounds must correct. Which ball depends on the weights:
//   LocalOrder::kFifo    expands in hop order. With unit weights (BFS) hop
//                        order *is* distance order, so a plain queue is
//                        exact and cheapest.
//   LocalOrder::kMinDist pops the minimum tentative distance from a small
//                        binary heap: a task-local Dijkstra. With weights a
//                        FIFO ball is a hop ball, whose labels are
//                        path-length distances along few-hop, heavy paths;
//                        popping the closest entry first makes the ball a
//                        distance ball, so far fewer labels need correcting.
// Both orders share the budget rules: entries are kept while fewer than tau
// have been expanded and the container holds fewer than kVgcLocalStackCap,
// and stale pops still count as expansions.
//
// `exhausted()` lets the caller end the search early, e.g. once it has
// scanned an edge budget: it is checked before each pop, and once it returns
// true every entry still queued goes to `spill` unexpanded. Without it, a
// budget counted in expansions lets one task around a hub scan a large share
// of the graph's edges.
enum class LocalOrder { kFifo, kMinDist };

struct NeverExhausted {
  bool operator()() const { return false; }
};

template <LocalOrder kOrder = LocalOrder::kFifo, typename Relax,
          typename Spill, typename Exhausted = NeverExhausted>
std::uint64_t local_search_dist(VertexId root, std::uint32_t root_dist,
                                const VgcParams& p, Relax&& relax,
                                Spill&& spill, Tracer* stats = nullptr,
                                Exhausted&& exhausted = {}) {
  struct Entry {
    VertexId v;
    std::uint32_t dist;
  };
  // Heap order: the entry with the larger distance sinks.
  auto farther = [](const Entry& a, const Entry& b) { return a.dist > b.dist; };
  std::vector<Entry> queue;
  queue.reserve(64);
  queue.push_back({root, root_dist});
  std::size_t head = 0;  // kFifo: entries before head were popped
  auto pop = [&]() -> Entry {
    if constexpr (kOrder == LocalOrder::kFifo) {
      return queue[head++];
    } else {
      std::pop_heap(queue.begin(), queue.end(), farther);
      Entry e = queue.back();
      queue.pop_back();
      return e;
    }
  };
  std::uint64_t expanded = 0;
  while (head < queue.size()) {
    if (exhausted()) {
      for (std::size_t i = head; i < queue.size(); ++i) {
        spill(queue[i].v, queue[i].dist);
      }
      break;
    }
    Entry e = pop();
    ++expanded;
    relax(e.v, e.dist, [&](VertexId v, std::uint32_t d) {
      if (expanded < p.tau && queue.size() < kVgcLocalStackCap) {
        queue.push_back({v, d});
        if constexpr (kOrder == LocalOrder::kMinDist) {
          std::push_heap(queue.begin(), queue.end(), farther);
        }
      } else {
        spill(v, d);
      }
    });
  }
  if (stats) {
    stats->add_visits(expanded);
    stats->add_local_depth(expanded);
  }
  return expanded;
}

}  // namespace pasgal
