#include "algorithms/cc/ldd.h"

#include <atomic>
#include <cmath>

#include "parlay/hash_rng.h"
#include "parlay/primitives.h"

namespace pasgal {

LddResult ldd(const Graph& g, double beta, std::uint64_t seed, Tracer* stats) {
  g.ensure_validated();  // cluster[v] CAS below indexes unchecked targets
  std::size_t n = g.num_vertices();
  Random rng(seed);

  // Integer start delays ~ floor(Exponential(beta)), capped so termination
  // never depends on the tail of the distribution.
  std::uint32_t cap =
      static_cast<std::uint32_t>(4.0 * std::log(static_cast<double>(n) + 2) / beta) + 2;
  std::vector<std::uint32_t> delay(n);
  parallel_for(0, n, [&](std::size_t v) {
    double u = (static_cast<double>(rng.ith_rand(v) >> 11) + 1.0) / 9007199254740993.0;
    double e = -std::log(u) / beta;
    delay[v] = e >= cap ? cap : static_cast<std::uint32_t>(e);
  });

  std::vector<std::atomic<VertexId>> cluster(n);
  parallel_for(0, n, [&](std::size_t v) {
    cluster[v].store(kInvalidVertex, std::memory_order_relaxed);
  });

  std::vector<VertexId> frontier;
  std::size_t claimed = 0;
  std::uint32_t t = 0;
  std::size_t rounds = 0;
  while (claimed < n) {
    // Vertices whose delay elapsed and are still unclaimed become centres.
    auto starters = pack_indexed<VertexId>(
        n,
        [&](std::size_t v) {
          return delay[v] <= t &&
                 cluster[v].load(std::memory_order_relaxed) == kInvalidVertex;
        },
        [&](std::size_t v) { return static_cast<VertexId>(v); });
    for (VertexId v : starters) {
      // Sequentializable: each starter claims itself (no contention — it is
      // unclaimed by definition and no BFS wave runs concurrently).
      cluster[v].store(v, std::memory_order_relaxed);
    }
    claimed += starters.size();
    frontier.insert(frontier.end(), starters.begin(), starters.end());

    if (!frontier.empty()) {
      ++rounds;
      if (stats) stats->end_round(frontier.size());
      std::vector<std::uint8_t> next_mask(n, 0);
      parallel_for(
          0, frontier.size(),
          [&](std::size_t i) {
            VertexId u = frontier[i];
            VertexId cu = cluster[u].load(std::memory_order_relaxed);
            std::uint64_t edges = 0;
            for (VertexId v : g.neighbors(u)) {
              ++edges;
              VertexId expected = kInvalidVertex;
              if (cluster[v].compare_exchange_strong(expected, cu,
                                                     std::memory_order_relaxed)) {
                next_mask[v] = 1;
              }
            }
            if (stats) {
              stats->add_edges(edges);
              stats->add_visits(1);
            }
          },
          1);
      auto next = pack_indexed<VertexId>(
          n, [&](std::size_t v) { return next_mask[v] != 0; },
          [&](std::size_t v) { return static_cast<VertexId>(v); });
      claimed += next.size();
      frontier = std::move(next);
    }
    ++t;
  }

  LddResult result;
  result.cluster = tabulate(n, [&](std::size_t v) {
    return cluster[v].load(std::memory_order_relaxed);
  });
  result.num_clusters = count_if_index(n, [&](std::size_t v) {
    return result.cluster[v] == static_cast<VertexId>(v);
  });
  result.rounds = rounds;
  return result;
}

std::vector<VertexId> ldd_cc(const Graph& g, double beta, std::uint64_t seed,
                             Tracer* stats) {
  g.ensure_validated();  // edge_target() feeds the contraction unchecked
  std::size_t n = g.num_vertices();
  // label[v]: current component representative in the ORIGINAL graph.
  auto label = tabulate(n, [](std::size_t v) { return static_cast<VertexId>(v); });
  Graph current = g;
  std::vector<VertexId> current_to_orig =
      tabulate(n, [](std::size_t v) { return static_cast<VertexId>(v); });

  int iteration = 0;
  while (current.num_edges() > 0) {
    LddResult decomposition = ldd(current, beta, seed + static_cast<std::uint64_t>(iteration), stats);
    ++iteration;
    std::size_t cn = current.num_vertices();
    // Invariant: label[v] is v's vertex id in `current`'s vertex space (on
    // the first iteration current == g, so label[v] == v holds trivially).
    // Dense ids for cluster centres.
    std::vector<VertexId> dense(cn, kInvalidVertex);
    auto centres = pack_indexed<VertexId>(
        cn,
        [&](std::size_t v) {
          return decomposition.cluster[v] == static_cast<VertexId>(v);
        },
        [&](std::size_t v) { return static_cast<VertexId>(v); });
    parallel_for(0, centres.size(), [&](std::size_t i) {
      dense[centres[i]] = static_cast<VertexId>(i);
    });
    // Contract: new vertex per cluster; cross-cluster edges survive.
    std::vector<VertexId> edge_source(current.num_edges());
    parallel_for(0, cn, [&](std::size_t v) {
      for (EdgeId e = current.edge_begin(static_cast<VertexId>(v));
           e < current.edge_end(static_cast<VertexId>(v)); ++e) {
        edge_source[e] = static_cast<VertexId>(v);
      }
    });
    auto cross = pack_indexed<Edge>(
        current.num_edges(),
        [&](std::size_t e) {
          return decomposition.cluster[edge_source[e]] !=
                 decomposition.cluster[current.edge_target(e)];
        },
        [&](std::size_t e) {
          return Edge{dense[decomposition.cluster[edge_source[e]]],
                      dense[decomposition.cluster[current.edge_target(e)]]};
        });
    // Map original vertices through this contraction.
    std::vector<VertexId> new_to_orig(centres.size());
    parallel_for(0, centres.size(), [&](std::size_t i) {
      new_to_orig[i] = current_to_orig[centres[i]];
    });
    // Original label: follow v's current vertex -> its cluster -> dense id.
    // Maintain a map original -> current dense id by composing.
    std::vector<VertexId> orig_to_new(n);
    {
      // First build current-space -> new-space, then compose with the
      // existing original -> current mapping (tracked via labels).
      std::vector<VertexId> cur_to_new(cn);
      parallel_for(0, cn, [&](std::size_t v) {
        cur_to_new[v] = dense[decomposition.cluster[v]];
      });
      // label currently holds original -> current-space ids.
      parallel_for(0, n, [&](std::size_t v) {
        orig_to_new[v] = cur_to_new[label[v]];
      });
    }
    label = std::move(orig_to_new);
    current = Graph::from_edges(centres.size(), cross, /*dedup=*/true);
    current_to_orig = std::move(new_to_orig);
  }

  // Final: name each component by the minimum original vertex it contains.
  std::size_t cn = current.num_vertices();
  std::vector<std::atomic<VertexId>> min_orig(cn);
  parallel_for(0, cn, [&](std::size_t i) {
    min_orig[i].store(kInvalidVertex, std::memory_order_relaxed);
  });
  parallel_for(0, n, [&](std::size_t v) {
    write_min(min_orig[label[v]], static_cast<VertexId>(v));
  });
  return tabulate(n, [&](std::size_t v) {
    return min_orig[label[v]].load(std::memory_order_relaxed);
  });
}

}  // namespace pasgal
