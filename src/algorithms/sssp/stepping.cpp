#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <stdexcept>

#include "algorithms/sssp/sssp.h"
#include "pasgal/hashbag.h"
#include "pasgal/vgc.h"

namespace pasgal {

namespace {

// Bag entries encode (tentative distance << 32 | vertex); tentative
// distances are therefore limited to 32 bits. This covers all graphs whose
// weighted diameter fits in u32 (checked at relaxation time).
constexpr std::uint32_t kInf32 = static_cast<std::uint32_t>(-1);

std::uint64_t encode(VertexId v, std::uint32_t d) {
  return (static_cast<std::uint64_t>(d) << 32) | v;
}
VertexId entry_vertex(std::uint64_t e) { return static_cast<VertexId>(e); }
std::uint32_t entry_dist(std::uint64_t e) {
  return static_cast<std::uint32_t>(e >> 32);
}

// Geometric buckets on the gap to the current base distance, as in the
// multi-frontier BFS: far entries re-bucket at most O(log D_w) times.
constexpr int kNumBuckets = 34;
int bucket_for(std::uint32_t gap) {
  if (gap == 0) return 0;
  int b = 1 + (31 - std::countl_zero(gap));
  return b < kNumBuckets ? b : kNumBuckets - 1;
}

}  // namespace

namespace internal {

// The stepping algorithm framework (Dong, Gu, Sun — PPoPP'21) with hash-bag
// frontiers and VGC local relaxations. Each step settles the entries below a
// strategy-chosen threshold:
//   delta-stepping: threshold = base + delta,
//   rho-stepping:   threshold = distance of the rho-th closest entry.
std::vector<Dist> stepping_sssp(const WeightedGraph<std::uint32_t>& g,
                                const AlgoOptions& opt, Tracer* stats) {
  const VertexId source = opt.source;
  const bool delta_mode = opt.sssp_delta_mode;
  const Dist delta = opt.sssp_delta;
  const std::size_t rho = opt.sssp_rho;
  const VgcParams vgc = opt.vgc;
  const CancelToken* const cancel = opt.cancel;
  // Tentative distances are packed into 32 bits (see encode() above), so the
  // ceiling here is kInf32 - 1, not the 64-bit kInfWeightDist.
  check_sssp_preconditions(g, source, static_cast<Dist>(kInf32) - 1)
      .throw_if_error();
  std::size_t n = g.num_vertices();
  std::vector<std::atomic<std::uint32_t>> dist(n);
  parallel_for(0, n, [&](std::size_t i) {
    dist[i].store(kInf32, std::memory_order_relaxed);
  });
  dist[source].store(0, std::memory_order_relaxed);

  std::vector<std::unique_ptr<HashBag<std::uint64_t>>> bags;
  bags.reserve(kNumBuckets);
  for (int b = 0; b < kNumBuckets; ++b) {
    bags.push_back(std::make_unique<HashBag<std::uint64_t>>(8));
    if (stats) bags.back()->attach_tracer(stats);
  }
  bags[0]->insert(encode(source, 0));

  for (;;) {
    if (cancel != nullptr) cancel->check("stepping_sssp step");
    int lowest = -1;
    for (int b = 0; b < kNumBuckets; ++b) {
      if (!bags[b]->empty()) {
        lowest = b;
        break;
      }
    }
    if (lowest < 0) break;

    auto entries = bags[lowest]->extract_all();
    auto valid = filter(std::span<const std::uint64_t>(entries),
                        [&](std::uint64_t e) {
                          return dist[entry_vertex(e)].load(
                                     std::memory_order_relaxed) == entry_dist(e);
                        });
    if (valid.empty()) continue;

    std::uint32_t base = reduce_indexed<std::uint32_t>(
        valid.size(), kInf32,
        [](std::uint32_t a, std::uint32_t b) { return a < b ? a : b; },
        [&](std::size_t i) { return entry_dist(valid[i]); });

    // Strategy: pick the settling threshold for this step.
    std::uint32_t threshold;
    if (delta_mode) {
      // delta is a 64-bit Dist: base + delta can wrap, and a wrapped
      // sum lands below base, which would settle nothing and re-insert every
      // entry into the same bucket forever. Saturate on wrap as well as on
      // overshoot past the 32-bit distance ceiling.
      std::uint64_t t = static_cast<std::uint64_t>(base) + delta;
      if (t < base || t > static_cast<std::uint64_t>(kInf32) - 1) {
        t = static_cast<std::uint64_t>(kInf32) - 1;
      }
      threshold = static_cast<std::uint32_t>(t);
    } else if (valid.size() <= rho) {
      threshold = kInf32 - 1;  // settle everything extracted
    } else {
      auto dists = tabulate(valid.size(), [&](std::size_t i) {
        return entry_dist(valid[i]);
      });
      std::nth_element(dists.begin(),
                       dists.begin() + static_cast<std::ptrdiff_t>(rho - 1),
                       dists.end());
      threshold = dists[rho - 1];
    }

    std::vector<std::uint64_t> ready;
    ready.reserve(valid.size());
    for (std::uint64_t e : valid) {
      if (entry_dist(e) <= threshold) {
        ready.push_back(e);
      } else {
        bags[bucket_for(entry_dist(e) - base)]->insert(e);
      }
    }
    if (ready.empty()) continue;

    if (stats) {
      stats->end_round(ready.size(), vgc.tau > 1 ? RoundKind::kLocal
                                                 : RoundKind::kSparse);
    }
    parallel_for(
        0, ready.size(),
        [&](std::size_t i) {
          VertexId root = entry_vertex(ready[i]);
          std::uint32_t root_dist = entry_dist(ready[i]);
          std::uint64_t edges = 0;
          local_search_dist(
              root, root_dist, vgc,
              [&](VertexId u, std::uint32_t du, auto&& emit) {
                if (dist[u].load(std::memory_order_relaxed) != du) return;
                for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
                  ++edges;
                  VertexId v = g.edge_target(e);
                  std::uint64_t nd64 =
                      static_cast<std::uint64_t>(du) + g.edge_weight(e);
                  if (nd64 >= kInf32) {
                    throw Error(
                        ErrorCategory::kValidation,
                        "stepping_sssp: tentative distance exceeds 32 bits");
                  }
                  std::uint32_t nd = static_cast<std::uint32_t>(nd64);
                  if (write_min(dist[v], nd)) emit(v, nd);
                }
              },
              [&](VertexId v, std::uint32_t d) {
                bags[bucket_for(d - base)]->insert(encode(v, d));
              },
              stats);
          if (stats) stats->add_edges(edges);
        },
        1);
  }

  return tabulate(n, [&](std::size_t v) {
    std::uint32_t d = dist[v].load(std::memory_order_relaxed);
    return d == kInf32 ? kInfWeightDist : static_cast<Dist>(d);
  });
}

}  // namespace internal

}  // namespace pasgal
