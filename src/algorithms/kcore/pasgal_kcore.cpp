#include <atomic>
#include <memory>

#include "algorithms/kcore/kcore.h"
#include "pasgal/hashbag.h"
#include "pasgal/vgc.h"

namespace pasgal {

namespace {

// Entries carry the degree the vertex had when (re)inserted; an entry is
// stale if the degree has since changed (the vertex has a fresher entry in a
// lower bucket) or the vertex is already peeled.
std::uint64_t encode(VertexId v, std::uint32_t d) {
  return (static_cast<std::uint64_t>(d) << 32) | v;
}
VertexId entry_vertex(std::uint64_t e) { return static_cast<VertexId>(e); }
std::uint32_t entry_deg(std::uint64_t e) {
  return static_cast<std::uint32_t>(e >> 32);
}

constexpr std::size_t kWindow = 64;  // open buckets [base, base + kWindow)

}  // namespace

namespace internal {

// Parallel coreness by bucketed peeling (Julienne-style buckets built from
// hash bags) with VGC: peeling v may drop a neighbour u to the current
// level k; the peeling task then claims and peels u in-task (up to tau
// vertices), collapsing O(length)-round peeling chains into one round.
std::vector<std::uint32_t> pasgal_kcore(const Graph& g, const AlgoOptions& opt,
                                        Tracer* stats) {
  const std::uint32_t tau = opt.vgc.tau;
  // degree[u].fetch_sub below indexes unchecked neighbour ids; an
  // un-deep-validated mmap open must fail typed, not corrupt the buckets.
  g.ensure_validated();
  std::size_t n = g.num_vertices();
  std::vector<std::atomic<std::uint32_t>> degree(n);
  std::vector<std::atomic<std::uint8_t>> peeled(n);
  parallel_for(0, n, [&](std::size_t v) {
    degree[v].store(static_cast<std::uint32_t>(g.out_degree(static_cast<VertexId>(v))),
                    std::memory_order_relaxed);
    peeled[v].store(0, std::memory_order_relaxed);
  });

  std::vector<std::unique_ptr<HashBag<std::uint64_t>>> buckets;
  for (std::size_t b = 0; b <= kWindow; ++b) {  // last = overflow
    buckets.push_back(std::make_unique<HashBag<std::uint64_t>>(8));
    if (stats) buckets.back()->attach_tracer(stats);
  }
  std::uint32_t base = 0;
  auto bucket_of = [&](std::uint32_t d) {
    return d < base + kWindow ? static_cast<std::size_t>(d - base) : kWindow;
  };
  parallel_for(0, n, [&](std::size_t v) {
    buckets[bucket_of(degree[v].load(std::memory_order_relaxed))]->insert(
        encode(static_cast<VertexId>(v),
               degree[v].load(std::memory_order_relaxed)));
  });

  std::vector<std::uint32_t> core(n, 0);
  std::atomic<std::uint64_t> total_peeled{0};
  std::size_t remaining = n;
  std::uint32_t k = 0;

  auto try_claim = [&](VertexId v) {
    std::uint8_t expected = 0;
    return peeled[v].compare_exchange_strong(expected, 1,
                                             std::memory_order_relaxed);
  };

  HashBag<std::uint64_t> wave_bag(8);
  if (stats) wave_bag.attach_tracer(stats);
  while (remaining > 0) {
    // Advance the window when the current level leaves it.
    if (k >= base + kWindow) {
      base = k;
      auto overflow = buckets[kWindow]->extract_all();
      parallel_for(0, overflow.size(), [&](std::size_t i) {
        std::uint64_t e = overflow[i];
        VertexId v = entry_vertex(e);
        if (peeled[v].load(std::memory_order_relaxed)) return;
        std::uint32_t d = degree[v].load(std::memory_order_relaxed);
        if (entry_deg(e) != d) return;  // a fresher entry exists
        buckets[bucket_of(d)]->insert(encode(v, d));
      });
    }
    std::size_t bucket_index = bucket_of(k);
    if (buckets[bucket_index]->empty()) {
      ++k;
      continue;
    }
    auto entries = buckets[bucket_index]->extract_all();
    // Valid = not peeled, degree matches the entry, and degree <= k (a
    // vertex whose degree dropped below the bucket it sits in is handled by
    // its fresher entry in a lower bucket; <= k entries peel now).
    auto ready = filter(std::span<const std::uint64_t>(entries),
                        [&](std::uint64_t e) {
                          VertexId v = entry_vertex(e);
                          return !peeled[v].load(std::memory_order_relaxed) &&
                                 degree[v].load(std::memory_order_relaxed) ==
                                     entry_deg(e) &&
                                 entry_deg(e) <= k;
                        });
    if (ready.empty()) {
      ++k;
      continue;
    }
    if (stats) {
      stats->set_round_kind(tau > 1 ? RoundKind::kLocal : RoundKind::kSparse);
    }

    // Peel the wave; VGC keeps chains in-task.
    parallel_for(
        0, ready.size(),
        [&](std::size_t i) {
          VertexId root = entry_vertex(ready[i]);
          if (!try_claim(root)) return;
          std::vector<VertexId> stack = {root};
          std::uint64_t peeled_in_task = 0;
          std::uint64_t edges = 0;
          while (!stack.empty()) {
            VertexId v = stack.back();
            stack.pop_back();
            ++peeled_in_task;
            core[v] = k;
            for (VertexId u : g.neighbors(v)) {
              ++edges;
              if (peeled[u].load(std::memory_order_relaxed)) continue;
              std::uint32_t d =
                  degree[u].fetch_sub(1, std::memory_order_relaxed) - 1;
              if (d <= k) {
                // u falls into the current level.
                if (peeled_in_task < tau && stack.size() < kVgcLocalStackCap) {
                  if (try_claim(u)) stack.push_back(u);
                } else {
                  wave_bag.insert(encode(u, d));
                }
              } else {
                buckets[bucket_of(d)]->insert(encode(u, d));
              }
            }
          }
          total_peeled.fetch_add(peeled_in_task, std::memory_order_relaxed);
          if (stats) {
            stats->add_edges(edges);
            stats->add_visits(peeled_in_task);
            stats->add_local_depth(peeled_in_task);
          }
        },
        1);
    // Queue the spillover at the same level.
    auto spill = wave_bag.extract_all();
    parallel_for(0, spill.size(), [&](std::size_t i) {
      std::uint64_t e = spill[i];
      VertexId v = entry_vertex(e);
      if (peeled[v].load(std::memory_order_relaxed)) return;
      std::uint32_t d = degree[v].load(std::memory_order_relaxed);
      buckets[bucket_of(std::max(d, k))]->insert(encode(v, d));
    });
    if (stats) stats->end_round(ready.size());
    remaining = n - static_cast<std::size_t>(
                        total_peeled.load(std::memory_order_relaxed));
  }
  return core;
}

}  // namespace internal

}  // namespace pasgal
