// Tests for the delta-overlay update subsystem (graphs/delta.h) and the
// incremental repair algorithms (algorithms/incremental.h).
//
// The load-bearing claim is *byte identity*: a static kernel running through
// the overlay must produce exactly the result it would produce on a CSR
// rebuilt from scratch from the effective edge list. The equivalence grid
// checks that for bfs (gbbs), connected components, and pagerank, on a
// power-law rmat and a lattice grid, across 1/4/8 workers, over randomized
// insert/delete batches. The reference is an independent rebuild maintained
// by the test (tracked edge sets + Graph::from_edges), not
// materialize_effective — so the overlay merge and the materializer are
// checked against a third implementation, not against each other.
//
// The `.plog` crash-safety section mirrors test_graph_io_fuzz.cpp's
// byte-surgery style: truncate the log at every byte boundary and assert
// replay yields a typed kFormat error or a consistent prefix — never UB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <vector>

#include "algorithms/bfs/bfs.h"
#include "algorithms/cc/cc.h"
#include "algorithms/incremental.h"
#include "algorithms/pagerank/pagerank.h"
#include "graphs/delta.h"
#include "graphs/generators.h"
#include "graphs/graph.h"
#include "graphs/storage.h"
#include "pasgal/error.h"

namespace pasgal {
namespace {

std::uint64_t edge_key(VertexId u, VertexId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

// Mirrors the server/bench generators: tracks the effective edge set the way
// apply_updates validates it, so every generated op is accepted. Deletes
// pick existing effective edges; inserts rejection-sample absent ones.
class UpdateModel {
 public:
  explicit UpdateModel(const Graph& g, std::uint64_t seed)
      : n_(g.num_vertices()), base_edges_(g.to_edges()), rng_(seed) {
    for (const Edge& e : base_edges_) base_keys_.insert(edge_key(e.from, e.to));
  }

  bool present(std::uint64_t k) const {
    return inserted_.count(k) != 0 ||
           (base_keys_.count(k) != 0 && deleted_.count(k) == 0);
  }

  std::vector<EdgeUpdate> make_batch(std::size_t count) {
    std::vector<EdgeUpdate> batch;
    while (batch.size() < count) {
      bool want_delete = (rng_() & 1) != 0 && !effective_keys().empty();
      if (want_delete) {
        const std::vector<std::uint64_t>& eff = effective_keys();
        std::uint64_t k = eff[rng_() % eff.size()];
        apply_delete(k);
        batch.push_back({EdgeUpdate::Op::kDelete,
                         static_cast<VertexId>(k >> 32),
                         static_cast<VertexId>(k & 0xFFFFFFFFu)});
        continue;
      }
      VertexId u = static_cast<VertexId>(rng_() % n_);
      VertexId v = static_cast<VertexId>(rng_() % n_);
      if (u == v || present(edge_key(u, v))) continue;
      apply_insert(edge_key(u, v));
      batch.push_back({EdgeUpdate::Op::kInsert, u, v});
    }
    return batch;
  }

  // The effective graph, rebuilt from scratch: base multigraph copies minus
  // every copy of a deleted key, plus the overlay inserts.
  Graph rebuild() const {
    std::vector<Edge> edges;
    edges.reserve(base_edges_.size() + inserted_.size());
    for (const Edge& e : base_edges_) {
      if (deleted_.count(edge_key(e.from, e.to)) == 0) edges.push_back(e);
    }
    for (std::uint64_t k : inserted_) {
      edges.push_back({static_cast<VertexId>(k >> 32),
                       static_cast<VertexId>(k & 0xFFFFFFFFu)});
    }
    return Graph::from_edges(n_, edges);
  }

 private:
  void apply_insert(std::uint64_t k) {
    if (deleted_.count(k) != 0) {
      deleted_.erase(k);  // cancels the delete, restoring all base copies
    } else {
      inserted_.insert(k);
    }
    cache_.clear();
  }
  void apply_delete(std::uint64_t k) {
    if (inserted_.count(k) != 0) {
      inserted_.erase(k);  // nets out of the overlay
    } else {
      deleted_.insert(k);  // suppresses every base copy
    }
    cache_.clear();
  }
  const std::vector<std::uint64_t>& effective_keys() {
    if (cache_.empty()) {
      for (std::uint64_t k : base_keys_) {
        if (deleted_.count(k) == 0) cache_.push_back(k);
      }
      cache_.insert(cache_.end(), inserted_.begin(), inserted_.end());
    }
    return cache_;
  }

  std::size_t n_;
  std::vector<Edge> base_edges_;
  std::set<std::uint64_t> base_keys_;
  std::set<std::uint64_t> inserted_;
  std::set<std::uint64_t> deleted_;
  std::vector<std::uint64_t> cache_;
  std::mt19937_64 rng_;
};

VertexId max_degree_vertex(const Graph& g) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(best)) best = v;
  }
  return best;
}

// --- overlay equivalence grid ------------------------------------------------

void run_equivalence_grid(Graph base, std::uint64_t seed) {
  Graph g = base;       // overlay side (shares storage with `base`)
  Graph gt = g.transpose();  // cache before apply so the flipped side lands
  UpdateModel model(g, seed);
  VertexId source = max_degree_vertex(g);

  for (int round = 0; round < 3; ++round) {
    std::vector<EdgeUpdate> batch = model.make_batch(150);
    apply_updates(g, batch);
    Graph ref = model.rebuild();
    Graph ref_t = ref.transpose();

    for (int workers : {1, 4, 8}) {
      Scheduler::reset(workers);
      EXPECT_EQ(gbbs_bfs(g, gt, source), gbbs_bfs(ref, ref_t, source))
          << "bfs diverged: round " << round << ", " << workers << " workers";
      ConnectivityResult cc_overlay = connected_components(g.symmetrize());
      ConnectivityResult cc_ref = connected_components(ref.symmetrize());
      EXPECT_EQ(cc_overlay.label, cc_ref.label)
          << "cc diverged: round " << round << ", " << workers << " workers";
      PagerankResult pr_overlay = pasgal_pagerank(g, gt, {}).output;
      PagerankResult pr_ref = pasgal_pagerank(ref, ref_t, {}).output;
      ASSERT_EQ(pr_overlay.rank.size(), pr_ref.rank.size());
      EXPECT_EQ(pr_overlay.iterations, pr_ref.iterations);
      for (std::size_t v = 0; v < pr_ref.rank.size(); ++v) {
        ASSERT_EQ(pr_overlay.rank[v], pr_ref.rank[v])
            << "pagerank not byte-identical at vertex " << v << ": round "
            << round << ", " << workers << " workers";
      }
      Scheduler::reset(1);
    }

    // materialize_effective (the compaction path) must agree with the
    // independent rebuild edge for edge.
    Graph folded = materialize_effective(g);
    EXPECT_EQ(folded.num_edges(), ref.num_edges());
    EXPECT_EQ(folded.to_edges(), ref.to_edges());
  }
}

TEST(Delta, EquivalenceGridRmat) {
  run_equivalence_grid(gen::rmat(10, 6000, 3), /*seed=*/7);
}

TEST(Delta, EquivalenceGridGrid) {
  run_equivalence_grid(gen::rectangle_grid(48, 4), /*seed=*/11);
}

// --- apply semantics ---------------------------------------------------------

TEST(Delta, ApplyValidatesAgainstTheEffectiveGraph) {
  Graph g = gen::rectangle_grid(16, 4);  // n = 64
  Graph pristine = materialize_effective(g);

  // Out-of-range endpoints.
  EXPECT_THROW(
      apply_updates(g, std::vector<EdgeUpdate>{
                           {EdgeUpdate::Op::kInsert, 0, 64}}),
      Error);
  EXPECT_THROW(
      apply_updates(g, std::vector<EdgeUpdate>{
                           {EdgeUpdate::Op::kInsert, kInvalidVertex, 0}}),
      Error);
  // Deleting an absent edge / inserting a present one.
  try {
    apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kDelete, 0, 63}});
    FAIL() << "deleted an absent edge";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kValidation);
  }
  VertexId nbr = g.neighbors(0)[0];
  try {
    apply_updates(g,
                  std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, nbr}});
    FAIL() << "inserted a present edge";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kValidation);
  }
  // A rejected batch publishes nothing: the overlay is still absent.
  EXPECT_FALSE(g.has_delta());
  EXPECT_EQ(g.to_edges(), pristine.to_edges());

  // A batch that fails mid-way (valid insert, then invalid delete) must not
  // publish the partial prefix either.
  EXPECT_THROW(
      apply_updates(g, std::vector<EdgeUpdate>{
                           {EdgeUpdate::Op::kInsert, 0, 63},
                           {EdgeUpdate::Op::kDelete, 1, 62}}),
      Error);
  EXPECT_FALSE(g.has_delta());
}

TEST(Delta, InsertThenDeleteNetsOut) {
  Graph g = gen::rectangle_grid(16, 4);
  apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, 63}});
  ApplyStats st = apply_updates(
      g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kDelete, 0, 63}});
  EXPECT_EQ(st.inserts, 0u);
  EXPECT_EQ(st.deletes, 0u);
  EXPECT_EQ(st.batches, 2u);

  // Deleting a base edge then re-inserting it cancels the delete and
  // restores every base copy.
  VertexId nbr = g.neighbors(5)[0];
  apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kDelete, 5, nbr}});
  st = apply_updates(g,
                     std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 5, nbr}});
  EXPECT_EQ(st.inserts, 0u);
  EXPECT_EQ(st.deletes, 0u);
  Graph ref = gen::rectangle_grid(16, 4);
  EXPECT_EQ(materialize_effective(g).to_edges(), ref.to_edges());
}

TEST(Delta, WeightedGraphsRejectUnweightedPatches) {
  // The guard keys off storage-carried weights (the weighted `.pgr` path),
  // so build a storage-backed weighted chain directly.
  Graph shape = gen::chain(8, /*directed=*/true);
  std::vector<StorageEdgeId> offsets;
  std::vector<StorageVertexId> targets;
  for (VertexId v = 0; v < shape.num_vertices(); ++v) {
    offsets.push_back(shape.edge_begin(v));
    for (VertexId t : shape.neighbors(v)) targets.push_back(t);
  }
  offsets.push_back(shape.num_edges());
  std::vector<StorageWeight> weights(targets.size(), 1);
  Graph g(GraphStorage::owned(std::move(offsets), std::move(targets),
                              std::move(weights)));
  try {
    apply_updates(g,
                  std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, 7}});
    FAIL() << "weighted graph accepted an unweighted patch";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUsage);
  }
}

TEST(Delta, SnapshotScanMergesInAscendingOrder) {
  // 0 -> {2, 5, 9}; delete 5, insert 1 and 7: scan must yield 1,2,7,9 with
  // kInvalidEdge marking the overlay entries.
  Graph g = Graph::from_edges(
      10, std::vector<Edge>{{0, 2}, {0, 5}, {0, 9}});
  apply_updates(g, std::vector<EdgeUpdate>{{EdgeUpdate::Op::kDelete, 0, 5},
                                           {EdgeUpdate::Op::kInsert, 0, 1},
                                           {EdgeUpdate::Op::kInsert, 0, 7}});
  std::shared_ptr<const DeltaSnapshot> d = g.storage()->delta_snapshot();
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->touches(0));
  EXPECT_FALSE(d->touches(3));
  EXPECT_EQ(d->effective_degree(0, g.out_degree(0)), 4u);
  std::vector<VertexId> seen;
  std::vector<bool> overlay;
  std::span<const VertexId> base = g.neighbors(0);
  d->scan_effective(0, base.data(), 0, base.size(),
                    [&](VertexId t, EdgeId e) {
                      seen.push_back(t);
                      overlay.push_back(e == kInvalidEdge);
                      return true;
                    });
  EXPECT_EQ(seen, (std::vector<VertexId>{1, 2, 7, 9}));
  EXPECT_EQ(overlay, (std::vector<bool>{true, false, true, false}));

  // The flipped side sees the same ops in-edge-wise.
  ASSERT_NE(d->flipped(), nullptr);
  EXPECT_TRUE(d->flipped()->touches(1));
  EXPECT_TRUE(d->flipped()->touches(5));
  EXPECT_TRUE(d->flipped()->touches(7));
  EXPECT_FALSE(d->flipped()->touches(0));
}

// --- update log (`.plog`) ----------------------------------------------------

class DeltaLogTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    auto dir = std::filesystem::temp_directory_path() / "pasgal_delta_test";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
  }
  void TearDown() override {
    std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                "pasgal_delta_test");
  }

  std::vector<char> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void dump(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static std::vector<std::vector<EdgeUpdate>> sample_batches() {
    return {{{EdgeUpdate::Op::kInsert, 0, 5}, {EdgeUpdate::Op::kInsert, 1, 6}},
            {{EdgeUpdate::Op::kDelete, 0, 5}},
            {{EdgeUpdate::Op::kInsert, 2, 7},
             {EdgeUpdate::Op::kDelete, 1, 6},
             {EdgeUpdate::Op::kInsert, 3, 8}}};
  }
};

TEST_F(DeltaLogTest, WriteReadRoundTrip) {
  std::string path = temp_path("round.plog");
  auto batches = sample_batches();
  write_update_log(path, batches);
  EXPECT_EQ(read_update_log(path), batches);

  // Appends extend the frame sequence; a fresh append target gets a header.
  append_update_batch(path, batches[0]);
  auto got = read_update_log(path);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[3], batches[0]);

  std::string fresh = temp_path("fresh.plog");
  append_update_batch(fresh, batches[1]);
  got = read_update_log(fresh);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], batches[1]);
}

TEST_F(DeltaLogTest, ReplayMatchesManualApplies) {
  Graph logged = gen::rectangle_grid(16, 4);
  Graph manual = gen::rectangle_grid(16, 4);
  std::vector<std::vector<EdgeUpdate>> batches = {
      {{EdgeUpdate::Op::kInsert, 0, 63}, {EdgeUpdate::Op::kInsert, 1, 62}},
      {{EdgeUpdate::Op::kDelete, 0, 63}}};
  std::string path = temp_path("replay.plog");
  write_update_log(path, batches);

  ApplyStats st = replay_update_log(logged, path);
  for (const auto& b : batches) apply_updates(manual, b);
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.deletes, 0u);
  EXPECT_EQ(materialize_effective(logged).to_edges(),
            materialize_effective(manual).to_edges());
}

TEST_F(DeltaLogTest, GraphDeltaAppendsOnlyAcceptedBatches) {
  std::string path = temp_path("accepted.plog");
  GraphDelta delta(gen::rectangle_grid(16, 4), path);
  delta.apply(std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, 63}});
  EXPECT_THROW(
      delta.apply(std::vector<EdgeUpdate>{{EdgeUpdate::Op::kInsert, 0, 63}}),
      Error);
  // The rejected duplicate insert never reached the log: replay succeeds.
  Graph replayed = gen::rectangle_grid(16, 4);
  ApplyStats st = replay_update_log(replayed, path);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.inserts, 1u);
}

// Satellite: crash-safety. A crashed append tears the trailing frame at an
// arbitrary byte; replay must yield the consistent prefix (or a typed
// kFormat for a torn header) — never UB, never a mangled batch.
TEST_F(DeltaLogTest, TruncationAtEveryByteBoundaryIsPrefixOrTypedError) {
  std::string path = temp_path("torn.plog");
  auto batches = sample_batches();
  write_update_log(path, batches);
  std::vector<char> full = slurp(path);
  ASSERT_GT(full.size(), 16u);

  std::string torn = temp_path("torn_cut.plog");
  for (std::size_t len = 0; len < full.size(); ++len) {
    dump(torn, std::vector<char>(full.begin(), full.begin() + len));
    try {
      std::vector<std::vector<EdgeUpdate>> got = read_update_log(torn);
      ASSERT_LE(got.size(), batches.size()) << "cut at byte " << len;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], batches[i])
            << "cut at byte " << len << " mangled batch " << i;
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kFormat)
          << "cut at byte " << len << ": " << e.what();
    }
  }
}

TEST_F(DeltaLogTest, CorruptionInACompleteFrameIsATypedFormatError) {
  std::string path = temp_path("corrupt.plog");
  auto batches = sample_batches();
  write_update_log(path, batches);
  std::vector<char> full = slurp(path);
  std::string mut = temp_path("corrupt_mut.plog");

  // Flip one payload byte of the FIRST frame (offset 16 header + 16 frame
  // header): checksum mismatch, not a silent wrong edge.
  {
    std::vector<char> bytes = full;
    bytes[16 + 16 + 4] ^= 0x01;
    dump(mut, bytes);
    try {
      read_update_log(mut);
      FAIL() << "corrupted payload replayed";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    }
  }
  // Break the frame magic.
  {
    std::vector<char> bytes = full;
    bytes[16] ^= 0xFF;
    dump(mut, bytes);
    EXPECT_THROW(read_update_log(mut), Error);
  }
  // Wrong file magic / version.
  {
    std::vector<char> bytes = full;
    bytes[0] = 'X';
    dump(mut, bytes);
    EXPECT_THROW(read_update_log(mut), Error);
  }
  {
    std::vector<char> bytes = full;
    bytes[8] = 9;  // version
    dump(mut, bytes);
    try {
      read_update_log(mut);
      FAIL() << "future version accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    }
  }
  // An unknown op with a *correct* checksum is still rejected.
  {
    std::vector<char> bytes = full;
    std::uint32_t bad_op = 7;
    std::memcpy(bytes.data() + 16 + 16, &bad_op, 4);
    std::uint32_t count;
    std::memcpy(&count, bytes.data() + 16 + 4, 4);
    std::uint64_t rehash = hash_bytes(bytes.data() + 16 + 16,
                                      static_cast<std::size_t>(count) * 12);
    std::memcpy(bytes.data() + 16 + 8, &rehash, 8);
    dump(mut, bytes);
    try {
      read_update_log(mut);
      FAIL() << "unknown op replayed";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    }
  }
  // Missing file is kIo, not kFormat.
  try {
    read_update_log(temp_path("nope.plog"));
    FAIL() << "missing log opened";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
  }
}

// --- incremental repair ------------------------------------------------------

TEST(Incremental, BfsRepairIsExactAndResettlesFewerOnSmallChurn) {
  Graph g = gen::rmat(11, 16000, 5);  // n = 2048
  Graph gt = g.transpose();
  VertexId source = max_degree_vertex(g);
  UpdateModel model(g, /*seed=*/23);

  std::vector<std::uint32_t> dist = gbbs_bfs(g, gt, source);
  for (int round = 0; round < 4; ++round) {
    std::vector<EdgeUpdate> batch = model.make_batch(15);  // < 1% churn
    apply_updates(g, batch);
    std::vector<std::uint32_t> expect = gbbs_bfs(g, gt, source);
    IncrementalStats st = incremental_bfs(g, gt, source, batch, dist);
    EXPECT_EQ(dist, expect) << "repair diverged in round " << round;
    EXPECT_EQ(st.full_settled, g.num_vertices());
    if (!st.fallback) {
      EXPECT_LT(st.resettled, st.full_settled)
          << "repair must settle strictly fewer vertices than a full "
             "recompute on small churn";
    }
  }
}

TEST(Incremental, BfsDeleteCascadeRepairsACorridor) {
  // A directed chain is the worst case: deleting one edge unreaches the
  // whole suffix. The repair must invalidate exactly that suffix.
  Graph g = gen::chain(64, /*directed=*/true);
  Graph gt = g.transpose();
  std::vector<std::uint32_t> dist = gbbs_bfs(g, gt, 0);
  std::vector<EdgeUpdate> batch{{EdgeUpdate::Op::kDelete, 31, 32}};
  apply_updates(g, batch);
  IncrementalOptions opt;
  opt.churn_threshold = 1.0;  // never fall back; exercise the cascade
  IncrementalStats st = incremental_bfs(g, gt, 0, batch, dist, opt);
  EXPECT_FALSE(st.fallback);
  EXPECT_EQ(dist, gbbs_bfs(g, gt, 0));
  for (VertexId v = 32; v < 64; ++v) EXPECT_EQ(dist[v], kInfDist);

  // Re-inserting the edge repairs the corridor back via the insert seeds.
  std::vector<EdgeUpdate> fix{{EdgeUpdate::Op::kInsert, 31, 32}};
  apply_updates(g, fix);
  st = incremental_bfs(g, gt, 0, fix, dist, opt);
  EXPECT_EQ(dist, gbbs_bfs(g, gt, 0));
  EXPECT_EQ(dist[63], 63u);
}

TEST(Incremental, BfsChurnFallbackIsStillExact) {
  Graph g = gen::rmat(9, 4000, 13);
  Graph gt = g.transpose();
  VertexId source = max_degree_vertex(g);
  UpdateModel model(g, /*seed=*/31);
  std::vector<std::uint32_t> dist = gbbs_bfs(g, gt, source);
  std::vector<EdgeUpdate> batch = model.make_batch(200);
  apply_updates(g, batch);
  IncrementalOptions opt;
  opt.churn_threshold = 0.0;  // force the fallback path
  IncrementalStats st = incremental_bfs(g, gt, source, batch, dist, opt);
  EXPECT_TRUE(st.fallback);
  EXPECT_EQ(st.resettled, st.full_settled);
  EXPECT_EQ(dist, gbbs_bfs(g, gt, source));
}

TEST(Incremental, CcInsertOnlyUnionsLabels) {
  // Three directed chains and three isolated vertices; inserts merge
  // components without any traversal.
  std::vector<Edge> edges{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}};
  Graph g = Graph::from_edges(12, edges);
  ConnectivityResult base = connected_components(g.symmetrize());
  EXPECT_EQ(base.num_components, 6u);
  std::vector<VertexId> label = base.label;

  std::vector<EdgeUpdate> batch{{EdgeUpdate::Op::kInsert, 2, 3},
                                {EdgeUpdate::Op::kInsert, 9, 10}};
  apply_updates(g, batch);
  IncrementalStats st = incremental_cc(g, batch, label);
  EXPECT_FALSE(st.fallback);
  ConnectivityResult expect = connected_components(g.symmetrize());
  EXPECT_EQ(label, expect.label);
  EXPECT_EQ(count_distinct_labels(label), 4u);
}

TEST(Incremental, CcDeleteFallsBackToFullRecompute) {
  Graph g = gen::rectangle_grid(24, 4);
  ConnectivityResult base = connected_components(g.symmetrize());
  std::vector<VertexId> label = base.label;

  VertexId nbr = g.neighbors(10)[0];
  std::vector<EdgeUpdate> batch{{EdgeUpdate::Op::kDelete, 10, nbr},
                                {EdgeUpdate::Op::kInsert, 0, 95}};
  apply_updates(g, batch);
  IncrementalStats st = incremental_cc(g, batch, label);
  EXPECT_TRUE(st.fallback);
  ConnectivityResult expect = connected_components(g.symmetrize());
  EXPECT_EQ(label, expect.label);
}

TEST(Incremental, RepairIsDeterministicAcrossWorkerCounts) {
  Graph g = gen::rmat(10, 6000, 17);
  Graph gt = g.transpose();
  VertexId source = max_degree_vertex(g);
  UpdateModel model(g, /*seed=*/41);
  std::vector<EdgeUpdate> batch = model.make_batch(40);

  std::vector<std::uint32_t> base_dist = gbbs_bfs(g, gt, source);
  apply_updates(g, batch);
  std::vector<std::vector<std::uint32_t>> repaired;
  for (int workers : {1, 4, 8}) {
    Scheduler::reset(workers);
    std::vector<std::uint32_t> dist = base_dist;
    incremental_bfs(g, gt, source, batch, dist);
    repaired.push_back(std::move(dist));
    Scheduler::reset(1);
  }
  EXPECT_EQ(repaired[0], repaired[1]);
  EXPECT_EQ(repaired[0], repaired[2]);
  EXPECT_EQ(repaired[0], gbbs_bfs(g, gt, source));
}

}  // namespace
}  // namespace pasgal
