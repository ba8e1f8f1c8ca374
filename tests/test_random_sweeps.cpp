// Randomized differential sweep: for a grid of (generator, seed) inputs,
// every catalog row with a single-mode run must agree with its family's
// oracle row (catalog::oracle) under Family::agrees. This
// is the library's broadest property net — each case exercises the full
// pipeline (generator -> CSR -> input shape -> algorithm -> comparison).
#include <gtest/gtest.h>

#include "algorithms/catalog.h"
#include "graphs/generators.h"

namespace pasgal {
namespace {

struct SweepCase {
  std::uint64_t seed;
  int workers;
};

class RandomSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override { Scheduler::reset(GetParam().workers); }
  void TearDown() override { Scheduler::reset(1); }

  // A different random digraph per seed: size, density and shape all vary.
  Graph make_digraph() const {
    std::uint64_t s = GetParam().seed;
    std::size_t n = 200 + hash64(s) % 1800;
    std::size_t m = n + hash64(s + 1) % (6 * n);
    switch (hash64(s + 2) % 3) {
      case 0:
        return gen::random_graph(n, m, s);
      case 1:
        return gen::rmat(11, m, s);
      default:
        return gen::road_grid(10 + hash64(s + 3) % 30, 10 + hash64(s + 4) % 50,
                              0.5 + (hash64(s + 5) % 40) / 100.0, s);
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSweep,
                         ::testing::Values(SweepCase{1, 1}, SweepCase{2, 1},
                                           SweepCase{3, 4}, SweepCase{4, 1},
                                           SweepCase{5, 4}, SweepCase{6, 1},
                                           SweepCase{7, 4}, SweepCase{8, 1},
                                           SweepCase{9, 4}, SweepCase{10, 1},
                                           SweepCase{11, 4}, SweepCase{12, 4}));

TEST_P(RandomSweep, EveryRowAgreesWithItsOracle) {
  Graph g = make_digraph();
  std::uint64_t s = GetParam().seed;
  auto wg = gen::add_weights(g, 100, s + 20);
  const AlgoOptions opt{
      .source = static_cast<VertexId>(hash64(s + 10) % g.num_vertices()),
      .sssp_delta = 64};
  for (const catalog::Variant& v : catalog::variants()) {
    if (v.run == nullptr) continue;
    const catalog::Variant& oracle = catalog::oracle(v.family->name);
    SCOPED_TRACE(std::string(v.family->name) + "/" + v.name);
    catalog::Run got = v.run(catalog::prepare(v.input, g, wg), opt);
    catalog::Run want = oracle.run(catalog::prepare(oracle.input, g, wg), opt);
    const catalog::Output& a = got.outputs.front();
    const catalog::Output& b = want.outputs.front();
    EXPECT_TRUE(v.family->agrees(a, b));
    // Every cc row promises min-vertex labels (cc.h, ldd.h), which is more
    // than the partition `agrees` compares: check the labels themselves.
    if (v.family->name == std::string_view("cc")) {
      EXPECT_TRUE(a == b);
    }
  }
}

}  // namespace
}  // namespace pasgal
