// Tests for the Tracer counter interface (edges, visits, rounds, frontiers).
#include <gtest/gtest.h>

#include "parlay/parallel.h"
#include "pasgal/telemetry.h"

namespace pasgal {
namespace {

TEST(TracerCounters, CountersAccumulate) {
  Scheduler::reset(1);
  Tracer stats;
  stats.add_edges(10);
  stats.add_edges(5);
  stats.add_visits(3);
  EXPECT_EQ(stats.edges_scanned(), 15u);
  EXPECT_EQ(stats.vertices_visited(), 3u);
  EXPECT_EQ(stats.rounds(), 0u);
}

TEST(TracerCounters, RoundsAndFrontiers) {
  Scheduler::reset(1);
  Tracer stats;
  stats.end_round(10);
  stats.end_round(100);
  stats.end_round(7);
  EXPECT_EQ(stats.rounds(), 3u);
  EXPECT_EQ(stats.max_frontier(), 100u);
  EXPECT_EQ(stats.frontier_sizes(), (std::vector<std::uint64_t>{10, 100, 7}));
}

TEST(TracerCounters, ResetClears) {
  Scheduler::reset(1);
  Tracer stats;
  stats.add_edges(5);
  stats.end_round(1);
  stats.reset();
  EXPECT_EQ(stats.edges_scanned(), 0u);
  EXPECT_EQ(stats.rounds(), 0u);
}

TEST(TracerCounters, ParallelCountingIsExact) {
  Scheduler::reset(4);
  Tracer stats;
  parallel_for(0, 100000, [&](std::size_t) {
    stats.add_edges(1);
    stats.add_visits(2);
  });
  EXPECT_EQ(stats.edges_scanned(), 100000u);
  EXPECT_EQ(stats.vertices_visited(), 200000u);
  Scheduler::reset(1);
}

}  // namespace
}  // namespace pasgal
