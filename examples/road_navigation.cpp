// Road navigation: the paper's motivating large-diameter workload.
//
//   $ ./examples/road_navigation [side]
//
// Models a city street network as a directed lattice with one-way streets,
// then answers the questions a routing service asks:
//   * shortest travel times from a depot (rho-stepping SSSP),
//   * which addresses can reach the depot AND be reached from it
//     (strong connectivity — one-way streets make this non-trivial),
//   * how much the one-way layout costs versus two-way travel.
#include <cstdio>
#include <cstdlib>

#include "algorithms/scc/scc.h"
#include "algorithms/sssp/sssp.h"
#include "graphs/generators.h"

using namespace pasgal;

int main(int argc, char** argv) {
  std::size_t side = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 400;
  // 70% of streets are two-way; weights model travel seconds per block.
  Graph streets = gen::road_grid(side, side, 0.70, 7);
  Graph streets_rev = streets.transpose();
  auto travel = gen::add_weights(streets, /*max_weight=*/90, 8);
  auto travel_rev = travel.transpose();

  VertexId depot = static_cast<VertexId>(side * side / 2 + side / 2);
  std::printf("city: %zu intersections, %zu street segments, depot at %u\n",
              streets.num_vertices(), streets.num_edges(), depot);

  // Travel times from the depot and back to the depot (rho-stepping).
  AlgoOptions from_depot;
  from_depot.source = depot;
  auto out_time = stepping_sssp(travel, from_depot).output;
  auto back_time = stepping_sssp(travel_rev, from_depot).output;

  std::size_t deliverable = 0;
  Dist worst_round_trip = 0;
  for (std::size_t v = 0; v < streets.num_vertices(); ++v) {
    if (out_time[v] != kInfWeightDist && back_time[v] != kInfWeightDist) {
      ++deliverable;
      worst_round_trip = std::max(worst_round_trip, out_time[v] + back_time[v]);
    }
  }
  std::printf("deliverable addresses (round trip possible): %zu (%.1f%%)\n",
              deliverable,
              100.0 * double(deliverable) / double(streets.num_vertices()));
  std::printf("worst round-trip time: %llu seconds\n",
              (unsigned long long)worst_round_trip);

  // Strong connectivity tells the same story globally: every address in the
  // depot's SCC has a legal route both ways.
  auto scc_run = pasgal_scc(streets, streets_rev, AlgoOptions{});
  auto scc = normalize_scc_labels(scc_run.output);
  std::size_t same_scc = 0;
  for (auto label : scc) {
    if (label == scc[depot]) ++same_scc;
  }
  std::printf("depot's strongly connected zone: %zu intersections "
              "(SCC computed in %zu rounds despite diameter ~%zu)\n",
              same_scc, scc_run.telemetry.rounds.size(), 2 * side);

  // Sample a few concrete routes.
  std::printf("sample travel times from depot (seconds):\n");
  for (std::size_t corner : {std::size_t{0}, side - 1, side * (side - 1),
                             side * side - 1}) {
    Dist t = out_time[corner];
    if (t == kInfWeightDist) {
      std::printf("  -> intersection %8zu: unreachable (one-way maze)\n", corner);
    } else {
      std::printf("  -> intersection %8zu: %llu\n", corner,
                  (unsigned long long)t);
    }
  }
  return 0;
}
