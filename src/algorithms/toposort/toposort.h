// Topological ordering of DAGs — another "peeling algorithm" in the family
// the paper's conclusion targets. Kahn peeling has the same large-diameter
// pathology as BFS: one synchronized wave per level of the DAG, and a deep
// dependency chain means O(depth) rounds. VGC collapses in-task chains.
//
//  * seq_toposort    — Kahn's algorithm with a queue (sequential baseline).
//  * pasgal_toposort — parallel Kahn over hash-bag frontiers with VGC:
//                      finishing a vertex may drop a successor's in-degree
//                      to zero; the task keeps peeling such chains locally.
//
// Both produce `level[v]` = length of the longest path ending at v — a
// canonical topological layering (u -> v implies level[u] < level[v]) that
// is schedule-independent, so parallel and sequential outputs are directly
// comparable. A cyclic input is reported as a kValidation Status (with the
// number of vertices stuck on cycles) and `levels` is left empty.
#pragma once

#include <cstdint>
#include <vector>

#include "graphs/graph.h"
#include "pasgal/error.h"
#include "pasgal/options.h"
#include "pasgal/telemetry.h"

namespace pasgal {

Status seq_toposort(const Graph& g, std::vector<std::uint32_t>& levels,
                    Tracer* stats = nullptr);

// --- Entry points (algorithms/run_api.cpp) ----------------------------------
// Unlike the Status forms these throw the kValidation Error on cyclic
// inputs, so RunReport can carry the levels directly. pasgal_toposort reads
// vgc.tau (1 disables in-task peeling chains).
RunReport<std::vector<std::uint32_t>> seq_toposort(const Graph& g,
                                                   const AlgoOptions& opt);
RunReport<std::vector<std::uint32_t>> pasgal_toposort(const Graph& g,
                                                      const AlgoOptions& opt);

// --- Kernel behind the entry point (no input guard) -------------------------
namespace internal {

Status pasgal_toposort(const Graph& g, std::vector<std::uint32_t>& levels,
                       const AlgoOptions& opt, Tracer* stats);

}  // namespace internal

// Convenience: vertices sorted by (level, id) — a concrete topological order.
std::vector<VertexId> topological_order(std::span<const std::uint32_t> levels);

}  // namespace pasgal
