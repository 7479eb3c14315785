// Connectivity utilities: BFS reachability along out- or in-edges. Used by
// incremental index maintenance (core/incremental.cc) to bound the nodes
// an edge insertion can disturb.

#ifndef CLOUDWALKER_GRAPH_COMPONENTS_H_
#define CLOUDWALKER_GRAPH_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace cloudwalker {

/// Nodes reachable from `source` following edges in the given direction
/// within at most `max_hops` steps (kForward = out-edges). The source is
/// included at distance 0. Returns (node, distance) pairs in BFS order.
enum class Direction { kForward = 0, kBackward = 1 };
struct BfsVisit {
  NodeId node;
  uint32_t distance;
};
std::vector<BfsVisit> BfsReachable(const Graph& graph, NodeId source,
                                   Direction direction,
                                   uint32_t max_hops = 0xffffffffu);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_GRAPH_COMPONENTS_H_
