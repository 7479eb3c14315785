#include "graph/components.h"

#include <deque>

#include "common/logging.h"

namespace cloudwalker {

std::vector<BfsVisit> BfsReachable(const Graph& graph, NodeId source,
                                   Direction direction, uint32_t max_hops) {
  CW_CHECK_LT(source, graph.num_nodes());
  std::vector<BfsVisit> order;
  std::vector<bool> seen(graph.num_nodes(), false);
  std::deque<BfsVisit> frontier;
  seen[source] = true;
  frontier.push_back({source, 0});
  while (!frontier.empty()) {
    const BfsVisit v = frontier.front();
    frontier.pop_front();
    order.push_back(v);
    if (v.distance >= max_hops) continue;
    const auto neighbors = direction == Direction::kForward
                               ? graph.OutNeighbors(v.node)
                               : graph.InNeighbors(v.node);
    for (const NodeId u : neighbors) {
      if (!seen[u]) {
        seen[u] = true;
        frontier.push_back({u, v.distance + 1});
      }
    }
  }
  return order;
}

}  // namespace cloudwalker
