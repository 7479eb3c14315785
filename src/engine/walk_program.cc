#include "engine/walk_program.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/random.h"
#include "engine/simd.h"
#include "engine/walk_driver.h"

namespace cloudwalker {

SparseVector AggregateEndpointNodes(NodeId* data, uint32_t n,
                                    std::vector<NodeId>& tmp, double inv_r,
                                    uint32_t id_bits) {
  if (n == 0) return SparseVector();
  data = SortByKey(data, n, id_bits, tmp, [](NodeId v) { return v; });
  std::vector<SparseEntry> entries;
  entries.reserve(std::min<uint32_t>(n, 256));
  simd::AggregateSortedRuns(data, n, inv_r, &entries);
  return SparseVector::FromSorted(std::move(entries));
}

SparseVector AggregateEndpointNodes(std::vector<NodeId>& nodes, double inv_r,
                                    uint32_t id_bits) {
  const uint32_t n = static_cast<uint32_t>(nodes.size());
  std::vector<NodeId> tmp;
  return AggregateEndpointNodes(nodes.data(), n, tmp, inv_r, id_bits);
}

SparseVector SimulatePprEndpoints(const Graph& graph, NodeId source,
                                  const WalkConfig& config,
                                  const PprParams& params,
                                  WalkScratch* scratch,
                                  const NodeOwnerFn* owner,
                                  WalkStats* stats) {
  std::vector<NodeId> terminals;
  (void)LevelLoop::Run(CsrLevels::In(graph, owner), source, config,
                       PprPolicy(config, source, params), 0, config.num_walkers,
                       scratch, stats, WalkOutput{.terminals = &terminals});
  const double inv_r = 1.0 / static_cast<double>(config.num_walkers);
  return AggregateEndpointNodes(terminals, inv_r,
                                NodeIdBits(graph.num_nodes()));
}

WalkDistributions SimulateNode2VecVisits(const Graph& graph,
                                         const WalkContext* context_or_null,
                                         NodeId source,
                                         const WalkConfig& config,
                                         const Node2VecParams& params,
                                         WalkScratch* scratch,
                                         const NodeOwnerFn* owner,
                                         WalkStats* stats) {
  const Node2VecPolicy policy(
      config, source, params,
      context_or_null != nullptr ? context_or_null->external_ids()
                                 : std::span<const NodeId>());
  WalkDistributions out = SourceLevels(source, config.num_steps);
  (void)LevelLoop::Run(CsrLevels::In(graph, owner), source, config, policy, 0,
                       config.num_walkers, scratch, stats,
                       WalkOutput{.levels = &out.levels});
  return out;
}

}  // namespace cloudwalker
