#include "engine/walk.h"

#include <algorithm>

#include "common/logging.h"
#include "engine/walk_kernel.h"

namespace cloudwalker {

WalkScratch::WalkScratch(uint32_t expected_walkers) {
  positions_.reserve(expected_walkers);
  endpoints_.reserve(expected_walkers);
  sort_buffer_.reserve(expected_walkers);
}

WalkDistributions SimulateWalkDistributions(const Graph& graph, NodeId source,
                                            const WalkConfig& config,
                                            WalkScratch* scratch,
                                            const NodeOwnerFn* owner,
                                            WalkStats* stats) {
  WalkDistributions out;
  internal::SimRankEndpointsProgram program;
  program.out = &out;
  WalkKernel::Run(graph, source, config, scratch, owner, stats, program);
  return out;
}

void SimulateAllSources(
    const Graph& graph, const WalkConfig& config, ThreadPool* pool,
    const std::function<void(NodeId, const WalkDistributions&)>& consume) {
  const uint64_t n = graph.num_nodes();
  ParallelFor(pool, 0, n, /*grain=*/0,
              [&graph, &config, &consume](uint64_t begin, uint64_t end) {
                WalkWorkerState state;  // padded; one per chunk, never shared
                for (uint64_t s = begin; s < end; ++s) {
                  const NodeId source = static_cast<NodeId>(s);
                  const WalkDistributions dists = SimulateWalkDistributions(
                      graph, source, config, &state.scratch);
                  consume(source, dists);
                }
              });
}

WalkDistributions ExactWalkDistributions(const Graph& graph, NodeId source,
                                         uint32_t num_steps,
                                         double prune_threshold,
                                         uint64_t* edge_ops) {
  CW_CHECK_LT(source, graph.num_nodes());
  WalkDistributions out;
  out.levels.resize(num_steps + 1);
  out.levels[0] = SparseVector::FromSorted({SparseEntry{source, 1.0}});

  SparseAccumulator acc(64);
  for (uint32_t t = 1; t <= num_steps; ++t) {
    const SparseVector& prev = out.levels[t - 1];
    if (prev.empty()) break;
    acc.Clear();
    // u_t = P u_{t-1}: mass at j spreads to every in-neighbor of j,
    // scaled by 1 / |In(j)|.
    for (const SparseEntry& e : prev) {
      const auto in = graph.InNeighbors(e.index);
      if (in.empty()) continue;  // dangling: the mass dies with the walker
      const double share = e.value / static_cast<double>(in.size());
      for (const NodeId i : in) acc.Add(i, share);
      if (edge_ops != nullptr) *edge_ops += in.size();
    }
    SparseVector level = acc.ToSortedVector();
    if (prune_threshold > 0.0) level.Prune(prune_threshold);
    out.levels[t] = std::move(level);
  }
  return out;
}

std::vector<NodeId> SimulateTrajectory(const Graph& graph, NodeId source,
                                       uint32_t num_steps, Xoshiro256& rng,
                                       DanglingPolicy policy) {
  CW_CHECK_LT(source, graph.num_nodes());
  std::vector<NodeId> positions(num_steps + 1, kInvalidNode);
  positions[0] = source;
  NodeId v = source;
  for (uint32_t t = 1; t <= num_steps; ++t) {
    if (v == kInvalidNode) break;
    v = StepReverse(graph, v, rng, policy);
    positions[t] = v;
  }
  return positions;
}

}  // namespace cloudwalker
