#include "engine/walk.h"

#include <algorithm>

#include "common/logging.h"
#include "engine/walk_backend.h"
#include "engine/walk_driver.h"

namespace cloudwalker {

WalkScratch::WalkScratch(uint32_t expected_walkers) {
  walkers_.reserve(expected_walkers);
  survivors_.reserve(expected_walkers);
  endpoints_.reserve(expected_walkers);
  sort_buffer_.reserve(expected_walkers);
}

template <typename Policy>
Status LocalWalkBackend::Walk(NodeId source, const WalkConfig& config,
                              const Policy& policy, WalkStats* stats,
                              const WalkOutput& out) const {
  return LevelLoop::Run(levels_, source, config, policy, 0,
                        config.num_walkers, /*scratch=*/nullptr, stats, out);
}

template Status LocalWalkBackend::Walk(NodeId, const WalkConfig&,
                                       const SimRankPolicy&, WalkStats*,
                                       const WalkOutput&) const;
template Status LocalWalkBackend::Walk(NodeId, const WalkConfig&,
                                       const PprPolicy&, WalkStats*,
                                       const WalkOutput&) const;
template Status LocalWalkBackend::Walk(NodeId, const WalkConfig&,
                                       const Node2VecPolicy&, WalkStats*,
                                       const WalkOutput&) const;

WalkDistributions SimulateWalkDistributions(const Graph& graph, NodeId source,
                                            const WalkConfig& config,
                                            WalkScratch* scratch,
                                            const NodeOwnerFn* owner,
                                            WalkStats* stats) {
  WalkDistributions out = SourceLevels(source, config.num_steps);
  (void)LevelLoop::Run(CsrLevels::In(graph, owner), source, config,
                       SimRankPolicy(config, source), 0, config.num_walkers,
                       scratch, stats, WalkOutput{.levels = &out.levels});
  return out;
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

}  // namespace cloudwalker
