#include "engine/parallel_walk.h"

#include <algorithm>
#include <thread>

#include "engine/walk_driver.h"

namespace cloudwalker {
namespace {

// First-touch warm-up, run by each range task on its worker thread before
// its level loop: pulls the source row's offsets and leading target lines into
// the worker's cache so the first blocks of every range don't all stall on
// the same cold lines.
void WarmRow(const Graph& graph, NodeId source) {
  PrefetchRead(&graph.InOffsets()[source]);
  const std::span<const NodeId> row = graph.InNeighbors(source);
  const size_t targets = std::min<size_t>(row.size(), 64);
  // 16 targets per cache line.
  for (size_t k = 0; k < targets; k += 16) PrefetchRead(&row[k]);
}

}  // namespace

StatusOr<std::shared_ptr<const ParallelWalkExecutor>>
ParallelWalkExecutor::Build(const Graph& graph,
                            const WalkContext* context_or_null,
                            const ParallelWalkOptions& options) {
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = hardware concurrency), got " +
        std::to_string(options.num_threads));
  }
  if (options.min_walkers_per_range == 0) {
    return Status::InvalidArgument("min_walkers_per_range must be >= 1");
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot parallelize an empty graph");
  }
  int threads = options.num_threads;
  if (threads == 0) {
    threads = std::max(1, static_cast<int>(
                              std::thread::hardware_concurrency()));
  }
  return std::shared_ptr<const ParallelWalkExecutor>(new ParallelWalkExecutor(
      graph, context_or_null, options, threads));
}

ParallelWalkExecutor::ParallelWalkExecutor(
    const Graph& graph, const WalkContext* context_or_null,
    const ParallelWalkOptions& options, int num_threads)
    : WalkFront(graph, context_or_null),
      graph_(&graph),
      options_(options),
      num_threads_(num_threads),
      pool_(num_threads > 1 ? std::make_unique<ThreadPool>(num_threads)
                            : nullptr) {}

template <typename Policy>
Status ParallelWalkExecutor::Walk(NodeId source, const WalkConfig& config,
                                  const Policy& policy, WalkStats* stats,
                                  const WalkOutput& out) const {
  const CsrLevels levels = CsrLevels::In(*graph_);
  const uint32_t by_floor = std::max<uint32_t>(
      1, config.num_walkers / options_.min_walkers_per_range);
  const std::vector<WalkerRange> ranges = SplitWalkerRanges(
      config.num_walkers,
      std::min(static_cast<uint32_t>(num_threads_), by_floor));
  if (ranges.size() <= 1) {
    return LevelLoop::Run(levels, source, config, policy, 0,
                          config.num_walkers, /*scratch=*/nullptr, stats, out);
  }
  // Each range walks its own global walker ids, so its draws are the ones
  // the single-thread run makes; levels leave as raw endpoint lists.
  std::vector<RangeWalk> results(ranges.size());
  ParallelFor(
      pool_.get(), 0, ranges.size(), /*grain=*/1,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          RangeWalk& res = results[i];
          const WalkOutput range_out = res.Reset<Policy>(config.num_steps);
          WalkWorkerState state;
          WarmRow(*graph_, source);
          // In-CSR ranges cannot fail.
          (void)LevelLoop::Run(levels, source, config, policy,
                               ranges[i].begin, ranges[i].size(),
                               &state.scratch, &res.stats, range_out);
        }
      });
  MergeRangeWalks<Policy>(results, config, id_bits(), stats, out);
  return Status::Ok();
}

template Status ParallelWalkExecutor::Walk(NodeId, const WalkConfig&,
                                           const SimRankPolicy&, WalkStats*,
                                           const WalkOutput&) const;
template Status ParallelWalkExecutor::Walk(NodeId, const WalkConfig&,
                                           const PprPolicy&, WalkStats*,
                                           const WalkOutput&) const;
template Status ParallelWalkExecutor::Walk(NodeId, const WalkConfig&,
                                           const Node2VecPolicy&, WalkStats*,
                                           const WalkOutput&) const;

}  // namespace cloudwalker
