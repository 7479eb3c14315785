#include "shard/sharded_engine.h"

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "engine/walk_driver.h"

namespace cloudwalker {
namespace {

// Row source over one shard's materialized slice (engine/walk_step.h
// defines the concept). In(prev) reads of nodes the shard does not own go
// through the plan's owning slice and are counted as remote row reads —
// the in-process stand-in for a cross-worker adjacency message.
struct SliceRows {
  const ShardPlan* plan = nullptr;
  const ShardSlice* slice = nullptr;
  int shard = 0;
  uint64_t* remote_rows = nullptr;

  void Prefetch(NodeId v) const {  // through the owner: v may be In(prev)'s
    PrefetchRead(plan->slice(plan->Owner(v)).offsets.data() +
                 plan->LocalRow(v));
  }
  RowLocation Locate(NodeId v) const {
    const uint32_t row = plan->LocalRow(v);
    return RowLocation{slice->offsets[row], slice->RowDegree(row)};
  }
  void PrefetchEdge(uint64_t edge) const {
    PrefetchRead(slice->targets.data() + edge);
  }
  NodeId Target(uint64_t edge) const { return slice->targets[edge]; }
  std::span<const NodeId> InRow(NodeId v) const {
    bool remote = false;
    const std::span<const NodeId> row = plan->InRow(v, shard, &remote);
    if (remote) ++*remote_rows;
    return row;
  }
};

}  // namespace

// The engine's level-loop executor (engine/walk_driver.h): one part per
// shard. Each level, every shard advances its bucket against its slice,
// in parallel, into its own region of the level buffers — a bucket of n
// walkers yields at most n survivors, endpoints and terminals — and the
// regions then compact in shard order. The loop's next counting sort by
// owner is the exchange.
class ShardedWalkEngine::Levels {
 public:
  explicit Levels(const ShardedWalkEngine& engine) : engine_(&engine) {}

  NodeId num_nodes() const { return engine_->graph_->num_nodes(); }
  uint32_t num_parts() const {
    return static_cast<uint32_t>(engine_->num_shards());
  }
  uint32_t PartOf(NodeId v) const {
    return static_cast<uint32_t>(engine_->plan_.Owner(v));
  }

  template <typename Policy>
  Status Advance(const Policy& policy, const WalkConfig& config, uint32_t t,
                 const LevelFrontier& frontier,
                 BufferSink<Policy::kEmitsLevels>& sink) const {
    const ShardPlan& plan = engine_->plan_;
    const bool self_loop = config.dangling == DanglingPolicy::kSelfLoop;
    // One shard's region of the level, padded so adjacent shards' counters
    // never share a cache line.
    struct alignas(kCacheLineBytes) Region {
      BufferSink<Policy::kEmitsLevels> sink;
      uint64_t remote_rows = 0;
    };
    static_assert(alignof(Region) >= kCacheLineBytes);
    std::vector<Region> regions(num_parts());
    ParallelFor(
        engine_->pool_.get(), 0, regions.size(), /*grain=*/1,
        [&](uint64_t begin, uint64_t end) {
          for (uint64_t si = begin; si < end; ++si) {
            const int shard = static_cast<int>(si);
            const size_t offset = frontier.Offset(shard);
            BufferSink<Policy::kEmitsLevels>& out = regions[si].sink;
            // Only the buffers the program fills exist: offsetting a null
            // one would be undefined.
            out.survivors = sink.survivors + offset;
            if constexpr (Policy::kEmitsLevels) {
              out.endpoints = sink.endpoints + offset;
            }
            if constexpr (Policy::kMayRetire) {
              out.terminals = sink.terminals + sink.num_terminals + offset;
            }
            const SliceRows rows{&plan, &plan.slice(shard), shard,
                                 &regions[si].remote_rows};
            AdvanceLevel(rows, policy, t, self_loop, frontier.Part(shard),
                         config.batch_width, out);
            for (size_t k = 0; k < out.num_survivors; ++k) {
              if (plan.Owner(out.survivors[k].cur) != shard) ++out.crossings;
            }
          }
        });
    // Compact in shard order. Every region moves down (or stays), so
    // memmove never overwrites a region still to be moved.
    uint64_t crossings = 0;
    uint64_t remote_rows = 0;
    for (const Region& region : regions) {
      const BufferSink<Policy::kEmitsLevels>& out = region.sink;
      std::memmove(sink.survivors + sink.num_survivors, out.survivors,
                   out.num_survivors * sizeof(WalkerRec));
      sink.num_survivors += out.num_survivors;
      if constexpr (Policy::kEmitsLevels) {
        std::memmove(sink.endpoints + sink.num_endpoints, out.endpoints,
                     out.num_endpoints * sizeof(NodeId));
        sink.num_endpoints += out.num_endpoints;
      }
      if constexpr (Policy::kMayRetire) {
        std::memmove(sink.terminals + sink.num_terminals, out.terminals,
                     out.num_terminals * sizeof(NodeId));
        sink.num_terminals += out.num_terminals;
      }
      sink.steps += out.steps;
      crossings += out.crossings;
      remote_rows += region.remote_rows;
    }
    sink.crossings += crossings;
    engine_->supersteps_.fetch_add(1, std::memory_order_relaxed);
    engine_->exchanged_.fetch_add(crossings, std::memory_order_relaxed);
    engine_->remote_rows_.fetch_add(remote_rows, std::memory_order_relaxed);
    return Status::Ok();
  }

 private:
  const ShardedWalkEngine* engine_;
};

ShardedWalkEngine::ShardedWalkEngine(const Graph& graph,
                                     const WalkContext* context_or_null,
                                     ShardPlan plan, int num_threads)
    : WalkFront(graph, context_or_null),
      graph_(&graph),
      plan_(std::move(plan)),
      pool_(num_threads > 0 ? std::make_unique<ThreadPool>(num_threads)
                            : nullptr) {}

StatusOr<std::shared_ptr<const ShardedWalkEngine>> ShardedWalkEngine::Build(
    const Graph& graph, const WalkContext* context_or_null,
    const ShardingOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(options.num_shards));
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot shard an empty graph");
  }
  ShardPlan plan = ShardPlan::Build(graph, options);
  return std::shared_ptr<const ShardedWalkEngine>(new ShardedWalkEngine(
      graph, context_or_null, std::move(plan), options.num_threads));
}

template <typename Policy>
Status ShardedWalkEngine::Walk(NodeId source, const WalkConfig& config,
                               const Policy& policy, WalkStats* stats,
                               const WalkOutput& out) const {
  return LevelLoop::Run(Levels(*this), source, config, policy, 0,
                        config.num_walkers, /*scratch=*/nullptr, stats, out);
}

template Status ShardedWalkEngine::Walk(NodeId, const WalkConfig&,
                                        const SimRankPolicy&, WalkStats*,
                                        const WalkOutput&) const;
template Status ShardedWalkEngine::Walk(NodeId, const WalkConfig&,
                                        const PprPolicy&, WalkStats*,
                                        const WalkOutput&) const;
template Status ShardedWalkEngine::Walk(NodeId, const WalkConfig&,
                                        const Node2VecPolicy&, WalkStats*,
                                        const WalkOutput&) const;

}  // namespace cloudwalker
