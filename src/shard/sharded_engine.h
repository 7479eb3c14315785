// ShardedWalkEngine — real in-process multi-shard walk execution
// (DESIGN.md section 11).
//
// The engine implements WalkBackend over a ShardPlan as an executor of
// the shared level loop (engine/walk_driver.h) with one part per shard:
// each level, the loop counting-sorts the live walkers by the shard owning
// their node, and every shard advances its bucket one step using only its
// own slice (local in-CSR rows, the stateless counter draws of the
// walker's stream), in parallel, into its own region of the level
// buffers. The regions then compact in shard order, and the next level's
// counting sort is the exchange: a walker whose new node another shard
// owns lands in that shard's bucket. The loop merges the level's
// endpoints with the same sort-and-RLE aggregation every executor uses.
// Because each walker's draws depend only on (seed, key node, walker,
// step[, trial]) and the aggregation is walker-order independent, the
// output is bit-identical to the single-node engine at every shard count —
// the equality the shard test matrix (tests/shard/) asserts for all six
// query kinds, on original and locality-reordered snapshots alike.
//
// Thread-safety: the engine is immutable after Build (telemetry counters
// are relaxed atomics) and may serve any number of concurrent jobs; each
// job's state lives on the calling stack. With num_threads > 0 the shards
// of one level fan out over an engine-owned pool (safe for concurrent
// jobs — ParallelFor keeps per-call state).

#ifndef CLOUDWALKER_SHARD_SHARDED_ENGINE_H_
#define CLOUDWALKER_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "common/threading.h"
#include "engine/walk_backend.h"
#include "shard/sharding.h"

namespace cloudwalker {

/// Cumulative exchange telemetry of one engine (all jobs since Build).
struct ShardExchangeStats {
  uint64_t supersteps = 0;         // level barriers executed
  uint64_t walkers_exchanged = 0;  // records that crossed a shard boundary
  uint64_t remote_row_fetches = 0;  // cross-shard adjacency reads (n2v)
};

/// The in-process sharded walk backend. Borrows `graph` and
/// `context_or_null` (the reorder permutation), which must outlive the
/// engine; the CloudWalker::Shard factory pins both.
class ShardedWalkEngine final : public WalkFront<ShardedWalkEngine> {
 public:
  /// Partitions `graph` per `options` and materializes the shard slices.
  static StatusOr<std::shared_ptr<const ShardedWalkEngine>> Build(
      const Graph& graph, const WalkContext* context_or_null,
      const ShardingOptions& options);

  const ShardPlan& plan() const { return plan_; }
  int num_shards() const { return plan_.num_shards(); }

  ShardExchangeStats exchange_stats() const {
    return ShardExchangeStats{
        supersteps_.load(std::memory_order_relaxed),
        exchanged_.load(std::memory_order_relaxed),
        remote_rows_.load(std::memory_order_relaxed)};
  }

 private:
  friend class WalkFront<ShardedWalkEngine>;
  class Levels;  // the level-loop executor

  ShardedWalkEngine(const Graph& graph, const WalkContext* context_or_null,
                    ShardPlan plan, int num_threads);

  template <typename Policy>
  Status Walk(NodeId source, const WalkConfig& config, const Policy& policy,
              WalkStats* stats, const WalkOutput& out) const;

  const Graph* graph_;
  ShardPlan plan_;
  // Engine-owned shard pool (null = serial). Mutable: ParallelFor is
  // thread-safe, and the WalkBackend interface is const.
  mutable std::unique_ptr<ThreadPool> pool_;
  mutable std::atomic<uint64_t> supersteps_{0};
  mutable std::atomic<uint64_t> exchanged_{0};
  mutable std::atomic<uint64_t> remote_rows_{0};
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_SHARD_SHARDED_ENGINE_H_
