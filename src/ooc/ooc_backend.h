// OutOfCoreWalkBackend — the walker-block scheduler behind the WalkBackend
// seam (DESIGN.md section 14).
//
// The walk kernels are level-synchronous already; this backend exploits
// that for locality instead of parallelism: at each level the live walker
// frontier is bucketed by the block its current node lives in, and each
// bucket drains against exactly one pinned block lease — so a block is
// paged in once per level it is touched, no matter how many walkers sit in
// it (the randgraph walker-block model). Second-order walks sub-bucket by
// the previous hop's block and hold at most two pins.
//
// Bit identity with the in-memory kernel is inherited, not re-proven: each
// bucket advances through the level step every executor shares
// (engine/walk_step.h AdvanceLevel — every draw a pure function of
// (seed, source, walker, step[, trial])), and per-level endpoints aggregate
// through the same order-independent sort-and-RLE path
// (AggregateEndpointNodes), so bucketing freely reorders walkers without
// moving a single output bit. The six QueryKinds route through this
// backend unchanged — the combine phases never know the graph wasn't in
// memory.

#ifndef CLOUDWALKER_OOC_OOC_BACKEND_H_
#define CLOUDWALKER_OOC_OOC_BACKEND_H_

#include <memory>
#include <mutex>

#include "common/status.h"
#include "engine/walk_backend.h"
#include "ooc/block_cache.h"
#include "ooc/paged_snapshot.h"

namespace cloudwalker {

/// Knobs of an out-of-core open.
struct OutOfCoreOptions {
  /// Cap on resident paged bytes (the block cache budget). Must admit two
  /// blocks — a second-order walk pins the current and previous hop's
  /// blocks simultaneously. Concurrent walks can each pin two, so W of
  /// them need 2 * W blocks to never overflow (ooc/block_cache.h).
  /// Default 64 MiB.
  uint64_t budget_bytes = 64ull << 20;
};

/// WalkBackend over a demand-paged snapshot. Immutable after construction
/// and thread-safe (the block cache synchronizes internally), per the
/// WalkBackend contract.
class OutOfCoreWalkBackend final : public WalkBackend {
 public:
  static StatusOr<std::shared_ptr<const OutOfCoreWalkBackend>> Create(
      std::shared_ptr<const PagedSnapshot> snapshot,
      const OutOfCoreOptions& options);

  WalkDistributions SimRankLevels(NodeId source, const WalkConfig& config,
                                  WalkStats* stats) const override;
  SparseVector PprEndpoints(NodeId source, const WalkConfig& config,
                            const PprParams& params,
                            WalkStats* stats) const override;
  WalkDistributions Node2VecLevels(NodeId source, const WalkConfig& config,
                                   const Node2VecParams& params,
                                   WalkStats* stats) const override;
  Status TakeError() const override;

  const PagedSnapshot& paged_snapshot() const { return *snapshot_; }
  BlockCacheCounters cache_counters() const { return cache_->counters(); }
  uint64_t budget_bytes() const { return cache_->budget_bytes(); }

 private:
  OutOfCoreWalkBackend(std::shared_ptr<const PagedSnapshot> snapshot,
                       std::unique_ptr<BlockCache> cache)
      : snapshot_(std::move(snapshot)), cache_(std::move(cache)) {}

  void RecordError(const Status& status) const;

  const std::shared_ptr<const PagedSnapshot> snapshot_;
  const std::unique_ptr<BlockCache> cache_;
  mutable std::mutex error_mu_;
  mutable Status error_;  // first job-fatal error since the last TakeError
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_OOC_OOC_BACKEND_H_
