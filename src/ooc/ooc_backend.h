// OutOfCoreWalkBackend — the walker-block scheduler behind the WalkBackend
// seam (DESIGN.md section 14).
//
// The backend is an executor of the shared level loop (engine/
// walk_driver.h) with one part per block: at each level the loop buckets
// the live frontier by the block each walker's node lives in, and each
// bucket drains against exactly one pinned block lease — so a block is
// paged in once per level it is touched, no matter how many walkers sit in
// it (the randgraph walker-block model). node2vec walks whose trials can
// read In(prev) (q != 1) sub-bucket by the previous hop's block and hold
// at most two pins.
//
// Bit identity with the in-memory kernel is inherited, not re-proven: each
// bucket advances through the level step every executor shares
// (engine/walk_step.h AdvanceLevel — every draw a pure function of
// (seed, key node, walker, step[, trial])), and per-level endpoints
// aggregate through the same order-independent sort-and-RLE path
// (AggregateEndpointNodes), so bucketing freely reorders walkers without
// moving a single output bit. A reordered snapshot's permutation keys the
// draws straight from the paged artifact. The six QueryKinds route through
// this backend unchanged — the combine phases never know the graph wasn't
// in memory.

#ifndef CLOUDWALKER_OOC_OOC_BACKEND_H_
#define CLOUDWALKER_OOC_OOC_BACKEND_H_

#include <memory>

#include "common/status.h"
#include "engine/walk_backend.h"
#include "ooc/block_cache.h"
#include "ooc/paged_snapshot.h"

namespace cloudwalker {

/// Knobs of an out-of-core open.
struct OutOfCoreOptions {
  /// Cap on resident paged bytes (the block cache budget). Must admit two
  /// blocks — a node2vec walk with q != 1 pins the current and previous
  /// hop's blocks simultaneously. Concurrent walks can each pin two, so W of
  /// them need 2 * W blocks to never overflow (ooc/block_cache.h).
  /// Default 64 MiB.
  uint64_t budget_bytes = 64ull << 20;
};

/// WalkBackend over a demand-paged snapshot. Immutable after construction
/// and thread-safe (the block cache synchronizes internally), per the
/// WalkBackend contract.
class OutOfCoreWalkBackend final : public WalkFront<OutOfCoreWalkBackend> {
 public:
  static StatusOr<std::shared_ptr<const OutOfCoreWalkBackend>> Create(
      std::shared_ptr<const PagedSnapshot> snapshot,
      const OutOfCoreOptions& options);

  const PagedSnapshot& paged_snapshot() const { return *snapshot_; }
  BlockCacheCounters cache_counters() const { return cache_->counters(); }
  uint64_t budget_bytes() const { return cache_->budget_bytes(); }

 private:
  friend class WalkFront<OutOfCoreWalkBackend>;

  OutOfCoreWalkBackend(std::shared_ptr<const PagedSnapshot> snapshot,
                       std::unique_ptr<BlockCache> cache)
      : WalkFront(snapshot->num_nodes(), snapshot->permutation()),
        snapshot_(std::move(snapshot)),
        cache_(std::move(cache)) {}

  // A failed block read aborts the walk (TakeError reports it).
  template <typename Policy>
  Status Walk(NodeId source, const WalkConfig& config, const Policy& policy,
              WalkStats* stats, const WalkOutput& out) const;

  const std::shared_ptr<const PagedSnapshot> snapshot_;
  const std::unique_ptr<BlockCache> cache_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_OOC_OOC_BACKEND_H_
