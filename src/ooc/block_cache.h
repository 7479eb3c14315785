// BlockCache — demand-paged residency for a PagedSnapshot's in-targets
// under a byte budget (DESIGN.md section 14).
//
// The walker-block scheduler asks for one block at a time (two for
// second-order walks: the current block plus the previous hop's). A hit
// pins the resident copy; a miss preads the block off disk — CRC-verified
// per block — evicting least-recently-used unpinned blocks first until the
// budget admits it. Pins are RAII leases, so a block a walker bucket is
// mid-drain on can never be evicted under it.
//
// The budget holds while any resident block is evictable: a miss evicts
// until the new block fits. Blocks that are pinned or still loading are
// unevictable, and each walk in flight makes at most two of them so (its
// current block, plus the previous hop's for second-order walks). When a
// miss finds nothing left to evict, the cache admits the block over budget
// rather than deadlock — the pins may belong to the caller itself — and
// counts it in overflow_admits. So with W concurrent walks,
// peak_bytes_resident <= max(budget, 2 * W * largest block).
// OutOfCoreWalkBackend::Create insists on a two-block budget, which keeps
// overflow_admits at zero for one walk at a time; concurrent walks need
// 2 * W blocks for the same.
//
// For all-resident snapshots (the no-block-index fallback) leases point
// straight into the resident array: every acquire is a hit, nothing is
// ever read twice, and bytes_resident reports the full paged payload.

#ifndef CLOUDWALKER_OOC_BLOCK_CACHE_H_
#define CLOUDWALKER_OOC_BLOCK_CACHE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "ooc/paged_snapshot.h"

namespace cloudwalker {

/// Residency and traffic counters, readable at any time (a consistent
/// snapshot is taken under the cache lock).
struct BlockCacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Blocks admitted past the budget because everything else was pinned.
  uint64_t overflow_admits = 0;
  /// Total paged bytes read from disk (misses * block payloads).
  uint64_t bytes_read = 0;
  /// Paged bytes currently held resident.
  uint64_t bytes_resident = 0;
  /// High-water mark of bytes_resident over the cache's lifetime.
  uint64_t peak_bytes_resident = 0;
};

/// Thread-safe demand-paged block cache over one PagedSnapshot.
class BlockCache {
 public:
  /// An RAII pin on one resident block. `targets()` is the block's slice
  /// of the in-targets, indexed block-locally: global edge index i lives
  /// at [i - base()]. Valid until destruction; move-only. A
  /// default-constructed lease is empty.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    bool valid() const { return targets_ != nullptr; }
    uint32_t block() const { return block_; }
    /// Global edge index of the first element (the block's edge_begin).
    uint64_t base() const { return base_; }
    const NodeId* targets() const { return targets_; }

   private:
    friend class BlockCache;
    BlockCache* cache_ = nullptr;  // null for all-resident leases
    uint32_t block_ = 0;
    uint64_t base_ = 0;
    const NodeId* targets_ = nullptr;
  };

  /// `budget_bytes` caps resident paged payload. Must admit the largest
  /// block (kInvalidArgument otherwise) — callers that pin two blocks at
  /// once should insist on two (OutOfCoreWalkBackend::Create does).
  static StatusOr<std::unique_ptr<BlockCache>> Create(
      std::shared_ptr<const PagedSnapshot> snapshot, uint64_t budget_bytes);

  /// Returns a pinned lease on block `b`, reading it from disk on a miss.
  StatusOr<Lease> Acquire(uint32_t b);

  BlockCacheCounters counters() const;
  uint64_t budget_bytes() const { return budget_bytes_; }
  const PagedSnapshot& snapshot() const { return *snapshot_; }

 private:
  BlockCache(std::shared_ptr<const PagedSnapshot> snapshot,
             uint64_t budget_bytes);

  struct Frame {
    std::vector<NodeId> targets;
    uint32_t pins = 0;
    bool resident = false;
    bool loading = false;
    uint64_t tick = 0;  // last-touch clock for LRU
  };

  void Release(uint32_t b);
  /// Evicts LRU unpinned blocks until `need` more bytes fit (lock held).
  /// Returns false when nothing evictable remains and the budget still
  /// doesn't admit `need`.
  bool MakeRoom(uint64_t need);

  const std::shared_ptr<const PagedSnapshot> snapshot_;
  const uint64_t budget_bytes_;

  mutable std::mutex mu_;
  std::condition_variable load_done_;
  std::vector<Frame> frames_;
  uint64_t tick_ = 0;
  BlockCacheCounters counters_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_OOC_BLOCK_CACHE_H_
