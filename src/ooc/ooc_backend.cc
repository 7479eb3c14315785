#include "ooc/ooc_backend.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "engine/walk_driver.h"

namespace cloudwalker {
namespace {

// Row source over pinned block leases (engine/walk_step.h defines the
// concept): rows locate through the resident in-CSR offsets (global edge
// indices), and targets rebase into the block-local lease arrays, picking
// exactly the in-target the in-memory kernel picks.
struct LeasedRows {
  const uint64_t* offsets = nullptr;  // resident in-CSR offsets (global)
  const NodeId* targets = nullptr;    // current block's in_targets slice
  uint64_t base = 0;                  // global edge index of targets[0]
  const NodeId* prev_targets = nullptr;  // previous hop's block (2nd order)
  uint64_t prev_base = 0;

  void Prefetch(NodeId v) const { PrefetchRead(offsets + v); }
  RowLocation Locate(NodeId v) const {
    return {offsets[v], static_cast<uint32_t>(offsets[v + 1] - offsets[v])};
  }
  void PrefetchEdge(uint64_t edge) const {
    PrefetchRead(targets + (edge - base));
  }
  NodeId Target(uint64_t edge) const { return targets[edge - base]; }
  std::span<const NodeId> InRow(NodeId v) const {
    CW_DCHECK(prev_targets != nullptr) << "In(prev) read without its lease";
    return {prev_targets + (offsets[v] - prev_base),
            static_cast<size_t>(offsets[v + 1] - offsets[v])};
  }
};

// The walker-block scheduler, as a level-loop executor (engine/
// walk_driver.h): one part per block. The loop counting-sorts the live
// frontier by the block of each walker's node, so every bucket is a
// contiguous span that advances against one lease, and each touched block
// is leased once per level (node2vec, when a trial can read In(prev),
// sub-buckets a span by the previous hop's block and holds at most two
// leases). Per-job state.
class BlockLevels {
 public:
  BlockLevels(BlockCache& cache, const PagedSnapshot& snap)
      : cache_(&cache),
        blocks_(snap.blocks()),
        offsets_(snap.in_offsets().data()),
        num_nodes_(snap.num_nodes()) {}

  NodeId num_nodes() const { return num_nodes_; }
  uint32_t num_parts() const { return static_cast<uint32_t>(blocks_.size()); }
  uint32_t PartOf(NodeId v) const { return FindBlock(blocks_, v); }

  template <typename Policy>
  Status Advance(const Policy& policy, const WalkConfig& config, uint32_t t,
                 const LevelFrontier& frontier,
                 BufferSink<Policy::kEmitsLevels>& sink) const {
    const bool self_loop = config.dangling == DanglingPolicy::kSelfLoop;
    LeasedRows rows;
    rows.offsets = offsets_;
    for (uint32_t b = 0; b < num_parts(); ++b) {
      const std::span<const WalkerRec> bucket = frontier.Part(b);
      if (bucket.empty()) continue;
      CW_ASSIGN_OR_RETURN(BlockCache::Lease lease, cache_->Acquire(b));
      rows.targets = lease.targets();
      rows.base = lease.base();
      bool by_prev = false;
      if constexpr (Policy::kSecondOrder) by_prev = policy.ReadsPrevRow();
      if (!by_prev) {
        AdvanceLevel(rows, policy, t, self_loop, bucket, config.batch_width,
                     sink);
      } else {
        // Sub-bucket by the previous hop's block so In(prev) resolves
        // against one extra lease per run (none for first-step walkers or
        // when prev lives in the current block).
        by_prev_.clear();
        group_.clear();
        for (uint32_t i = 0; i < bucket.size(); ++i) {
          const NodeId prev = bucket[i].prev;
          by_prev_.emplace_back(
              prev == kInvalidNode ? 0 : FindBlock(blocks_, prev) + 1, i);
        }
        std::sort(by_prev_.begin(), by_prev_.end());
        for (const auto& [key, i] : by_prev_) group_.push_back(bucket[i]);
        for (size_t g0 = 0; g0 < group_.size();) {
          const uint32_t key = by_prev_[g0].first;
          size_t g1 = g0;
          while (g1 < group_.size() && by_prev_[g1].first == key) ++g1;
          BlockCache::Lease prev_lease;
          rows.prev_targets = nullptr;
          rows.prev_base = 0;
          if (key == b + 1) {
            rows.prev_targets = lease.targets();
            rows.prev_base = lease.base();
          } else if (key != 0) {
            CW_ASSIGN_OR_RETURN(prev_lease, cache_->Acquire(key - 1));
            rows.prev_targets = prev_lease.targets();
            rows.prev_base = prev_lease.base();
          }
          AdvanceLevel(
              rows, policy, t, self_loop,
              std::span<const WalkerRec>(group_.data() + g0, g1 - g0),
              config.batch_width, sink);
          g0 = g1;
        }
      }
    }
    return Status::Ok();
  }

 private:
  BlockCache* cache_;
  std::span<const BlockExtent> blocks_;
  const uint64_t* offsets_;  // resident in-CSR offsets (global)
  NodeId num_nodes_;
  // node2vec sub-bucketing scratch: (prev block + 1, index in the bucket),
  // 0 = no previous hop yet, and the bucket regrouped in that order.
  mutable std::vector<std::pair<uint32_t, uint32_t>> by_prev_;
  mutable std::vector<WalkerRec> group_;
};

}  // namespace

StatusOr<std::shared_ptr<const OutOfCoreWalkBackend>>
OutOfCoreWalkBackend::Create(std::shared_ptr<const PagedSnapshot> snapshot,
                             const OutOfCoreOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("out-of-core backend needs a snapshot");
  }
  // One walk can pin two blocks at once (node2vec with q != 1), so the
  // budget must admit two of the largest block — otherwise the cache would
  // have to overflow-admit on every level.
  const uint64_t min_budget = 2 * snapshot->max_block_bytes();
  if (!snapshot->all_resident() && options.budget_bytes < min_budget) {
    return Status::InvalidArgument(
        "out-of-core budget " + std::to_string(options.budget_bytes) +
        " bytes is below the minimum " + std::to_string(min_budget) +
        " (two blocks) for this snapshot");
  }
  CW_ASSIGN_OR_RETURN(
      std::unique_ptr<BlockCache> cache,
      BlockCache::Create(snapshot, options.budget_bytes));
  return std::shared_ptr<const OutOfCoreWalkBackend>(
      new OutOfCoreWalkBackend(std::move(snapshot), std::move(cache)));
}

template <typename Policy>
Status OutOfCoreWalkBackend::Walk(NodeId source, const WalkConfig& config,
                                  const Policy& policy, WalkStats* stats,
                                  const WalkOutput& out) const {
  return LevelLoop::Run(BlockLevels(*cache_, *snapshot_), source, config,
                        policy, 0, config.num_walkers, /*scratch=*/nullptr,
                        stats, out);
}

template Status OutOfCoreWalkBackend::Walk(NodeId, const WalkConfig&,
                                           const SimRankPolicy&, WalkStats*,
                                           const WalkOutput&) const;
template Status OutOfCoreWalkBackend::Walk(NodeId, const WalkConfig&,
                                           const PprPolicy&, WalkStats*,
                                           const WalkOutput&) const;
template Status OutOfCoreWalkBackend::Walk(NodeId, const WalkConfig&,
                                           const Node2VecPolicy&, WalkStats*,
                                           const WalkOutput&) const;

}  // namespace cloudwalker
