#include "ooc/ooc_backend.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/radix_sort.h"
#include "engine/walk_step.h"

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
    return {prev_targets + (offsets[v] - prev_base),
            static_cast<size_t>(offsets[v + 1] - offsets[v])};
  }
};

// The walker-block scheduler: one level-synchronous pass per step. The
// live frontier is counting-sorted by the block of each walker's node, so
// every bucket is a contiguous span that advances against one lease, and
// each touched block is leased once per level (node2vec sub-buckets a span
// by the previous hop's block and holds at most two leases).
template <typename Policy>
Status RunWalk(BlockCache& cache, const PagedSnapshot& snap, NodeId source,
               const WalkConfig& config, const Policy& policy,
               WalkStats* stats, std::vector<SparseVector>* levels,
               SparseVector* ppr_out) {
  const uint32_t r = config.num_walkers;
  const double inv_r = 1.0 / static_cast<double>(r);
  const uint32_t id_bits =
      KeyBits(snap.num_nodes() == 0 ? 0 : snap.num_nodes() - 1);
  const bool self_loop = config.dangling == DanglingPolicy::kSelfLoop;
  const std::span<const BlockExtent> blocks = snap.blocks();
  const uint32_t num_blocks = static_cast<uint32_t>(blocks.size());
  LeasedRows rows;
  rows.offsets = snap.in_offsets().data();

  std::vector<WalkerRec> recs(r);    // the live frontier
  std::vector<WalkerRec> sorted(r);  // the frontier, bucketed by block
  for (uint32_t w = 0; w < r; ++w) recs[w] = {w, source, kInvalidNode};
  size_t live = r;
  std::vector<NodeId> endpoints(Policy::kEmitsLevels ? r : 0);
  std::vector<NodeId> sort_buffer;
  std::vector<NodeId> terminals;
  if constexpr (Policy::kMayRetire) terminals.reserve(r);
  BufferSink<Policy::kEmitsLevels> sink;
  sink.endpoints = endpoints.data();
  sink.terminals = &terminals;

  std::vector<uint32_t> block_of(r);
  std::vector<uint32_t> bucket_start(num_blocks + 1);
  std::vector<uint32_t> cursor(num_blocks);
  // node2vec sub-bucketing scratch: (prev block + 1, index in the bucket),
  // 0 = no previous hop yet, and the bucket regrouped in that order.
  std::vector<std::pair<uint32_t, uint32_t>> by_prev;
  std::vector<WalkerRec> group;

  for (uint32_t t = 1; t <= config.num_steps && live > 0; ++t) {
    // One cancel poll per level, as in the kernel: a stopped walk returns
    // truncated and the caller discards it after observing the token.
    if (config.cancel != nullptr && config.cancel->ShouldStop()) break;

    std::fill(bucket_start.begin(), bucket_start.end(), 0u);
    for (size_t i = 0; i < live; ++i) {
      block_of[i] = FindBlock(blocks, recs[i].cur);
      ++bucket_start[block_of[i] + 1];
    }
    for (uint32_t b = 0; b < num_blocks; ++b) {
      bucket_start[b + 1] += bucket_start[b];
      cursor[b] = bucket_start[b];
    }
    for (size_t i = 0; i < live; ++i) sorted[cursor[block_of[i]]++] = recs[i];

    // Survivors compact back into `recs`, which the sort has consumed.
    sink.survivors = recs.data();
    sink.num_survivors = 0;
    sink.num_endpoints = 0;
    for (uint32_t b = 0; b < num_blocks; ++b) {
      const std::span<const WalkerRec> bucket(
          sorted.data() + bucket_start[b],
          bucket_start[b + 1] - bucket_start[b]);
      if (bucket.empty()) continue;
      CW_ASSIGN_OR_RETURN(BlockCache::Lease lease, cache.Acquire(b));
      rows.targets = lease.targets();
      rows.base = lease.base();
      if constexpr (!Policy::kSecondOrder) {
        AdvanceLevel(rows, policy, t, self_loop, bucket, config.batch_width,
                     sink);
      } else {
        // Sub-bucket by the previous hop's block so In(prev) resolves
        // against one extra lease per run (none for first-step walkers or
        // when prev lives in the current block).
        by_prev.clear();
        group.clear();
        for (uint32_t i = 0; i < bucket.size(); ++i) {
          const NodeId prev = bucket[i].prev;
          by_prev.emplace_back(
              prev == kInvalidNode ? 0 : FindBlock(blocks, prev) + 1, i);
        }
        std::sort(by_prev.begin(), by_prev.end());
        for (const auto& [key, i] : by_prev) group.push_back(bucket[i]);
        for (size_t g0 = 0; g0 < group.size();) {
          const uint32_t key = by_prev[g0].first;
          size_t g1 = g0;
          while (g1 < group.size() && by_prev[g1].first == key) ++g1;
          BlockCache::Lease prev_lease;
          rows.prev_targets = nullptr;
          rows.prev_base = 0;
          if (key == b + 1) {
            rows.prev_targets = lease.targets();
            rows.prev_base = lease.base();
          } else if (key != 0) {
            CW_ASSIGN_OR_RETURN(prev_lease, cache.Acquire(key - 1));
            rows.prev_targets = prev_lease.targets();
            rows.prev_base = prev_lease.base();
          }
          AdvanceLevel(rows, policy, t, self_loop,
                       std::span<const WalkerRec>(group.data() + g0, g1 - g0),
                       config.batch_width, sink);
          g0 = g1;
        }
      }
    }
    live = sink.num_survivors;
    if constexpr (Policy::kEmitsLevels) {
      (*levels)[t] = AggregateEndpointNodes(
          endpoints.data(), static_cast<uint32_t>(sink.num_endpoints),
          sort_buffer, inv_r, id_bits);
    }
  }

  if constexpr (Policy::kMayRetire) {
    // Walkers alive after the last level terminate where they stand.
    for (size_t i = 0; i < live; ++i) terminals.push_back(recs[i].cur);
    *ppr_out = AggregateEndpointNodes(terminals, inv_r, id_bits);
  }
  if (stats != nullptr) stats->steps += sink.steps;
  return Status::Ok();
}

}  // namespace

StatusOr<std::shared_ptr<const OutOfCoreWalkBackend>>
OutOfCoreWalkBackend::Create(std::shared_ptr<const PagedSnapshot> snapshot,
                             const OutOfCoreOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("out-of-core backend needs a snapshot");
  }
  // One walk can pin two blocks at once (second-order walks), so the
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

WalkDistributions OutOfCoreWalkBackend::SimRankLevels(
    NodeId source, const WalkConfig& config, WalkStats* stats) const {
  WalkDistributions out = SourceLevels(source, config.num_steps);
  const Status run =
      RunWalk(*cache_, *snapshot_, source, config,
              SimRankPolicy(config, source), stats, &out.levels, nullptr);
  if (!run.ok()) RecordError(run);
  return out;
}

SparseVector OutOfCoreWalkBackend::PprEndpoints(NodeId source,
                                                const WalkConfig& config,
                                                const PprParams& params,
                                                WalkStats* stats) const {
  SparseVector out;
  const Status run =
      RunWalk(*cache_, *snapshot_, source, config,
              PprPolicy(config, source, params), stats, nullptr, &out);
  if (!run.ok()) RecordError(run);
  return out;
}

WalkDistributions OutOfCoreWalkBackend::Node2VecLevels(
    NodeId source, const WalkConfig& config, const Node2VecParams& params,
    WalkStats* stats) const {
  // A reordered snapshot's in-rows are sorted by external id.
  const Node2VecPolicy policy(config, source, params,
                              snapshot_->permutation());
  WalkDistributions out = SourceLevels(source, config.num_steps);
  const Status run = RunWalk(*cache_, *snapshot_, source, config, policy,
                             stats, &out.levels, nullptr);
  if (!run.ok()) RecordError(run);
  return out;
}

Status OutOfCoreWalkBackend::TakeError() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  Status out = std::move(error_);
  error_ = Status::Ok();
  return out;
}

void OutOfCoreWalkBackend::RecordError(const Status& status) const {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_.ok()) error_ = status;
}

}  // namespace cloudwalker
