#include "ooc/ooc_backend.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/radix_sort.h"
#include "shard/walk_policies.h"

namespace cloudwalker {
namespace {

// The Rows concept of shard/walk_policies.h over pinned block leases:
// Locate answers from the resident in-CSR offsets (global edge indices);
// Pick and InRow rebase into the block-local lease arrays, picking exactly
// the in-target the in-memory kernel picks.
struct LeasedRows {
  const uint64_t* offsets = nullptr;  // resident in-CSR offsets (global)
  const NodeId* targets = nullptr;    // current block's in_targets slice
  uint64_t base = 0;                  // global edge index of targets[0]
  const NodeId* prev_targets = nullptr;  // previous hop's block (2nd order)
  uint64_t prev_base = 0;

  RowLocation Locate(NodeId v) const {
    return {offsets[v], static_cast<uint32_t>(offsets[v + 1] - offsets[v])};
  }
  NodeId Pick(const RowLocation& loc, uint64_t raw) const {
    return targets[loc.offset + PickSlot(raw, loc.degree) - base];
  }
  std::span<const NodeId> InRow(NodeId v, uint64_t* /*remote_rows*/) const {
    return {prev_targets + (offsets[v] - prev_base),
            static_cast<size_t>(offsets[v + 1] - offsets[v])};
  }
};

// The node the per-source RNG key derives from — the external id on a
// reordered snapshot (WalkConfig::rng_node), the source itself otherwise.
// Policies key on their `source` argument, so the override is applied
// here, once, instead of inside each policy.
NodeId KeyNode(const WalkConfig& config, NodeId source) {
  return config.rng_node != kInvalidNode ? config.rng_node : source;
}

// Drains one walker bucket against `rows`, applying the bookkeeping the
// AdvanceWalker outcome contract assigns to the caller. Appends endpoints
// (kEmitsLevels) / terminals (kMayRetire) and updates steps and the alive
// count in place.
template <typename Policy>
void DrainBucket(const Policy& policy, const LeasedRows& rows, uint32_t t,
                 bool self_loop, std::span<const uint32_t> walkers,
                 std::vector<WalkerRec>& recs, std::vector<NodeId>& endpoints,
                 std::vector<NodeId>& terminals, uint64_t& steps,
                 uint32_t& alive) {
  uint64_t remote_rows = 0;
  for (const uint32_t w : walkers) {
    WalkerRec& rec = recs[w];
    switch (AdvanceWalker(rows, policy, t, self_loop, rec, &remote_rows)) {
      case WalkerStepOutcome::kAdvanced:
        ++steps;
        if constexpr (Policy::kEmitsLevels) endpoints.push_back(rec.cur);
        break;
      case WalkerStepOutcome::kRetired:
        if constexpr (Policy::kMayRetire) terminals.push_back(rec.cur);
        rec.cur = kInvalidNode;
        --alive;
        break;
      case WalkerStepOutcome::kDied:
        ++steps;
        rec.cur = kInvalidNode;
        --alive;
        break;
    }
  }
}

// The walker-block scheduler: one level-synchronous pass per step,
// bucketing the live frontier by destination block so each touched block
// is leased exactly once per level (twice never — second-order sub-buckets
// share the current lease when the previous hop lands in the same block).
template <typename Policy>
Status RunWalk(BlockCache& cache, const PagedSnapshot& snap, NodeId source,
               const WalkConfig& config, const Policy& policy,
               WalkStats* stats, WalkDistributions* levels_out,
               SparseVector* ppr_out) {
  const uint32_t r = config.num_walkers;
  const double inv_r = 1.0 / static_cast<double>(r);
  const uint32_t id_bits =
      KeyBits(snap.num_nodes() == 0 ? 0 : snap.num_nodes() - 1);
  const bool self_loop = config.dangling == DanglingPolicy::kSelfLoop;
  const std::span<const BlockExtent> blocks = snap.blocks();
  const uint64_t* const offsets = snap.in_offsets().data();
  const uint32_t num_blocks = static_cast<uint32_t>(blocks.size());

  if (levels_out != nullptr) {
    levels_out->levels.assign(config.num_steps + 1, SparseVector());
    // Level 0 is exactly e_source, as in the kernel.
    levels_out->levels[0] =
        SparseVector::FromSorted({SparseEntry{source, 1.0}});
  }

  std::vector<WalkerRec> recs(r);
  for (uint32_t w = 0; w < r; ++w) recs[w] = {w, source, kInvalidNode};
  uint32_t alive = r;
  uint64_t steps = 0;

  std::vector<NodeId> endpoints;
  std::vector<NodeId> terminals;
  if constexpr (Policy::kEmitsLevels) endpoints.reserve(r);
  if constexpr (Policy::kMayRetire) terminals.reserve(r);

  // Counting-sort scratch for the per-level frontier bucketing.
  std::vector<uint32_t> block_of(r);
  std::vector<uint32_t> bucket_start(num_blocks + 1);
  std::vector<uint32_t> cursor(num_blocks);
  std::vector<uint32_t> order(r);
  // Second-order sub-bucketing scratch: (prev block + 1, walker), 0 = no
  // previous hop yet.
  std::vector<std::pair<uint32_t, uint32_t>> by_prev;

  for (uint32_t t = 1; t <= config.num_steps && alive > 0; ++t) {
    // One cancel poll per level, as in the kernel: a stopped walk returns
    // truncated and the caller discards it after observing the token.
    if (config.cancel != nullptr && config.cancel->ShouldStop()) break;

    std::fill(bucket_start.begin(), bucket_start.end(), 0u);
    for (uint32_t w = 0; w < r; ++w) {
      if (recs[w].cur == kInvalidNode) continue;
      block_of[w] = FindBlock(blocks, recs[w].cur);
      ++bucket_start[block_of[w] + 1];
    }
    for (uint32_t b = 0; b < num_blocks; ++b) {
      bucket_start[b + 1] += bucket_start[b];
      cursor[b] = bucket_start[b];
    }
    for (uint32_t w = 0; w < r; ++w) {
      if (recs[w].cur == kInvalidNode) continue;
      order[cursor[block_of[w]]++] = w;
    }

    if constexpr (Policy::kEmitsLevels) endpoints.clear();
    for (uint32_t b = 0; b < num_blocks; ++b) {
      const uint32_t begin = bucket_start[b], end = bucket_start[b + 1];
      if (begin == end) continue;
      CW_ASSIGN_OR_RETURN(BlockCache::Lease lease, cache.Acquire(b));
      LeasedRows rows;
      rows.offsets = offsets;
      rows.targets = lease.targets();
      rows.base = lease.base();
      if constexpr (!Policy::kSecondOrder) {
        DrainBucket(policy, rows, t, self_loop,
                    std::span<const uint32_t>(order.data() + begin,
                                              end - begin),
                    recs, endpoints, terminals, steps, alive);
      } else {
        // Sub-bucket by the previous hop's block so In(prev) resolves
        // against one extra lease per run (none for first-step walkers or
        // when prev lives in the current block).
        by_prev.clear();
        for (uint32_t i = begin; i < end; ++i) {
          const uint32_t w = order[i];
          const uint32_t key = recs[w].prev == kInvalidNode
                                   ? 0
                                   : FindBlock(blocks, recs[w].prev) + 1;
          by_prev.emplace_back(key, w);
        }
        std::sort(by_prev.begin(), by_prev.end());
        std::vector<uint32_t> group;
        for (size_t i = 0; i < by_prev.size();) {
          const uint32_t key = by_prev[i].first;
          group.clear();
          for (; i < by_prev.size() && by_prev[i].first == key; ++i) {
            group.push_back(by_prev[i].second);
          }
          BlockCache::Lease prev_lease;
          rows.prev_targets = nullptr;
          rows.prev_base = 0;
          if (key != 0) {
            const uint32_t pb = key - 1;
            if (pb == b) {
              rows.prev_targets = lease.targets();
              rows.prev_base = lease.base();
            } else {
              CW_ASSIGN_OR_RETURN(prev_lease, cache.Acquire(pb));
              rows.prev_targets = prev_lease.targets();
              rows.prev_base = prev_lease.base();
            }
          }
          DrainBucket(policy, rows, t, self_loop,
                      std::span<const uint32_t>(group.data(), group.size()),
                      recs, endpoints, terminals, steps, alive);
        }
      }
    }
    if constexpr (Policy::kEmitsLevels) {
      levels_out->levels[t] =
          AggregateEndpointNodes(endpoints, inv_r, id_bits);
    }
  }

  if constexpr (Policy::kMayRetire) {
    // The kernel's Finish: surviving walkers terminate where truncation
    // left them.
    for (uint32_t w = 0; w < r; ++w) {
      if (recs[w].cur != kInvalidNode) terminals.push_back(recs[w].cur);
    }
    *ppr_out = AggregateEndpointNodes(terminals, inv_r, id_bits);
  }
  if (stats != nullptr) stats->steps += steps;
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
  SimRankWalkPolicy policy;
  policy.Configure(config.seed, KeyNode(config, source));
  WalkDistributions out;
  const Status run = RunWalk(*cache_, *snapshot_, source, config, policy,
                             stats, &out, nullptr);
  if (!run.ok()) RecordError(run);
  return out;
}

SparseVector OutOfCoreWalkBackend::PprEndpoints(NodeId source,
                                                const WalkConfig& config,
                                                const PprParams& params,
                                                WalkStats* stats) const {
  PprWalkPolicy policy;
  policy.Configure(config.seed, KeyNode(config, source), params);
  SparseVector out;
  const Status run = RunWalk(*cache_, *snapshot_, source, config, policy,
                             stats, nullptr, &out);
  if (!run.ok()) RecordError(run);
  return out;
}

WalkDistributions OutOfCoreWalkBackend::Node2VecLevels(
    NodeId source, const WalkConfig& config, const Node2VecParams& params,
    WalkStats* stats) const {
  Node2VecWalkPolicy policy;
  policy.Configure(config.seed, KeyNode(config, source), params);
  // A reordered snapshot's in-rows are sorted by external id.
  policy.external_ids = snapshot_->permutation();
  WalkDistributions out;
  const Status run = RunWalk(*cache_, *snapshot_, source, config, policy,
                             stats, &out, nullptr);
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
