// The walk's level loop, written once (DESIGN.md section 10.1).
//
// Every executor runs the same loop: seed a contiguous range of global
// walker ids at the source, then per level poll the cancel token once,
// bucket the live frontier by the executor's parts, let the executor
// advance every bucket one step, and aggregate the level's endpoints;
// walkers still alive after the last level of a retiring program (PPR)
// terminate where they stand. An executor keeps only what differs between
// backends — its part map and its Advance:
//
//   NodeId num_nodes() const;
//   uint32_t num_parts() const;       // 1: the frontier is not bucketed
//   uint32_t PartOf(NodeId v) const;  // the part holding v's row
//   template <typename Policy>
//   Status Advance(const Policy& policy, const WalkConfig& config,
//                  uint32_t t, const LevelFrontier& frontier,
//                  BufferSink<Policy::kEmitsLevels>& sink) const;
//
// Advance moves every walker of `frontier` one step — through
// AdvanceLevel (engine/walk_step.h) against whatever rows the part holds:
// the in-CSR, a shard slice, a worker's snapshot, a block lease — and
// reports each outcome into `sink`, whose buffers hold a slot per frontier
// walker. An error (a lost worker, a failed block read) aborts the walk
// with the remaining levels empty; the caller discards it.
//
// Parts are pure scheduling: every draw is keyed on the global walker id
// and endpoints aggregate through an order-independent sort, so a walk's
// output is bit-identical for every part map.

#ifndef CLOUDWALKER_ENGINE_WALK_DRIVER_H_
#define CLOUDWALKER_ENGINE_WALK_DRIVER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/sparse.h"
#include "common/status.h"
#include "engine/walk.h"
#include "engine/walk_program.h"
#include "engine/walk_step.h"
#include "graph/graph.h"

namespace cloudwalker {

/// Bits needed to represent every node id of a `num_nodes`-node graph
/// (the radix digits of the endpoint aggregation).
inline uint32_t NodeIdBits(NodeId num_nodes) {
  return KeyBits(num_nodes == 0 ? 0 : num_nodes - 1);
}

/// Where a walk's output goes. A level policy fills exactly one of
/// `levels` (aggregated levels 1..T, sized by the caller) and `raw_levels`
/// (level t's unsorted endpoint multiset at index t - 1, T entries sized
/// by the caller, for a cross-range merge or the indexer's one sort per
/// row); a retiring policy appends its terminals, survivors included, to
/// `terminals`.
struct WalkOutput {
  std::vector<SparseVector>* levels = nullptr;
  std::vector<std::vector<NodeId>>* raw_levels = nullptr;
  std::vector<NodeId>* terminals = nullptr;
};

/// One level's live walkers, bucketed by part: part p's walkers are
/// walkers[Offset(p), Offset(p + 1)). A one-part executor's frontier is not
/// bucketed — `start` is empty and its one part is every walker.
struct LevelFrontier {
  std::span<const WalkerRec> walkers;
  std::span<const uint32_t> start;  // num_parts + 1 offsets, or empty

  size_t Offset(uint32_t part) const {
    if (start.empty()) return part == 0 ? 0 : walkers.size();
    return start[part];
  }
  std::span<const WalkerRec> Part(uint32_t part) const {
    const size_t begin = Offset(part);
    return walkers.subspan(begin, Offset(part + 1) - begin);
  }
};

/// The loop (friend of WalkScratch). Results depend only on (graph,
/// source, config, policy, walker ids).
struct LevelLoop {
  /// Runs walkers [first, first + count) of `policy`'s walk from `source`
  /// on `exec`, level by level, compacting the survivors after each level.
  /// Level values are multiplicity / config.num_walkers, so a walker
  /// range's raw levels merge with its siblings' into the full run's.
  /// `scratch` (optional) is reused; `stats` (optional) accumulates.
  template <typename Executor, typename Policy>
  static Status Run(const Executor& exec, NodeId source,
                    const WalkConfig& config, const Policy& policy,
                    uint32_t first, uint32_t count, WalkScratch* scratch,
                    WalkStats* stats, const WalkOutput& out) {
    const NodeId num_nodes = exec.num_nodes();
    CW_CHECK_LT(source, num_nodes);
    CW_CHECK_GT(config.num_walkers, 0u);
    const double inv_r = 1.0 / static_cast<double>(config.num_walkers);
    const uint32_t id_bits = NodeIdBits(num_nodes);
    const uint32_t num_parts = exec.num_parts();

    WalkScratch local(scratch == nullptr ? count : 0);
    WalkScratch& s = scratch != nullptr ? *scratch : local;
    s.walkers_.resize(count);
    s.survivors_.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      s.walkers_[i] = WalkerRec{first + i, source, kInvalidNode};
    }
    if constexpr (Policy::kEmitsLevels) s.endpoints_.resize(count);
    if (num_parts > 1) {
      s.part_of_.resize(count);
      s.bucket_start_.resize(num_parts + 1);
      s.cursor_.resize(num_parts);
    }

    BufferSink<Policy::kEmitsLevels> sink;
    sink.endpoints = s.endpoints_.data();
    size_t first_terminal = 0;
    if constexpr (Policy::kMayRetire) {
      first_terminal = out.terminals->size();
      out.terminals->resize(first_terminal + count);
      sink.terminals = out.terminals->data() + first_terminal;
    }
    Status status;
    size_t live = count;
    for (uint32_t t = 1; t <= config.num_steps && live > 0; ++t) {
      // Cooperative stop: one poll per level (the clock read is too costly
      // per block). A stopped run is abandoned by the caller wholesale, so
      // leaving the remaining levels empty is safe.
      if (config.cancel != nullptr && config.cancel->ShouldStop()) break;
      LevelFrontier frontier{{s.walkers_.data(), live}, {}};
      sink.survivors = s.survivors_.data();
      if (num_parts > 1) {
        // The bucketed copy lands in survivors_, so the survivors compact
        // back into walkers_, which the bucketing has consumed.
        Bucket(exec, s, live, num_parts);
        frontier = {{s.survivors_.data(), live}, s.bucket_start_};
        sink.survivors = s.walkers_.data();
      }
      sink.num_survivors = 0;
      sink.num_endpoints = 0;
      status = exec.Advance(policy, config, t, frontier, sink);
      if (!status.ok()) {
        live = 0;
        break;
      }
      if (num_parts == 1) std::swap(s.walkers_, s.survivors_);
      live = sink.num_survivors;
      if constexpr (Policy::kEmitsLevels) {
        NodeId* const endpoints = s.endpoints_.data();
        const uint32_t n = static_cast<uint32_t>(sink.num_endpoints);
        if (out.raw_levels != nullptr) {
          (*out.raw_levels)[t - 1].assign(endpoints, endpoints + n);
        } else {
          (*out.levels)[t] = AggregateEndpointNodes(
              endpoints, n, s.sort_buffer_, inv_r, id_bits);
        }
      }
    }
    if constexpr (Policy::kMayRetire) {
      // Walkers alive after the last level terminate where they stand.
      for (size_t i = 0; i < live; ++i) {
        sink.terminals[sink.num_terminals++] = s.walkers_[i].cur;
      }
      out.terminals->resize(first_terminal + sink.num_terminals);
    }
    if (stats != nullptr) {
      stats->steps += sink.steps;
      stats->partition_crossings += sink.crossings;
    }
    return status;
  }

 private:
  // Counting-sorts walkers_[0, live) by part into survivors_, leaving part
  // p's bucket at bucket_start_[p].
  template <typename Executor>
  static void Bucket(const Executor& exec, WalkScratch& s, size_t live,
                     uint32_t num_parts) {
    const WalkerRec* const walkers = s.walkers_.data();
    uint32_t* const part_of = s.part_of_.data();
    uint32_t* const start = s.bucket_start_.data();
    uint32_t* const cursor = s.cursor_.data();
    std::fill(start, start + num_parts + 1, 0u);
    for (size_t i = 0; i < live; ++i) {
      part_of[i] = exec.PartOf(walkers[i].cur);
      ++start[part_of[i] + 1];
    }
    for (uint32_t p = 0; p < num_parts; ++p) {
      start[p + 1] += start[p];
      cursor[p] = start[p];
    }
    WalkerRec* const bucketed = s.survivors_.data();
    for (size_t i = 0; i < live; ++i) {
      bucketed[cursor[part_of[i]]++] = walkers[i];
    }
  }
};

/// The one-part executor over a resident in-CSR: the single-node backend,
/// each range of the parallel executor, the indexer, and a socket worker
/// over its mapped snapshot. `owner` (optional) enables
/// partition-crossing accounting.
struct CsrLevels {
  CsrRows rows;
  NodeId nodes = 0;
  const NodeOwnerFn* owner = nullptr;

  static CsrLevels In(const Graph& graph, const NodeOwnerFn* owner = nullptr) {
    return {CsrRows::In(graph), graph.num_nodes(), owner};
  }

  NodeId num_nodes() const { return nodes; }
  static constexpr uint32_t num_parts() { return 1; }
  static constexpr uint32_t PartOf(NodeId /*v*/) { return 0; }

  template <typename Policy>
  Status Advance(const Policy& policy, const WalkConfig& config, uint32_t t,
                 const LevelFrontier& frontier,
                 BufferSink<Policy::kEmitsLevels>& sink) const {
    sink.owner = owner;
    AdvanceLevel(rows, policy, t, config.dangling == DanglingPolicy::kSelfLoop,
                 frontier.walkers, config.batch_width, sink);
    return Status::Ok();
  }
};

// --- Walker ranges ------------------------------------------------------
//
// The parallel executor (threads) and the remote backend (socket workers)
// both split a walk's walker ids into contiguous ranges, run the level
// loop once per range wherever the range lives, and merge. The merge
// concatenates the ranges' raw endpoint lists per level and aggregates
// once with the sort-and-RLE pass, so the result is the single-range
// walk's bit for bit (DESIGN.md section 12.1).

/// A contiguous walker-id range [begin, end): one level-loop run.
struct WalkerRange {
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t size() const { return end - begin; }
};

/// Splits walker ids [0, num_walkers) into min(num_ranges, num_walkers)
/// contiguous ranges (at least one) whose sizes differ by at most one,
/// the larger ones first. The split is pure scheduling: every draw keys
/// on the global walker id.
inline std::vector<WalkerRange> SplitWalkerRanges(uint32_t num_walkers,
                                                  uint32_t num_ranges) {
  const uint32_t n = std::max(1u, std::min(num_ranges, num_walkers));
  std::vector<WalkerRange> ranges(n);
  const uint32_t base = num_walkers / n;
  const uint32_t rem = num_walkers % n;
  uint32_t begin = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t size = base + (i < rem ? 1 : 0);
    ranges[i] = WalkerRange{begin, begin + size};
    begin += size;
  }
  return ranges;
}

/// One walker range's unmerged output: level t's raw endpoints at
/// levels[t - 1] (level programs) or the terminals (retiring programs),
/// plus the range's counters. Cache-line aligned so an array of them,
/// one per thread, never false-shares.
struct alignas(kCacheLineBytes) RangeWalk {
  std::vector<std::vector<NodeId>> levels;
  std::vector<NodeId> terminals;
  WalkStats stats;

  /// Clears the range for a `num_steps`-level walk of `Policy` (keeping
  /// capacity) and returns the level-loop output that fills it.
  template <typename Policy>
  WalkOutput Reset(uint32_t num_steps) {
    for (std::vector<NodeId>& level : levels) level.clear();
    levels.resize(Policy::kEmitsLevels ? num_steps : 0);
    terminals.clear();
    stats = WalkStats();
    WalkOutput out{.terminals = &terminals};
    if constexpr (Policy::kEmitsLevels) out.raw_levels = &levels;
    return out;
  }
};
static_assert(alignof(RangeWalk) >= kCacheLineBytes);

/// Merges the ranges of one walk into `out` — for each level, the
/// ranges' endpoints concatenated and aggregated once; a retiring
/// program's terminals appended — and adds their counters to `stats`
/// (optional). `id_bits` is NodeIdBits of the graph.
template <typename Policy>
void MergeRangeWalks(std::span<const RangeWalk> ranges,
                     const WalkConfig& config, uint32_t id_bits,
                     WalkStats* stats, const WalkOutput& out) {
  if constexpr (Policy::kEmitsLevels) {
    const double inv_r = 1.0 / static_cast<double>(config.num_walkers);
    std::vector<NodeId> merged;
    merged.reserve(config.num_walkers);
    for (uint32_t t = 1; t <= config.num_steps; ++t) {
      merged.clear();
      for (const RangeWalk& range : ranges) {
        const std::vector<NodeId>& level = range.levels[t - 1];
        merged.insert(merged.end(), level.begin(), level.end());
      }
      (*out.levels)[t] = AggregateEndpointNodes(merged, inv_r, id_bits);
    }
  } else {
    for (const RangeWalk& range : ranges) {
      out.terminals->insert(out.terminals->end(), range.terminals.begin(),
                            range.terminals.end());
    }
  }
  if (stats != nullptr) {
    for (const RangeWalk& range : ranges) {
      stats->steps += range.stats.steps;
      stats->partition_crossings += range.stats.partition_crossings;
    }
  }
}

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_WALK_DRIVER_H_
