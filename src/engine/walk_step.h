// The walker step every executor shares (DESIGN.md section 10.1): the
// three walk programs as policies, each defined once, and AdvanceLevel,
// which moves a span of walker records one in-link step over any row
// source. The single-node and parallel executors advance against the
// resident in-CSR, the sharded engine against a shard slice, the socket
// worker against its mapped snapshot and the out-of-core scheduler against
// a pinned block lease; each keeps only its routing, in a sink. The level
// loop around the step is engine/walk_driver.h.
//
// RNG keying contract: every draw is a pure function of
// (seed, KeyNode(external_ids, source), global walker id, step[, trial]),
// where `external_ids` is the permutation of a locality-reordered snapshot
// (empty otherwise) that each executor reads from its own copy of the
// artifact. The canonical move stream is
// CounterRandom(DeriveSeed(seed, key_node), walker << 32 | step); any
// further randomness comes from a channel
// DeriveSeed(DeriveSeed(seed, key_node), tag), so no two programs, and no
// two draw purposes within one step, share a stream. Walker ids are
// global (a walker range or a shard batch carries them in its records),
// so results are bit-identical across batch widths, thread counts,
// shards, workers, block schedules and node numberings.
//
// Row source concept (first order uses the first four, node2vec also
// InRow):
//   void Prefetch(NodeId v) const;          // the row's offset entry
//   RowLocation Locate(NodeId v) const;     // flat offset + degree
//   void PrefetchEdge(uint64_t edge) const; // the in-target `edge` names
//   NodeId Target(uint64_t edge) const;     // in_targets[edge]
//   std::span<const NodeId> InRow(NodeId v) const;  // In(v), any node
//
// Sink concept (the executor's routing):
//   void Step();                                 // one step taken
//   void Moved(const WalkerRec& rec, NodeId from);  // rec moved (or parked)
//   void Retired(NodeId v);                      // PPR terminal at v
// A walker that dies at a dangling node under kDie gets Step() alone.

#ifndef CLOUDWALKER_ENGINE_WALK_STEP_H_
#define CLOUDWALKER_ENGINE_WALK_STEP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "engine/walk.h"
#include "engine/walk_program.h"
#include "graph/graph.h"

namespace cloudwalker {

/// The node the per-source RNG key derives from: the source's external id
/// on a locality-reordered snapshot (`external_ids`, internal id ->
/// external id), the source itself when `external_ids` is empty. Keying on
/// the external id makes every draw — and so every walk, after id
/// translation — identical to the unreordered artifact's.
inline NodeId KeyNode(std::span<const NodeId> external_ids, NodeId source) {
  return external_ids.empty() ? source : external_ids[source];
}

/// The counter of walker `w`'s draw at step `t`.
inline uint64_t WalkerStepCounter(uint32_t w, uint32_t t) {
  return (static_cast<uint64_t>(w) << 32) | t;
}

/// A located in-row: the flat offset of its first in-edge in the row
/// source, and its degree.
struct RowLocation {
  uint64_t offset = 0;
  uint32_t degree = 0;
};

/// The in-target a uniform reverse step takes from `loc` on draw `raw`.
template <typename Rows>
inline NodeId PickTarget(const Rows& rows, const RowLocation& loc,
                         uint64_t raw) {
  return rows.Target(loc.offset + PickSlot(raw, loc.degree));
}

/// Row source over a resident in-CSR (a Graph's, or a mapped snapshot's).
struct CsrRows {
  const uint64_t* offsets = nullptr;
  const NodeId* targets = nullptr;

  static CsrRows In(const Graph& graph) {
    return {graph.InOffsets().data(), graph.InTargets().data()};
  }

  void Prefetch(NodeId v) const { PrefetchRead(offsets + v); }
  RowLocation Locate(NodeId v) const {
    const uint64_t row = offsets[v];
    return {row, static_cast<uint32_t>(offsets[v + 1] - row)};
  }
  void PrefetchEdge(uint64_t edge) const { PrefetchRead(targets + edge); }
  NodeId Target(uint64_t edge) const { return targets[edge]; }
  std::span<const NodeId> InRow(NodeId v) const {
    return {targets + offsets[v],
            static_cast<size_t>(offsets[v + 1] - offsets[v])};
  }
};

/// SimRank's reverse uniform walk: an endpoint per level.
struct SimRankPolicy {
  static constexpr bool kMayRetire = false;
  static constexpr bool kSecondOrder = false;
  static constexpr bool kEmitsLevels = true;

  uint64_t key = 0;  // the canonical move stream

  SimRankPolicy(const WalkConfig& config, NodeId source,
                std::span<const NodeId> external_ids = {})
      : key(DeriveSeed(config.seed, KeyNode(external_ids, source))) {}

  uint64_t Draw(uint32_t w, uint32_t t) const {
    return CounterRandom(key, WalkerStepCounter(w, t));
  }
};

/// Personalized PageRank: before each move an independent stop coin
/// retires the walker with probability 1 - alpha, making its current node
/// a terminal; walkers alive after the last level terminate where they
/// stand (the caller's epilogue).
struct PprPolicy {
  static constexpr bool kMayRetire = true;
  static constexpr bool kSecondOrder = false;
  static constexpr bool kEmitsLevels = false;

  uint64_t key = 0;
  uint64_t stop_key = 0;  // DeriveSeed(key, kPprStopChannel)
  double alpha = 0.85;

  PprPolicy(const WalkConfig& config, NodeId source, const PprParams& params,
            std::span<const NodeId> external_ids = {})
      : key(DeriveSeed(config.seed, KeyNode(external_ids, source))),
        stop_key(DeriveSeed(key, kPprStopChannel)),
        alpha(params.alpha) {
    CW_CHECK_GT(params.alpha, 0.0);
    CW_CHECK_LT(params.alpha, 1.0);
  }

  uint64_t Draw(uint32_t w, uint32_t t) const {
    return CounterRandom(key, WalkerStepCounter(w, t));
  }
  bool Retire(uint32_t w, uint32_t t) const {
    return DrawToUnit(CounterRandom(stop_key, WalkerStepCounter(w, t))) >=
           alpha;
  }
};

/// Second-order node2vec walks: the move from `cur` given `prev` is
/// sampled by rejection against the uniform in-row pick, accepting a
/// candidate with probability w(candidate) / w_max. Trial draws are
/// CounterRandom(DeriveSeed(trial_base, walker << 32 | step), trial).
struct Node2VecPolicy {
  static constexpr bool kMayRetire = false;
  static constexpr bool kSecondOrder = true;
  static constexpr bool kEmitsLevels = true;

  uint64_t key = 0;
  uint64_t trial_base = 0;  // DeriveSeed(key, kNode2VecTrialChannel)
  uint64_t thr_return = 0;  // candidate == prev        (weight 1/p)
  uint64_t thr_near = 0;    // candidate in In(prev)    (weight 1)
  uint64_t thr_far = 0;     // otherwise                (weight 1/q)
  Node2VecParams params;    // p, q and the trial cap, as given
  // The permutation of a reordered snapshot (internal -> external id),
  // which keys the draws and sorts the in-rows; empty when the rows are
  // sorted by id.
  std::span<const NodeId> external_ids;

  Node2VecPolicy(const WalkConfig& config, NodeId source,
                 const Node2VecParams& params_in,
                 std::span<const NodeId> external_ids_or_empty = {})
      : key(DeriveSeed(config.seed,
                       KeyNode(external_ids_or_empty, source))),
        trial_base(DeriveSeed(key, kNode2VecTrialChannel)),
        params(params_in),
        external_ids(external_ids_or_empty) {
    CW_CHECK_GT(params.return_p, 0.0);
    CW_CHECK_GT(params.in_out_q, 0.0);
    CW_CHECK_GT(params.max_trials, 0u);
    const double w_return = 1.0 / params.return_p;
    const double w_far = 1.0 / params.in_out_q;
    const double w_max = std::max({1.0, w_return, w_far});
    thr_return = AcceptThreshold(w_return / w_max);
    thr_near = AcceptThreshold(1.0 / w_max);
    thr_far = AcceptThreshold(w_far / w_max);
  }

  uint64_t Draw(uint32_t w, uint32_t t) const {
    return CounterRandom(key, WalkerStepCounter(w, t));
  }

  /// The next node of walker `w` at step `t` from the row at `loc`
  /// (degree >= 1), having come from `prev` (kInvalidNode on the first
  /// step, which is uniform on the canonical stream).
  template <typename Rows>
  NodeId Advance(const Rows& rows, const RowLocation& loc, uint32_t w,
                 uint32_t t, NodeId prev) const {
    if (prev == kInvalidNode) return PickTarget(rows, loc, Draw(w, t));
    const uint64_t trial_key =
        DeriveSeed(trial_base, WalkerStepCounter(w, t));
    // In(prev) is sorted (by external id on a reordered snapshot), so a
    // candidate classifies with one binary search; d == 0 wins.
    const std::span<const NodeId> in_prev = rows.InRow(prev);
    NodeId candidate = kInvalidNode;
    for (uint32_t trial = 0; trial < params.max_trials; ++trial) {
      const uint64_t raw = CounterRandom(trial_key, trial);
      candidate = PickTarget(rows, loc, raw);
      uint64_t threshold;
      if (candidate == prev) {
        threshold = thr_return;
      } else if (InRowContains(in_prev, candidate, external_ids)) {
        threshold = thr_near;
      } else {
        threshold = thr_far;
      }
      if ((raw & 0xffffffffull) < threshold) return candidate;
    }
    // Trial cap exhausted: accept the last candidate (deterministic, and
    // bounds the per-step work; see Node2VecParams::max_trials).
    return candidate;
  }
};

/// Advances every walker of `walkers` one level (step `t`) under `policy`
/// against `rows`, reporting each outcome to `sink`; the input records
/// are not modified. Walkers go in blocks of `width` (clamped to
/// [1, kMaxWalkBatchWidth]) whose first pass prefetches the offset entries
/// of the rows the block will read. First-order policies then retire,
/// draw and prefetch the picked in-targets, and read them in a third
/// pass; node2vec advances one walker at a time through its rejection
/// step. A walker at a dangling node parks (kSelfLoop; node2vec's `prev`
/// becomes its own node) or dies. `rows` and `policy` are taken by value so
/// their pointers and keys stay in registers across the sink's stores.
template <typename Rows, typename Policy, typename Sink>
inline void AdvanceLevel(const Rows rows, const Policy policy, uint32_t t,
                         bool self_loop, std::span<const WalkerRec> walkers,
                         uint32_t width, Sink& sink) {
  width = std::clamp(width, 1u, kMaxWalkBatchWidth);
  uint64_t pending_edge[kMaxWalkBatchWidth];
  uint32_t pending_index[kMaxWalkBatchWidth];
  for (size_t b0 = 0; b0 < walkers.size(); b0 += width) {
    const WalkerRec* const block = walkers.data() + b0;
    const uint32_t n =
        static_cast<uint32_t>(std::min<size_t>(width, walkers.size() - b0));
    for (uint32_t i = 0; i < n; ++i) {
      rows.Prefetch(block[i].cur);
      if constexpr (Policy::kSecondOrder) {
        if (block[i].prev != kInvalidNode) rows.Prefetch(block[i].prev);
      }
    }
    if constexpr (Policy::kSecondOrder) {
      for (uint32_t i = 0; i < n; ++i) {
        const WalkerRec& rec = block[i];
        const NodeId v = rec.cur;
        if constexpr (Policy::kMayRetire) {
          if (policy.Retire(rec.walker, t)) {
            sink.Retired(v);
            continue;
          }
        }
        const RowLocation loc = rows.Locate(v);
        sink.Step();
        if (loc.degree == 0) {
          if (self_loop) sink.Moved(WalkerRec{rec.walker, v, v}, v);
          continue;
        }
        const NodeId next = policy.Advance(rows, loc, rec.walker, t, rec.prev);
        sink.Moved(WalkerRec{rec.walker, next, v}, v);
      }
    } else {
      uint32_t pending = 0;
      for (uint32_t i = 0; i < n; ++i) {
        const WalkerRec& rec = block[i];
        if constexpr (Policy::kMayRetire) {
          if (policy.Retire(rec.walker, t)) {
            sink.Retired(rec.cur);
            continue;
          }
        }
        const RowLocation loc = rows.Locate(rec.cur);
        if (loc.degree == 0) {
          sink.Step();
          if (self_loop) sink.Moved(rec, rec.cur);
          continue;
        }
        const uint64_t edge =
            loc.offset + PickSlot(policy.Draw(rec.walker, t), loc.degree);
        rows.PrefetchEdge(edge);
        pending_edge[pending] = edge;
        pending_index[pending] = i;
        ++pending;
      }
      for (uint32_t j = 0; j < pending; ++j) {
        const WalkerRec& rec = block[pending_index[j]];
        const NodeId next = rows.Target(pending_edge[j]);
        sink.Step();
        sink.Moved(WalkerRec{rec.walker, next, rec.prev}, rec.cur);
      }
    }
  }
}

/// The sink that collects a level into flat buffers, each presized to the
/// walkers advanced: survivors, endpoints (level policies) and terminals
/// (retiring policies), plus the step and crossing counts. Crossings —
/// steps whose endpoint `owner` places on another worker than the start —
/// are counted only when `owner` is set. The cursors and counters are
/// 64-bit so the NodeId stores through `endpoints` cannot alias them.
template <bool kEmitsLevels>
struct BufferSink {
  WalkerRec* survivors = nullptr;
  NodeId* endpoints = nullptr;
  NodeId* terminals = nullptr;
  const NodeOwnerFn* owner = nullptr;
  size_t num_survivors = 0;
  size_t num_endpoints = 0;
  size_t num_terminals = 0;
  uint64_t steps = 0;
  uint64_t crossings = 0;

  void Step() { ++steps; }
  void Moved(const WalkerRec& rec, NodeId from) {
    survivors[num_survivors++] = rec;
    if constexpr (kEmitsLevels) endpoints[num_endpoints++] = rec.cur;
    if (owner != nullptr && (*owner)(from) != (*owner)(rec.cur)) {
      ++crossings;
    }
  }
  void Retired(NodeId v) { terminals[num_terminals++] = v; }
};

/// The walk distributions of `source` before any step: num_steps + 1
/// empty levels, level 0 exactly e_source.
inline WalkDistributions SourceLevels(NodeId source, uint32_t num_steps) {
  WalkDistributions out;
  out.levels.assign(num_steps + 1, SparseVector());
  out.levels[0] = SparseVector::FromSorted({SparseEntry{source, 1.0}});
  return out;
}

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_WALK_STEP_H_
