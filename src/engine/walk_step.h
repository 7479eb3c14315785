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
// InRow when q != 1):
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
/// CounterRandom(DeriveSeed(trial_base, walker << 32 | step), trial); a
/// walker's first step is uniform on the canonical stream. A trial decides
/// from its draw before it classifies the candidate, so In(prev) is read
/// only for a draw between thr_near and thr_far — never when they are
/// equal (q = 1, the default p = q = 1 included).
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

  /// Whether a trial can read In(prev) at all.
  bool ReadsPrevRow() const { return thr_near != thr_far; }

  /// The draw of walker `w`'s first candidate at step `t`: trial 0, or
  /// the canonical move word on its first step (`prev` == kInvalidNode).
  uint64_t FirstDraw(uint32_t w, uint32_t t, NodeId prev) const {
    if (prev == kInvalidNode) return Draw(w, t);
    return CounterRandom(DeriveSeed(trial_base, WalkerStepCounter(w, t)), 0);
  }

  /// Whether the trial that drew `raw` accepts `candidate` after `prev`.
  template <typename Rows>
  bool Accepts(const Rows& rows, NodeId prev, NodeId candidate,
               uint64_t raw) const {
    const uint64_t u = raw & 0xffffffffull;
    if (candidate == prev) return u < thr_return;
    if (u < std::min(thr_near, thr_far)) return true;
    if (u >= std::max(thr_near, thr_far)) return false;
    // In(prev) is sorted (by external id on a reordered snapshot), so the
    // candidate classifies with one binary search.
    return InRowContains(rows.InRow(prev), candidate, external_ids)
               ? u < thr_near
               : u < thr_far;
  }

  /// The next node of walker `w` at step `t` from `cur` (in-degree >= 1)
  /// after `prev`, given the first candidate and the draw `raw` that
  /// picked it (FirstDraw). On the first step, or when trial 0 accepts,
  /// that is the candidate; otherwise trials 1.. draw until one accepts,
  /// and when all `max_trials` reject the last candidate stands
  /// (deterministic, and bounds the per-step work; see
  /// Node2VecParams::max_trials).
  template <typename Rows>
  NodeId Resolve(const Rows& rows, NodeId cur, uint32_t w, uint32_t t,
                 NodeId prev, NodeId candidate, uint64_t raw) const {
    if (prev == kInvalidNode || Accepts(rows, prev, candidate, raw)) {
      return candidate;
    }
    const RowLocation loc = rows.Locate(cur);
    const uint64_t trial_key = DeriveSeed(trial_base, WalkerStepCounter(w, t));
    for (uint32_t trial = 1; trial < params.max_trials; ++trial) {
      raw = CounterRandom(trial_key, trial);
      candidate = PickTarget(rows, loc, raw);
      if (Accepts(rows, prev, candidate, raw)) break;
    }
    return candidate;
  }
};

/// Advances every walker of `walkers` one level (step `t`) under `policy`
/// against `rows`, reporting each outcome to `sink`; the input records
/// are not modified. Walkers go in blocks of `width` (clamped to
/// [1, kMaxWalkBatchWidth]), each in three passes: prefetch the offset
/// entries of the rows the block will read (node2vec's `prev` rows too,
/// when a trial can read them); retire, locate the row, draw (node2vec:
/// the first candidate) and prefetch the picked in-target; read the
/// target — node2vec then resolves it, and only a walker whose first
/// trial rejects draws more. A walker at a dangling node parks (kSelfLoop;
/// node2vec's `prev` becomes its own node) or dies. `rows` and `policy`
/// are taken by value so their pointers and keys stay in registers across
/// the sink's stores.
template <typename Rows, typename Policy, typename Sink>
inline void AdvanceLevel(const Rows rows, const Policy policy, uint32_t t,
                         bool self_loop, std::span<const WalkerRec> walkers,
                         uint32_t width, Sink& sink) {
  width = std::clamp(width, 1u, kMaxWalkBatchWidth);
  bool prefetch_prev = false;
  if constexpr (Policy::kSecondOrder) prefetch_prev = policy.ReadsPrevRow();
  uint64_t pending_edge[kMaxWalkBatchWidth];
  uint64_t pending_raw[kMaxWalkBatchWidth];  // node2vec's first draws
  uint32_t pending_index[kMaxWalkBatchWidth];
  for (size_t b0 = 0; b0 < walkers.size(); b0 += width) {
    const WalkerRec* const block = walkers.data() + b0;
    const uint32_t n =
        static_cast<uint32_t>(std::min<size_t>(width, walkers.size() - b0));
    for (uint32_t i = 0; i < n; ++i) {
      rows.Prefetch(block[i].cur);
      if (prefetch_prev && block[i].prev != kInvalidNode) {
        rows.Prefetch(block[i].prev);
      }
    }
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
        if (self_loop) {
          const NodeId prev = Policy::kSecondOrder ? rec.cur : rec.prev;
          sink.Moved(WalkerRec{rec.walker, rec.cur, prev}, rec.cur);
        }
        continue;
      }
      uint64_t raw = 0;
      if constexpr (Policy::kSecondOrder) {
        raw = policy.FirstDraw(rec.walker, t, rec.prev);
        pending_raw[pending] = raw;
      } else {
        raw = policy.Draw(rec.walker, t);
      }
      const uint64_t edge = loc.offset + PickSlot(raw, loc.degree);
      rows.PrefetchEdge(edge);
      pending_edge[pending] = edge;
      pending_index[pending] = i;
      ++pending;
    }
    for (uint32_t j = 0; j < pending; ++j) {
      const WalkerRec& rec = block[pending_index[j]];
      NodeId next = rows.Target(pending_edge[j]);
      NodeId prev = rec.prev;
      if constexpr (Policy::kSecondOrder) {
        next = policy.Resolve(rows, rec.cur, rec.walker, t, rec.prev, next,
                              pending_raw[j]);
        prev = rec.cur;
      }
      sink.Step();
      sink.Moved(WalkerRec{rec.walker, next, prev}, rec.cur);
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
