// The shard walk programs, factored out of the in-process BSP engine so
// every executor that advances exchanged walkers — ShardedWalkEngine
// (shard/sharded_engine.cc) and the socket-connected shard worker
// (net/shard_worker.cc) — runs the *same* per-walker step code. Bit
// identity across process boundaries then needs no new proof: both sides
// call AdvanceWalker with the same policy over a row source that mirrors
// the graph's in-adjacency, and every draw is already a pure function of
// (seed, source, walker, step[, trial]).
//
// WalkerRec is simultaneously the in-memory exchange record and the wire
// record of cloudwalker-net-v1 SuperstepExchange payloads; the
// static_asserts below freeze its byte layout (see also net/wire.h and
// tests/net/wire_format_test.cc's golden bytes).

#ifndef CLOUDWALKER_SHARD_WALK_POLICIES_H_
#define CLOUDWALKER_SHARD_WALK_POLICIES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/logging.h"
#include "common/random.h"
#include "engine/walk.h"
#include "engine/walk_program.h"
#include "graph/graph.h"

namespace cloudwalker {

/// One walker in flight between shards: its id (the RNG stream index), its
/// current node, and — for second-order programs — the node it came from.
/// Everything else a shard needs to advance the walker is derivable from
/// (config, walker, step).
struct WalkerRec {
  uint32_t walker = 0;
  NodeId cur = kInvalidNode;
  NodeId prev = kInvalidNode;
};
static_assert(std::is_trivially_copyable_v<WalkerRec>,
              "WalkerRec ships raw over the wire");
static_assert(sizeof(WalkerRec) == 12, "wire layout frozen by net-v1");
static_assert(offsetof(WalkerRec, walker) == 0);
static_assert(offsetof(WalkerRec, cur) == 4);
static_assert(offsetof(WalkerRec, prev) == 8);

/// A located adjacency row: the flat offset of the node's first in-edge in
/// its row source plus the row's degree. Locating once and resolving many
/// times keeps the node2vec trial loop off the node -> row indirection.
struct RowLocation {
  uint64_t offset = 0;
  uint32_t degree = 0;
};

// The three walk programs, restated as shard policies. Every draw below
// matches the corresponding single-node program (engine/walk_kernel.h,
// engine/walk_program.cc) bit for bit: the canonical move stream
// CounterRandom(DeriveSeed(seed, source), walker << 32 | step) plus the
// per-program channels. A policy is shared read-only across shard
// workers; all mutable walk state stays in the caller's cursors.
//
// A row source must provide:
//   RowLocation Locate(NodeId v) const;
//   NodeId Pick(const RowLocation&, uint64_t raw) const;
//   std::span<const NodeId> InRow(NodeId v, uint64_t* remote_rows) const;
// Pick returns the row's in-target at slot PickSlot(raw, degree) — the
// single-node kernel's pick exactly. InRow returns the in-neighbor row of
// *any* node (second-order programs read In(prev), which the caller's
// shard may not own) and bumps *remote_rows when the row belongs to
// another shard.

struct SimRankWalkPolicy {
  static constexpr bool kMayRetire = false;
  static constexpr bool kSecondOrder = false;
  static constexpr bool kEmitsLevels = true;

  uint64_t key = 0;  // DeriveSeed(config.seed, source)

  void Configure(uint64_t seed, NodeId source) {
    key = DeriveSeed(seed, source);
  }

  uint64_t Draw(uint32_t w, uint32_t t) const {
    return CounterRandom(key, (static_cast<uint64_t>(w) << 32) | t);
  }
};

struct PprWalkPolicy {
  static constexpr bool kMayRetire = true;
  static constexpr bool kSecondOrder = false;
  static constexpr bool kEmitsLevels = false;

  double alpha = 0.85;
  uint64_t key = 0;
  uint64_t stop_key = 0;  // DeriveSeed(key, kPprStopChannel)

  void Configure(uint64_t seed, NodeId source, const PprParams& params) {
    CW_CHECK_GT(params.alpha, 0.0);
    CW_CHECK_LT(params.alpha, 1.0);
    alpha = params.alpha;
    key = DeriveSeed(seed, source);
    stop_key = DeriveSeed(key, kPprStopChannel);
  }

  uint64_t Draw(uint32_t w, uint32_t t) const {
    return CounterRandom(key, (static_cast<uint64_t>(w) << 32) | t);
  }
  bool Retire(uint32_t w, uint32_t t) const {
    const uint64_t coin =
        CounterRandom(stop_key, (static_cast<uint64_t>(w) << 32) | t);
    return DrawToUnit(coin) >= alpha;
  }
};

struct Node2VecWalkPolicy {
  static constexpr bool kMayRetire = false;
  static constexpr bool kSecondOrder = true;
  static constexpr bool kEmitsLevels = true;

  uint32_t max_trials = 64;
  uint64_t key = 0;
  uint64_t trial_base = 0;  // DeriveSeed(key, kNode2VecTrialChannel)
  uint64_t thr_return = 0;
  uint64_t thr_near = 0;
  uint64_t thr_far = 0;
  // In-row sort key of a reordered snapshot (internal -> external id);
  // empty when the rows are sorted by id.
  std::span<const NodeId> external_ids;

  void Configure(uint64_t seed, NodeId source, const Node2VecParams& params) {
    CW_CHECK_GT(params.return_p, 0.0);
    CW_CHECK_GT(params.in_out_q, 0.0);
    CW_CHECK_GT(params.max_trials, 0u);
    const double w_return = 1.0 / params.return_p;
    const double w_far = 1.0 / params.in_out_q;
    const double w_max = std::max({1.0, w_return, w_far});
    thr_return = AcceptThreshold(w_return / w_max);
    thr_near = AcceptThreshold(1.0 / w_max);
    thr_far = AcceptThreshold(w_far / w_max);
    max_trials = params.max_trials;
    key = DeriveSeed(seed, source);
    trial_base = DeriveSeed(key, kNode2VecTrialChannel);
  }

  uint64_t Draw(uint32_t w, uint32_t t) const {
    return CounterRandom(key, (static_cast<uint64_t>(w) << 32) | t);
  }

  // Full second-order step. In(prev) may live on another shard — the row
  // source counts that as a remote row read, the stand-in (in process) or
  // the real cost proxy (worker) for a cross-worker adjacency message.
  template <typename Rows>
  NodeId Advance(uint32_t w, uint32_t t, NodeId prev, const Rows& rows,
                 const RowLocation& loc, uint64_t* remote_rows) const {
    if (prev == kInvalidNode) {
      // First step: uniform on the canonical move stream — the same draw
      // SimRank would make.
      return rows.Pick(loc, Draw(w, t));
    }
    const uint64_t trial_key =
        DeriveSeed(trial_base, (static_cast<uint64_t>(w) << 32) | t);
    const std::span<const NodeId> in_prev = rows.InRow(prev, remote_rows);
    NodeId candidate = kInvalidNode;
    for (uint32_t trial = 0; trial < max_trials; ++trial) {
      const uint64_t raw = CounterRandom(trial_key, trial);
      candidate = rows.Pick(loc, raw);
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
    return candidate;  // trial cap: accept the last candidate
  }
};

/// Outcome of advancing one walker one level.
enum class WalkerStepOutcome : uint8_t {
  kAdvanced,  // rec.cur moved (or a self-loop held it); one kernel step
  kRetired,   // PPR stop-coin: terminal endpoint = rec.cur, no step
  kDied,      // dangling node under kDie; one kernel step, walker gone
};

/// Advances `rec` one level under `policy` against `rows`. The caller owns
/// the bookkeeping the outcome implies: count one step for kAdvanced /
/// kDied, record rec.cur as a level endpoint on kAdvanced (kEmitsLevels
/// policies), record the pre-advance node as a terminal on kRetired, and
/// route or retire the walker. This function is the entire per-walker
/// superstep contract shared by the in-process engine and the remote
/// worker.
template <typename Policy, typename Rows>
inline WalkerStepOutcome AdvanceWalker(const Rows& rows,
                                       const Policy& policy, uint32_t t,
                                       bool self_loop, WalkerRec& rec,
                                       uint64_t* remote_rows) {
  if constexpr (Policy::kMayRetire) {
    if (policy.Retire(rec.walker, t)) return WalkerStepOutcome::kRetired;
  }
  const RowLocation loc = rows.Locate(rec.cur);
  if (loc.degree == 0) {
    if (!self_loop) return WalkerStepOutcome::kDied;
    if constexpr (Policy::kSecondOrder) rec.prev = rec.cur;
    return WalkerStepOutcome::kAdvanced;  // self-loop: cur stays put
  }
  NodeId next;
  if constexpr (Policy::kSecondOrder) {
    next = policy.Advance(rec.walker, t, rec.prev, rows, loc, remote_rows);
    rec.prev = rec.cur;
  } else {
    next = rows.Pick(loc, policy.Draw(rec.walker, t));
  }
  rec.cur = next;
  return WalkerStepOutcome::kAdvanced;
}

}  // namespace cloudwalker

#endif  // CLOUDWALKER_SHARD_WALK_POLICIES_H_
