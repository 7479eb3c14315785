// Internal header — the PPR and node2vec walk programs, shared between the
// single-threaded drivers in engine/walk_program.cc and the parallel range
// executor in engine/parallel_walk.cc (DESIGN.md section 12). Include only
// from engine/*.cc translation units; the public entry points stay in
// engine/walk_program.h.
//
// Like SimRankEndpointsProgram (engine/walk_kernel.h), each program carries
// a `walker_offset`: the parallel executor runs a contiguous walker range
// [offset, offset + n) through its own program instance with local walker
// ids [0, n), and every RNG draw keys on the *global* id — so the draws are
// exactly the ones the single-thread run makes, and results stay
// bit-identical at every thread count.

#ifndef CLOUDWALKER_ENGINE_WALK_PROGRAMS_INTERNAL_H_
#define CLOUDWALKER_ENGINE_WALK_PROGRAMS_INTERNAL_H_

#include <algorithm>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "engine/walk_kernel.h"
#include "engine/walk_program.h"

namespace cloudwalker {
namespace internal {

/// Personalized PageRank as a walk program: the canonical move stream
/// advances the walker, an independent per-source stop channel decides —
/// before each move — whether the walker teleports home instead, making
/// its current node a terminal endpoint. Walkers still alive after
/// config.num_steps terminate where they stand, which truncates the
/// geometric tail at alpha^T exactly like the reference formula.
struct PprEndpointsProgram {
  static constexpr bool kMayRetire = true;
  static constexpr bool kSecondOrder = false;
  static constexpr bool kEmitsLevels = false;

  double alpha = 0.85;
  uint64_t key = 0;       // canonical move stream (shared with SimRank)
  uint64_t stop_key = 0;  // per-source teleport-coin channel
  uint32_t walker_offset = 0;  // global id of local walker 0
  std::vector<NodeId> terminals;

  void Begin(NodeId source, const WalkConfig& config) {
    key = DeriveSeed(config.seed, config.rng_node != kInvalidNode
                                      ? config.rng_node
                                      : source);
    stop_key = DeriveSeed(key, kPprStopChannel);
    terminals.clear();
    terminals.reserve(config.num_walkers);
  }
  uint64_t Draw(uint32_t w, uint32_t t) const {
    return CounterRandom(
        key, (static_cast<uint64_t>(w + walker_offset) << 32) | t);
  }
  bool PreStep(uint32_t w, uint32_t t, NodeId v) {
    const uint64_t coin = CounterRandom(
        stop_key, (static_cast<uint64_t>(w + walker_offset) << 32) | t);
    if (DrawToUnit(coin) >= alpha) {
      terminals.push_back(v);
      return false;
    }
    return true;
  }
  void Finish(const NodeId* positions, uint32_t num_walkers) {
    for (uint32_t w = 0; w < num_walkers; ++w) {
      if (positions[w] != kInvalidNode) terminals.push_back(positions[w]);
    }
  }
};

/// Second-order node2vec-style walks as a walk program. The previous
/// vertex lives in the kernel's SoA cursor; the biased transition is
/// sampled by rejection against the uniform in-link distribution (the
/// in-CSR row): draw a uniform candidate, accept with probability
/// w(candidate) / w_max. Every trial draw is
/// CounterRandom(DeriveSeed(trial_base, walker << 32 | step), trial),
/// a pure function of (seed, source, walker, step, trial).
struct Node2VecProgram {
  static constexpr bool kMayRetire = false;
  static constexpr bool kSecondOrder = true;
  static constexpr bool kEmitsLevels = true;

  const Graph* graph = nullptr;
  // In-row sort key of a reordered snapshot (WalkContext::external_ids);
  // empty when the rows are sorted by id.
  std::span<const NodeId> external_ids;
  uint32_t max_trials = 64;
  uint64_t key = 0;         // canonical move stream (first, uniform step)
  uint64_t trial_base = 0;  // per-source rejection-trial channel
  uint64_t thr_return = 0;  // candidate == prev        (weight 1/p)
  uint64_t thr_near = 0;    // candidate in In(prev)    (weight 1)
  uint64_t thr_far = 0;     // otherwise                (weight 1/q)
  uint32_t walker_offset = 0;        // global id of local walker 0
  WalkDistributions* out = nullptr;  // null for raw-level subclasses

  void Configure(const Node2VecParams& params) {
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
  }
  void Begin(NodeId source, const WalkConfig& config) {
    key = DeriveSeed(config.seed, config.rng_node != kInvalidNode
                                      ? config.rng_node
                                      : source);
    trial_base = DeriveSeed(key, kNode2VecTrialChannel);
    if (out == nullptr) return;
    out->levels.assign(config.num_steps + 1, SparseVector());
    out->levels[0] = SparseVector::FromSorted({SparseEntry{source, 1.0}});
  }

  // Uniform in-neighbor pick, the first-order kernel's pick exactly.
  NodeId Resolve(NodeId cur, uint64_t raw, uint32_t deg) const {
    return graph->InNeighbor(cur, PickSlot(raw, deg));
  }

  NodeId Advance(uint32_t w, uint32_t t, NodeId cur, NodeId prev,
                 uint32_t deg) const {
    if (prev == kInvalidNode) {
      // First step: no second-order state yet, uniform over In(cur) on the
      // canonical move stream — the same draw SimRank would make.
      return Resolve(cur, Draw(w, t), deg);
    }
    const uint64_t trial_key = DeriveSeed(
        trial_base, (static_cast<uint64_t>(w + walker_offset) << 32) | t);
    // In(prev) is sorted (by external id on a reordered snapshot), so
    // candidate distance classifies with one binary search; d == 0 (the
    // previous node itself) takes precedence.
    const auto in_prev = graph->InNeighbors(prev);
    NodeId candidate = kInvalidNode;
    for (uint32_t trial = 0; trial < max_trials; ++trial) {
      const uint64_t raw = CounterRandom(trial_key, trial);
      candidate = Resolve(cur, raw, deg);
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
    // Trial cap exhausted: accept the last candidate. Deterministic (a
    // pure function of the same inputs as any accepted draw) and bounds
    // the per-step work; see Node2VecParams::max_trials.
    return candidate;
  }
  uint64_t Draw(uint32_t w, uint32_t t) const {
    return CounterRandom(
        key, (static_cast<uint64_t>(w + walker_offset) << 32) | t);
  }
  void EmitLevel(uint32_t t, SparseVector level) {
    out->levels[t] = std::move(level);
  }
  void Finish(const NodeId*, uint32_t) {}
};

}  // namespace internal
}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_WALK_PROGRAMS_INTERNAL_H_
