// The Monte-Carlo random-walk engine.
//
// SimRank's transition matrix P is the column-normalized adjacency matrix,
// so `P^t e_s` — the quantity every CloudWalker phase estimates — is the
// distribution of a t-step walk from s that moves to a uniformly random
// *in-neighbor* at each step. Walkers die at nodes with no in-neighbors
// (mass loss is part of the definition; see DanglingPolicy).
//
// The kernel advances all walkers of a source level-synchronously in blocks
// of `WalkConfig::batch_width`, streaming the graph's in-CSR with software
// prefetch (DESIGN.md section 8).
//
// SimRank's endpoint-per-level walk is the first *walk program* of the
// shared engine (DESIGN.md section 10): its policy and the level step every
// executor runs live in engine/walk_step.h, and the level loop with its
// endpoint aggregation in engine/walk_driver.h. Further programs —
// personalized PageRank and second-order node2vec walks — are declared in
// engine/walk_program.h.
//
// Determinism: every draw is the stateless CounterRandom of
// (DeriveSeed(config.seed, key node), walker, step), where the key node is
// the source's external id on a locality-reordered snapshot
// (WalkContext::external_ids) and the source otherwise, so results are
// bit-identical across thread counts, batch widths, backends and node
// numberings.

#ifndef CLOUDWALKER_ENGINE_WALK_H_
#define CLOUDWALKER_ENGINE_WALK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/sparse.h"
#include "graph/graph.h"

namespace cloudwalker {

/// The coherence granule the engine pads per-worker state to.
inline constexpr size_t kCacheLineBytes = 64;

/// Upper bound on WalkConfig::batch_width (sizes the level step's
/// stack-resident pending arrays).
inline constexpr uint32_t kMaxWalkBatchWidth = 256;

/// What a walker does at a node with no in-neighbors.
enum class DanglingPolicy {
  /// The walker terminates; the empirical distribution loses its mass.
  /// This is the faithful interpretation of P (columns of dangling nodes
  /// are all-zero) and the library default.
  kDie = 0,
  /// The walker stays put, as if every dangling node had a self loop.
  /// Provided for sensitivity experiments only.
  kSelfLoop = 1,
};

/// Parameters of a walk simulation.
struct WalkConfig {
  /// Walk length T (number of steps; level 0 is the source itself).
  uint32_t num_steps = 10;
  /// Number of independent walkers per source (R or R' in the paper).
  uint32_t num_walkers = 100;
  /// Behaviour at dangling nodes.
  DanglingPolicy dangling = DanglingPolicy::kDie;
  /// Master seed; per-source streams are derived from it.
  uint64_t seed = 1;
  /// Walkers advanced in lockstep per kernel block (clamped to
  /// [1, kMaxWalkBatchWidth]). Purely a scheduling knob: results are
  /// bit-identical for every width. The default keeps ~256 prefetches in
  /// flight per pass, enough to cover DRAM latency at every pass boundary.
  uint32_t batch_width = 256;
  /// Cooperative stop signal (borrowed, may be null). Polled once per
  /// level by the level loop; a stopped simulation returns early with the
  /// remaining levels empty, and the caller is expected to discard the
  /// truncated result (see common/cancel.h).
  const CancelToken* cancel = nullptr;
};

/// Issues a read prefetch for the cache line holding `addr` (no-op on
/// compilers without the builtin). The walk kernel uses this to overlap
/// the in-CSR lookups of a whole walker block.
inline void PrefetchRead(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

/// Maps the upper 32 bits of `raw` onto [0, degree) by multiply-shift: the
/// in-row slot a uniform reverse step takes. Every executor (the in-CSR,
/// shard slices, socket workers, out-of-core block leases) picks
/// `in_targets[in_offsets[v] + PickSlot(raw, deg)]`, so all of them
/// consume randomness identically.
inline uint32_t PickSlot(uint64_t raw, uint32_t degree) {
  return static_cast<uint32_t>(((raw >> 32) * degree) >> 32);
}

/// True when `node` is in `row`, an in-row of a graph whose in-rows are
/// sorted ascending by `external_ids` (internal id -> external id of a
/// locality-reordered snapshot, DESIGN.md section 14), or by id when
/// `external_ids` is empty. One binary search either way — node2vec's
/// "candidate in In(prev)" test.
inline bool InRowContains(std::span<const NodeId> row, NodeId node,
                          std::span<const NodeId> external_ids) {
  if (external_ids.empty()) {
    return std::binary_search(row.begin(), row.end(), node);
  }
  const auto it = std::lower_bound(
      row.begin(), row.end(), node, [external_ids](NodeId a, NodeId b) {
        return external_ids[a] < external_ids[b];
      });
  return it != row.end() && *it == node;
}

/// Advances one walker one step along in-links. Returns kInvalidNode when
/// the walker dies (dangling node under kDie policy).
inline NodeId StepReverse(const Graph& graph, NodeId v, Xoshiro256& rng,
                          DanglingPolicy policy = DanglingPolicy::kDie) {
  const uint32_t deg = graph.InDegree(v);
  if (deg == 0) {
    return policy == DanglingPolicy::kSelfLoop ? v : kInvalidNode;
  }
  return graph.InNeighbor(v, rng.UniformInt32(deg));
}

/// Empirical walk distributions û_{s,t} for t = 0..T.
/// levels[t] sums to (surviving walkers at step t) / R, i.e. it estimates
/// the (possibly sub-stochastic) column `P^t e_s`.
struct WalkDistributions {
  std::vector<SparseVector> levels;

  /// Number of levels (T + 1).
  size_t num_levels() const { return levels.size(); }
};

/// Maps a node to the id of the simulated worker owning it. Used by the
/// cluster layer to count partition crossings without the engine depending
/// on cluster types.
using NodeOwnerFn = std::function<int(NodeId)>;

/// Execution counters of one walk simulation.
struct WalkStats {
  /// Walk steps actually taken (dead walkers stop contributing).
  uint64_t steps = 0;
  /// Steps whose endpoint is owned by a different worker than the start
  /// (only counted when an owner function is supplied).
  uint64_t partition_crossings = 0;
};

/// The per-graph walk state every query of one engine shares: the graph
/// and, on a locality-reordered snapshot, its permutation (internal id ->
/// external id; empty otherwise). Every walk keys its draws on the
/// source's external id through it (KeyNode, engine/walk_step.h), and
/// node2vec's in-row membership test searches rows sorted by it. Immutable
/// and thread-safe; borrows both, which must outlive the context.
class WalkContext {
 public:
  explicit WalkContext(const Graph& graph,
                       std::span<const NodeId> external_ids = {})
      : graph_(&graph), external_ids_(external_ids) {}

  const Graph& graph() const { return *graph_; }
  std::span<const NodeId> external_ids() const { return external_ids_; }

 private:
  const Graph* graph_;
  std::span<const NodeId> external_ids_;
};

/// One walker in flight: its global id (the RNG stream index), its current
/// node, and — for second-order programs — the node it came from.
/// Everything else needed to advance it derives from (config, walker,
/// step). Every executor advances these records (engine/walk_step.h); they
/// never leave the process that seeded them — a socket worker seeds its
/// own range's records from the job's walker ids.
struct WalkerRec {
  uint32_t walker = 0;
  NodeId cur = kInvalidNode;
  NodeId prev = kInvalidNode;
};

/// Reusable per-worker scratch of the level loop (engine/walk_driver.h):
/// the live walker records (the level's input and its compacted
/// survivors), the per-level endpoint radix-sort buffers and, for
/// executors with several parts, the frontier's bucketing arrays. Opaque —
/// create one per worker (never share concurrently) and pass it to
/// repeated simulations to avoid reallocation. Cache-line aligned so
/// arrays of per-worker scratches can never false-share.
class alignas(kCacheLineBytes) WalkScratch {
 public:
  /// `expected_walkers` presizes the buffers for that many walkers.
  explicit WalkScratch(uint32_t expected_walkers = 16);

 private:
  friend struct LevelLoop;  // the engine's internal implementation

  std::vector<WalkerRec> walkers_;    // live walkers entering a level
  std::vector<WalkerRec> survivors_;  // survivors, or the bucketed frontier
  std::vector<NodeId> endpoints_;     // endpoints of the current level
  std::vector<NodeId> sort_buffer_;   // radix ping-pong partner
  std::vector<uint32_t> part_of_;       // each live walker's part
  std::vector<uint32_t> bucket_start_;  // part p's bucket offset
  std::vector<uint32_t> cursor_;        // counting-sort write cursors
};
static_assert(alignof(WalkScratch) >= kCacheLineBytes);
static_assert(sizeof(WalkScratch) % kCacheLineBytes == 0);

/// Per-worker state block for parallel walk drivers: one per worker or
/// chunk, never shared. Cache-line aligned (and sized to a whole number of
/// lines) so adjacent workers' counters never share a line.
struct alignas(kCacheLineBytes) WalkWorkerState {
  WalkScratch scratch;
  WalkStats stats;
};
static_assert(alignof(WalkWorkerState) >= kCacheLineBytes);
static_assert(sizeof(WalkWorkerState) % kCacheLineBytes == 0);

/// Simulates `config.num_walkers` reverse walks from `source` and returns
/// the empirical distribution at every step. `scratch` (optional) avoids
/// reallocation across calls on the same thread. `owner` (optional) enables
/// partition-crossing accounting into `stats`.
WalkDistributions SimulateWalkDistributions(const Graph& graph, NodeId source,
                                            const WalkConfig& config,
                                            WalkScratch* scratch = nullptr,
                                            const NodeOwnerFn* owner = nullptr,
                                            WalkStats* stats = nullptr);

/// Deterministic counterpart of SimulateWalkDistributions: computes the
/// exact distributions u_{s,t} = P^t e_s by sparse propagation along
/// in-links, optionally dropping entries below `prune_threshold` after each
/// step (the LIN baseline's practical variant). `edge_ops` (optional)
/// accumulates the number of edge traversals performed.
WalkDistributions ExactWalkDistributions(const Graph& graph, NodeId source,
                                         uint32_t num_steps,
                                         double prune_threshold = 0.0,
                                         uint64_t* edge_ops = nullptr);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_WALK_H_
