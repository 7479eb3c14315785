// Internal header — the templated level-synchronous walk kernel shared by
// every walk program (DESIGN.md section 10). Include only from engine/*.cc
// and shard/*.cc translation units (the sharded BSP engine reuses the
// radix aggregation and id-width helpers so its per-level output is
// bit-identical to the single-node kernel); the public entry points live
// in engine/walk.h (SimRank) and engine/walk_program.h (PPR, node2vec).
//
// A *walk program* supplies the per-step policy; the kernel supplies
// everything else — the SoA walker cursors, the blocked advance with
// software prefetch over the in-CSR, dangling handling, cancel polling,
// and the radix-sort endpoint aggregation. Programs are selected
// at compile time (one template instantiation per program), so the SimRank
// instantiation compiles to exactly the pre-refactor machine code: every
// hook a program does not use is a `if constexpr (false)` branch, not a
// virtual call.
//
// Program concept (duck-typed; see SimRankEndpointsProgram for the
// minimal example):
//
//   static constexpr bool kMayRetire;
//     True when PreStep() may retire a walker before it moves (PPR's
//     teleport coin). False compiles the hook out of the hot loop.
//   static constexpr bool kSecondOrder;
//     True when the next node depends on (current, previous) — the kernel
//     then maintains a per-walker previous-vertex SoA cursor and delegates
//     the whole draw to Advance() instead of running the first-order
//     prefetch pipeline.
//   static constexpr bool kEmitsLevels;
//     True when the program consumes per-level endpoint distributions;
//     false skips endpoint recording and sorting entirely.
//
//   void Begin(NodeId source, const WalkConfig& config);
//     Prologue, before any step.
//   bool PreStep(uint32_t w, uint32_t t, NodeId v);        [kMayRetire]
//     Called once per alive walker per level, before the move. Returning
//     false retires the walker (the program records whatever it needs).
//   NodeId Advance(uint32_t w, uint32_t t, NodeId v, NodeId prev,
//                  uint32_t deg);                          [kSecondOrder]
//     Full second-order step for a non-dangling node (deg >= 1): sample
//     and return the next node. `prev` is kInvalidNode on the first step.
//   void EmitLevel(uint32_t t, SparseVector level);        [kEmitsLevels]
//     The aggregated endpoint distribution of level t (walker-order
//     independent, so bit-identical across batch widths and threads).
//   void EmitRawLevel(uint32_t t, const NodeId* data, uint32_t n);
//     Optional override of EmitLevel (detected by a requires expression):
//     receives the level's raw, unsorted endpoint multiset instead of the
//     aggregated distribution. The parallel executor's range programs use
//     this to defer aggregation until every range's endpoints are merged —
//     summing per-range SparseVectors would reassociate the doubles
//     (DESIGN.md section 12).
//   void Finish(const NodeId* positions, uint32_t num_walkers);
//     Epilogue: the final cursor array (kInvalidNode = dead walker).
//
// RNG keying contract: every draw a program makes must be a pure function
// of (config.seed, source, walker, step[, trial]) — derive per-program
// channels from the per-source key with DeriveSeed so distinct programs
// (and distinct draws within a step) consume disjoint streams. This is
// what makes results bit-identical across batch widths, thread counts,
// and backends.

#ifndef CLOUDWALKER_ENGINE_WALK_KERNEL_H_
#define CLOUDWALKER_ENGINE_WALK_KERNEL_H_

#include <algorithm>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/random.h"
#include "common/sparse.h"
#include "engine/walk.h"
#include "engine/walk_program.h"
#include "graph/graph.h"

namespace cloudwalker {

/// The engine's internal implementation (friend of WalkScratch). Results
/// depend only on (graph, source, config, program).
struct WalkKernel {
  /// Bits needed to represent every node id of `graph`.
  static uint32_t IdBits(const Graph& graph) {
    return KeyBits(graph.num_nodes() == 0 ? 0 : graph.num_nodes() - 1);
  }

  /// Runs `program` over config.num_walkers walkers from `source`. The
  /// shared engine: level-synchronous blocks of config.batch_width, the
  /// 3-pass prefetch pipeline over the in-CSR for first-order programs,
  /// per-walker previous-vertex cursors for second-order ones.
  template <typename Program>
  static void Run(const Graph& graph, NodeId source, const WalkConfig& config,
                  WalkScratch* scratch, const NodeOwnerFn* owner,
                  WalkStats* stats, Program& program) {
    CW_CHECK_LT(source, graph.num_nodes());
    CW_CHECK_GT(config.num_walkers, 0u);
    program.Begin(source, config);

    const uint32_t r = config.num_walkers;
    const double inv_r = 1.0 / static_cast<double>(r);
    const uint32_t width =
        std::clamp(config.batch_width, 1u, kMaxWalkBatchWidth);
    const bool self_loop = config.dangling == DanglingPolicy::kSelfLoop;
    const uint32_t id_bits = IdBits(graph);

    WalkScratch local(scratch == nullptr ? r : 0);
    WalkScratch& s = scratch != nullptr ? *scratch : local;
    s.positions_.assign(r, source);
    if constexpr (Program::kEmitsLevels) {
      s.endpoints_.resize(r);
    }
    if constexpr (Program::kSecondOrder) {
      s.previous_.assign(r, kInvalidNode);
    }
    NodeId* const pos = s.positions_.data();
    NodeId* const endpoints = s.endpoints_.data();
    uint32_t alive = r;

    // Stack-resident SoA cursors of the in-flight block (first-order
    // path): the pending walkers between the target-prefetch and
    // target-read passes.
    uint64_t pending_edge[kMaxWalkBatchWidth];
    uint32_t pending_walker[kMaxWalkBatchWidth];
    NodeId pending_prev[kMaxWalkBatchWidth];
    const uint64_t* const in_offsets = graph.InOffsets().data();
    const NodeId* const in_targets = graph.InTargets().data();

    for (uint32_t t = 1; t <= config.num_steps && alive > 0; ++t) {
      // Cooperative stop: one poll per level (the clock read is too costly
      // per block). A stopped run is abandoned by the caller wholesale, so
      // leaving the remaining levels empty is safe.
      if (config.cancel != nullptr && config.cancel->ShouldStop()) break;
      uint32_t n_live = 0;
      for (uint32_t w0 = 0; w0 < r; w0 += width) {
        const uint32_t wn = std::min(width, r - w0);
        if constexpr (Program::kSecondOrder) {
          // Second-order advance: the program owns the draw (rejection
          // sampling needs (current, previous)); the kernel still owns the
          // cursors, dangling policy, and accounting.
          NodeId* const previous = s.previous_.data();
          for (uint32_t i = 0; i < wn; ++i) {
            const uint32_t w = w0 + i;
            const NodeId v = pos[w];
            if (v == kInvalidNode) continue;
            if constexpr (Program::kMayRetire) {
              if (!program.PreStep(w, t, v)) {
                pos[w] = kInvalidNode;
                --alive;
                continue;
              }
            }
            const uint32_t deg = graph.InDegree(v);
            if (deg == 0) {
              if (stats != nullptr) ++stats->steps;
              if (self_loop) {
                previous[w] = v;  // the self loop is the edge just taken
                if constexpr (Program::kEmitsLevels) {
                  endpoints[n_live++] = v;
                }
              } else {
                pos[w] = kInvalidNode;
                --alive;
              }
              continue;
            }
            const NodeId next = program.Advance(w, t, v, previous[w], deg);
            if (stats != nullptr) {
              ++stats->steps;
              if (owner != nullptr && (*owner)(v) != (*owner)(next)) {
                ++stats->partition_crossings;
              }
            }
            previous[w] = v;
            pos[w] = next;
            if constexpr (Program::kEmitsLevels) {
              endpoints[n_live++] = next;
            }
          }
        } else {
          // Pass 1: prefetch the offset entries of the block's frontier.
          for (uint32_t i = 0; i < wn; ++i) {
            if (pos[w0 + i] != kInvalidNode) {
              PrefetchRead(in_offsets + pos[w0 + i]);
            }
          }
          // Pass 2: draw, pick the row slot, prefetch the in-target it
          // names.
          uint32_t pending = 0;
          for (uint32_t i = 0; i < wn; ++i) {
            const uint32_t w = w0 + i;
            const NodeId v = pos[w];
            if (v == kInvalidNode) continue;
            if constexpr (Program::kMayRetire) {
              if (!program.PreStep(w, t, v)) {
                pos[w] = kInvalidNode;
                --alive;
                continue;
              }
            }
            const uint64_t row = in_offsets[v];
            const uint32_t deg =
                static_cast<uint32_t>(in_offsets[v + 1] - row);
            if (deg == 0) {
              if (stats != nullptr) ++stats->steps;
              if (self_loop) {
                if constexpr (Program::kEmitsLevels) {
                  endpoints[n_live++] = v;
                }
              } else {
                pos[w] = kInvalidNode;
                --alive;
              }
              continue;
            }
            const uint64_t edge = row + PickSlot(program.Draw(w, t), deg);
            PrefetchRead(in_targets + edge);
            pending_edge[pending] = edge;
            pending_walker[pending] = w;
            pending_prev[pending] = v;
            ++pending;
          }
          // Pass 3: read the prefetched targets and do the bookkeeping.
          for (uint32_t j = 0; j < pending; ++j) {
            const NodeId next = in_targets[pending_edge[j]];
            if (stats != nullptr) {
              ++stats->steps;
              if (owner != nullptr &&
                  (*owner)(pending_prev[j]) != (*owner)(next)) {
                ++stats->partition_crossings;
              }
            }
            pos[pending_walker[j]] = next;
            if constexpr (Program::kEmitsLevels) {
              endpoints[n_live++] = next;
            }
          }
        }
      }
      if constexpr (Program::kEmitsLevels) {
        if constexpr (requires {
                        program.EmitRawLevel(
                            t, static_cast<const NodeId*>(nullptr), 0u);
                      }) {
          // Raw-endpoint consumer (the parallel executor's range programs):
          // hand over the unsorted multiset; aggregation happens once,
          // after the cross-range merge.
          program.EmitRawLevel(t, endpoints, n_live);
        } else {
          SparseVector level = AggregateEndpointNodes(
              endpoints, n_live, s.sort_buffer_, inv_r, id_bits);
          program.EmitLevel(t, std::move(level));
        }
      }
    }
    program.Finish(pos, r);
  }
};

namespace internal {

/// The first program: SimRank's endpoint-per-level walk, exactly the
/// pre-refactor kernel. The move draw is the canonical per-source stream
/// CounterRandom(DeriveSeed(seed, source), walker << 32 | step) — the
/// bit-identity contract every existing test and snapshot depends on.
/// `walker_offset` is the global id of local walker 0: the parallel
/// executor runs each walker range through its own program instance, and
/// offsetting the RNG counter (never the key) keeps every draw the one the
/// single-thread run would make (DESIGN.md section 12).
struct SimRankEndpointsProgram {
  static constexpr bool kMayRetire = false;
  static constexpr bool kSecondOrder = false;
  static constexpr bool kEmitsLevels = true;

  uint64_t key = 0;             // DeriveSeed(config.seed, source)
  uint32_t walker_offset = 0;   // global id of local walker 0
  WalkDistributions* out = nullptr;  // null for raw-level subclasses

  void Begin(NodeId source, const WalkConfig& config) {
    key = DeriveSeed(config.seed, config.rng_node != kInvalidNode
                                      ? config.rng_node
                                      : source);
    if (out == nullptr) return;
    out->levels.assign(config.num_steps + 1, SparseVector());
    // Level 0 is exactly e_source.
    out->levels[0] = SparseVector::FromSorted({SparseEntry{source, 1.0}});
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

#endif  // CLOUDWALKER_ENGINE_WALK_KERNEL_H_
