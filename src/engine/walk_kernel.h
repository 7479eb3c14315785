// Internal header — the single-node walk kernel (DESIGN.md section 10).
// Include only from engine/*.cc and the backends that need IdBits; the
// public entry points live in engine/walk.h (SimRank) and
// engine/walk_program.h (PPR, node2vec).
//
// The kernel owns what is specific to running a walk on one node: the
// walker records of a contiguous walker range, the level loop with its
// cancel poll, and the radix-sort endpoint aggregation. The step itself —
// every program's policy and the prefetch pipeline — is AdvanceLevel
// (engine/walk_step.h), which every other executor runs too.

#ifndef CLOUDWALKER_ENGINE_WALK_KERNEL_H_
#define CLOUDWALKER_ENGINE_WALK_KERNEL_H_

#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/sparse.h"
#include "engine/walk.h"
#include "engine/walk_program.h"
#include "engine/walk_step.h"
#include "graph/graph.h"

namespace cloudwalker {

/// Where a kernel run's output goes. A level policy fills exactly one of
/// `levels` (aggregated levels 1..T, sized by the caller) and `raw_levels`
/// (each level's unsorted endpoint multiset, for a cross-range merge); a
/// retiring policy appends its terminals, survivors included, to
/// `terminals`.
struct WalkOutput {
  std::vector<SparseVector>* levels = nullptr;
  std::vector<std::vector<NodeId>>* raw_levels = nullptr;
  std::vector<NodeId>* terminals = nullptr;
};

/// The engine's internal implementation (friend of WalkScratch). Results
/// depend only on (graph, source, config, policy, walker ids).
struct WalkKernel {
  /// Bits needed to represent every node id of `graph`.
  static uint32_t IdBits(const Graph& graph) {
    return KeyBits(graph.num_nodes() == 0 ? 0 : graph.num_nodes() - 1);
  }

  /// Runs walkers [first, first + count) of `policy`'s walk from `source`
  /// over the in-CSR, level by level, compacting the survivors after each
  /// level. Level values are multiplicity / config.num_walkers, so a walker
  /// range's raw levels merge with its siblings' into the full run's.
  template <typename Policy>
  static void Run(const Graph& graph, NodeId source, const WalkConfig& config,
                  const Policy& policy, uint32_t first, uint32_t count,
                  WalkScratch* scratch, const NodeOwnerFn* owner,
                  WalkStats* stats, const WalkOutput& out) {
    CW_CHECK_LT(source, graph.num_nodes());
    CW_CHECK_GT(config.num_walkers, 0u);
    const double inv_r = 1.0 / static_cast<double>(config.num_walkers);
    const bool self_loop = config.dangling == DanglingPolicy::kSelfLoop;
    const uint32_t id_bits = IdBits(graph);
    const CsrRows rows = CsrRows::In(graph);

    WalkScratch local(scratch == nullptr ? count : 0);
    WalkScratch& s = scratch != nullptr ? *scratch : local;
    s.walkers_.resize(count);
    s.survivors_.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      s.walkers_[i] = WalkerRec{first + i, source, kInvalidNode};
    }
    if constexpr (Policy::kEmitsLevels) s.endpoints_.resize(count);

    BufferSink<Policy::kEmitsLevels> sink;
    sink.endpoints = s.endpoints_.data();
    sink.terminals = out.terminals;
    sink.owner = owner;
    size_t live = count;
    for (uint32_t t = 1; t <= config.num_steps && live > 0; ++t) {
      // Cooperative stop: one poll per level (the clock read is too costly
      // per block). A stopped run is abandoned by the caller wholesale, so
      // leaving the remaining levels empty is safe.
      if (config.cancel != nullptr && config.cancel->ShouldStop()) break;
      sink.survivors = s.survivors_.data();
      sink.num_survivors = 0;
      sink.num_endpoints = 0;
      AdvanceLevel(rows, policy, t, self_loop,
                   std::span<const WalkerRec>(s.walkers_.data(), live),
                   config.batch_width, sink);
      std::swap(s.walkers_, s.survivors_);
      live = sink.num_survivors;
      if constexpr (Policy::kEmitsLevels) {
        NodeId* const endpoints = s.endpoints_.data();
        const uint32_t n = static_cast<uint32_t>(sink.num_endpoints);
        if (out.raw_levels != nullptr) {
          (*out.raw_levels)[t].assign(endpoints, endpoints + n);
        } else {
          (*out.levels)[t] = AggregateEndpointNodes(
              endpoints, n, s.sort_buffer_, inv_r, id_bits);
        }
      }
    }
    if constexpr (Policy::kMayRetire) {
      // Walkers alive after the last level terminate where they stand.
      for (size_t i = 0; i < live; ++i) {
        out.terminals->push_back(s.walkers_[i].cur);
      }
    }
    if (stats != nullptr) {
      stats->steps += sink.steps;
      stats->partition_crossings += sink.crossings;
    }
  }
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_WALK_KERNEL_H_
