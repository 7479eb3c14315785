// Shard layout for the in-process multi-shard walk engine (DESIGN.md
// section 11): the partition plan, the per-shard graph slices, and the
// cost-model placement scoring.
//
// A ShardPlan hash- or range-partitions the node space with
// cluster/partitioner and materializes one ShardSlice per shard: the
// shard's owned nodes and a local CSR over their in-adjacency (targets
// keep *global* ids — walkers address the whole graph). During a walk
// job, a shard worker touches only its own slice; adjacency of nodes it
// does not own is reachable solely through ShardPlan::InRow, which the
// engine counts as a remote row fetch (the in-process stand-in for a
// distributed adjacency-fetch message).
//
// Placement (kAuto) scores both strategies with the simulated-cluster
// CostModel — per-superstep critical path of the busiest shard plus the
// exchange cost of the edges that cross shards — and keeps the cheaper
// layout, mirroring how the paper's Broadcasting model weighs compute
// balance against communication.

#ifndef CLOUDWALKER_SHARD_SHARDING_H_
#define CLOUDWALKER_SHARD_SHARDING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cost_model.h"
#include "cluster/partitioner.h"
#include "graph/graph.h"

namespace cloudwalker {

/// Configuration of a sharded engine build.
struct ShardingOptions {
  /// Desired placement strategy. kAuto scores kHash vs kRange with the
  /// cost model and picks the cheaper one.
  enum class Placement { kAuto = 0, kHash = 1, kRange = 2 };

  /// Number of in-process shard workers (>= 1). Shards may own zero nodes
  /// (range partitioning with more shards than nodes); empty shards simply
  /// never receive walkers.
  int num_shards = 2;
  Placement placement = Placement::kAuto;
  /// Worker threads of the engine-owned pool driving the supersteps.
  /// 0 runs every superstep serially on the calling thread (still a real
  /// multi-shard execution — just time-sliced), which is the safe default
  /// under a serving layer that already parallelizes across requests.
  int num_threads = 0;
  /// Cost model used for kAuto placement scoring.
  CostModel cost_model = CostModel::Default();
};

/// One shard's owned portion of the graph. `nodes` are the owned global
/// ids, ascending; row r of the local CSR describes the in-adjacency of
/// nodes[r]. Targets are global ids.
struct ShardSlice {
  std::vector<NodeId> nodes;
  std::vector<uint64_t> offsets;  // nodes.size() + 1 entries
  std::vector<NodeId> targets;

  uint64_t num_edges() const { return targets.size(); }

  /// In-neighbors of local row `row` (ascending global ids).
  std::span<const NodeId> Row(uint32_t row) const {
    return {targets.data() + offsets[row],
            static_cast<size_t>(offsets[row + 1] - offsets[row])};
  }
  uint32_t RowDegree(uint32_t row) const {
    return static_cast<uint32_t>(offsets[row + 1] - offsets[row]);
  }
};

/// Cost-model score of one placement strategy (see DESIGN.md section 11).
struct PlacementScore {
  /// Estimated seconds per superstep: busiest-shard compute + exchange.
  double superstep_seconds = 0.0;
  /// In-edges whose endpoint is owned by a different shard than the node.
  uint64_t crossing_edges = 0;
  /// In-edges of the busiest shard (critical-path proxy).
  uint64_t max_shard_edges = 0;
};

/// The partition plan: node -> shard assignment plus the materialized
/// slices. Immutable after Build; cheap to share by const reference.
class ShardPlan {
 public:
  /// Partitions `graph` into options.num_shards slices.
  static ShardPlan Build(const Graph& graph, const ShardingOptions& options);

  /// Scores `strategy` for `graph` under `model` without materializing
  /// slices (exposed for tests and placement diagnostics).
  static PlacementScore Score(const Graph& graph, PartitionStrategy strategy,
                              int num_shards, const CostModel& model);

  int num_shards() const { return partitioner_.num_workers(); }
  PartitionStrategy strategy() const { return partitioner_.strategy(); }

  /// The shard owning `node`.
  int Owner(NodeId node) const { return partitioner_.Owner(node); }

  /// The local CSR row of `node` within its owning shard's slice.
  uint32_t LocalRow(NodeId node) const { return local_row_[node]; }

  const ShardSlice& slice(int shard) const { return slices_[shard]; }

  /// In-neighbors of `node`, served from the owning shard's slice.
  /// `caller_shard` is the shard asking; *remote is set to true when the
  /// row lives on a different shard (a cross-shard adjacency fetch).
  std::span<const NodeId> InRow(NodeId node, int caller_shard,
                                bool* remote) const {
    const int owner = Owner(node);
    *remote = owner != caller_shard;
    return slices_[owner].Row(local_row_[node]);
  }

  /// The score of the chosen strategy and of the alternative, as computed
  /// at build time (equal strategies when placement was forced).
  const PlacementScore& chosen_score() const { return chosen_score_; }
  const PlacementScore& other_score() const { return other_score_; }

 private:
  ShardPlan(Partitioner partitioner, std::vector<ShardSlice> slices,
            std::vector<uint32_t> local_row, PlacementScore chosen,
            PlacementScore other)
      : partitioner_(partitioner),
        slices_(std::move(slices)),
        local_row_(std::move(local_row)),
        chosen_score_(chosen),
        other_score_(other) {}

  Partitioner partitioner_;
  std::vector<ShardSlice> slices_;
  std::vector<uint32_t> local_row_;  // node -> row in its owner's slice
  PlacementScore chosen_score_;
  PlacementScore other_score_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_SHARD_SHARDING_H_
