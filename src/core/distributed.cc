#include "core/distributed.h"

#include <atomic>
#include <cmath>
#include <vector>

#include "cluster/partitioner.h"
#include "common/logging.h"
#include "core/indexer.h"
#include "core/queries.h"
#include "engine/walk.h"

namespace cloudwalker {
namespace {

/// Serialized size of one walker exchange record: (source, position, rng
/// cursor) — what the RDD model ships between partitions each superstep.
constexpr uint64_t kWalkerRecordBytes = 12;

/// Serialized size of one (node, double) pair in shuffles.
constexpr uint64_t kEntryRecordBytes = 12;

/// Bytes each worker needs beyond the graph during indexing: the diag(D)
/// iterate plus the right-hand side.
uint64_t IterateBytes(const Graph& graph) {
  return static_cast<uint64_t>(graph.num_nodes()) * 2 * sizeof(double);
}

WalkConfig WalkConfigFromIndexing(const IndexingOptions& options) {
  WalkConfig cfg;
  cfg.num_steps = options.params.num_steps;
  cfg.num_walkers = options.num_walkers;
  cfg.dangling = options.dangling;
  cfg.seed = options.seed;
  return cfg;
}

/// Fraction of uniformly-placed records that land on a remote partition.
double RemoteFraction(int num_workers) {
  return num_workers <= 1
             ? 0.0
             : static_cast<double>(num_workers - 1) / num_workers;
}

}  // namespace

const char* ExecutionModelName(ExecutionModel model) {
  return model == ExecutionModel::kBroadcasting ? "Broadcasting" : "RDD";
}

StatusOr<DistributedIndexResult> DistributedBuildIndex(
    const Graph& graph, const IndexingOptions& options, ExecutionModel model,
    const ClusterConfig& cluster_config, const CostModel& cost_model,
    ThreadPool* pool) {
  CW_RETURN_IF_ERROR(options.Validate());
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot index an empty graph");
  }

  SimCluster cluster(cluster_config, cost_model, pool);
  const int w = cluster.num_workers();
  const NodeId n = graph.num_nodes();
  const uint32_t t_steps = options.params.num_steps;

  DistributedIndexResult result;

  if (model == ExecutionModel::kBroadcasting) {
    // Every worker holds a full graph replica.
    if (!cluster.CheckWorkerMemory(graph.MemoryBytes() + IterateBytes(graph),
                                   "graph replica")) {
      result.cost = cluster.report();
      return result;
    }
    const Partitioner part(PartitionStrategy::kRange, n, w);

    // Stage 1: per-node walks + row estimation over range partitions.
    std::vector<SparseVector> rows(n);
    std::atomic<uint64_t> max_row_bytes{0};
    cluster.RunStage(
        "index-walks",
        [&](int worker, WorkMeter& meter) {
          NodeId begin = 0, end = 0;
          part.OwnedRange(worker, &begin, &end);
          WalkScratch scratch_walk(options.num_walkers);
          IndexRowScratch scratch_row;
          uint64_t steps = 0, nnz = 0;
          for (NodeId k = begin; k < end; ++k) {
            rows[k] = BuildIndexRow(graph, k, options, &scratch_walk,
                                    &scratch_row, &steps);
            nnz += rows[k].size();
          }
          meter.AddWalkSteps(steps);
          meter.AddFlops(nnz * 3);  // square, scale, accumulate
          const uint64_t bytes = nnz * (sizeof(SparseEntry));
          uint64_t seen = max_row_bytes.load(std::memory_order_relaxed);
          while (bytes > seen && !max_row_bytes.compare_exchange_weak(
                                     seen, bytes, std::memory_order_relaxed)) {
          }
        },
        /*tasks_per_worker=*/cluster_config.cores_per_worker);

    if (options.row_mode == RowMode::kStoreRows) {
      // Materialized rows are spillable (a Spark executor would spill them
      // or fall back to RowMode::kRegenerate), so they contribute to peak
      // memory without gating feasibility — only the graph replica does.
      cluster.RecordWorkerMemory(
          graph.MemoryBytes() + IterateBytes(graph) +
          max_row_bytes.load(std::memory_order_relaxed));
    }

    // Jacobi: broadcast x, sweep owned rows, gather updates.
    const double x0 = options.initial_diagonal >= 0.0
                          ? options.initial_diagonal
                          : 1.0 - options.params.decay;
    std::vector<double> x(n, x0);
    for (uint32_t it = 0; it < options.jacobi_iterations; ++it) {
      cluster.Broadcast(static_cast<uint64_t>(n) * sizeof(double));
      std::vector<double> next(n);
      cluster.RunStage(
          "jacobi-sweep",
          [&](int worker, WorkMeter& meter) {
            NodeId begin = 0, end = 0;
            part.OwnedRange(worker, &begin, &end);
            uint64_t nnz = 0;
            for (NodeId k = begin; k < end; ++k) {
              double off = 0.0, diag = 0.0;
              for (const SparseEntry& e : rows[k]) {
                if (e.index == k) {
                  diag = e.value;
                } else {
                  off += e.value * x[e.index];
                }
              }
              next[k] = diag != 0.0 ? (1.0 - off) / diag : x[k];
              nnz += rows[k].size();
            }
            meter.AddFlops(nnz * 2);
          },
          /*tasks_per_worker=*/cluster_config.cores_per_worker);
      cluster.Shuffle(static_cast<uint64_t>(n) * sizeof(double));
      x = std::move(next);
    }
    result.index = DiagonalIndex(options.params, std::move(x));
    result.cost = cluster.report();
    return result;
  }

  // --- RDD model ---
  // Per-worker state: one hash partition of the graph, the in-flight walker
  // RDD, and this partition's row fragments.
  const Partitioner part(PartitionStrategy::kHash, n, w);
  const uint64_t walker_state_bytes = static_cast<uint64_t>(n) *
                                      options.num_walkers * kWalkerRecordBytes /
                                      std::max(1, w);
  // Hash partitions are balanced to within a few percent; 1.1 covers skew.
  const uint64_t partition_bytes =
      static_cast<uint64_t>(1.1 * graph.MemoryBytes() / std::max(1, w));
  if (!cluster.CheckWorkerMemory(
          partition_bytes + walker_state_bytes + IterateBytes(graph) / w,
          "graph partition + walker state")) {
    result.cost = cluster.report();
    return result;
  }

  const NodeOwnerFn owner = [&part](NodeId v) { return part.Owner(v); };

  // Superstep 1 carries the real computation (results are identical to the
  // Broadcasting model: same per-source seeds); supersteps 2..T are
  // accounted afterwards so the stage/shuffle structure matches a BSP
  // walker exchange.
  std::vector<SparseVector> rows(n);
  std::atomic<uint64_t> total_steps{0}, total_crossings{0}, total_nnz{0};
  cluster.RunStage(
      "walk-superstep",
      [&](int worker, WorkMeter& meter) {
        WalkScratch scratch_walk(options.num_walkers);
        SparseAccumulator scratch_row(options.num_walkers * (t_steps + 1));
        const WalkConfig cfg = WalkConfigFromIndexing(options);
        uint64_t steps = 0, crossings = 0, nnz = 0;
        for (NodeId k = 0; k < n; ++k) {
          if (part.Owner(k) != worker) continue;
          WalkStats ws;
          const WalkDistributions dists = SimulateWalkDistributions(
              graph, k, cfg, &scratch_walk, &owner, &ws);
          rows[k] = RowFromWalkDistributions(dists, options.params.decay,
                                             &scratch_row);
          steps += ws.steps;
          crossings += ws.partition_crossings;
          nnz += rows[k].size();
        }
        meter.AddWalkSteps(steps);
        meter.AddFlops(nnz * 3);
        total_steps.fetch_add(steps, std::memory_order_relaxed);
        total_crossings.fetch_add(crossings, std::memory_order_relaxed);
        total_nnz.fetch_add(nnz, std::memory_order_relaxed);
      },
      /*tasks_per_worker=*/cluster_config.cores_per_worker);

  const uint64_t crossings = total_crossings.load(std::memory_order_relaxed);
  const uint64_t nnz = total_nnz.load(std::memory_order_relaxed);
  for (uint32_t t = 1; t <= t_steps; ++t) {
    // Walker exchange of this superstep (volume spread evenly over steps).
    cluster.Shuffle(crossings * kWalkerRecordBytes / std::max(1u, t_steps));
    if (t > 1) {
      // Remaining supersteps: compute already accounted in superstep 1's
      // meter; pay the per-stage scheduling cost.
      cluster.RunStage("walk-superstep", [](int, WorkMeter&) {},
                       cluster_config.cores_per_worker);
    }
  }
  // Row fragments are grouped by source's home partition.
  cluster.RunStage("assemble-rows", [](int, WorkMeter&) {},
                   cluster_config.cores_per_worker);
  cluster.Shuffle(static_cast<uint64_t>(
      static_cast<double>(nnz) * kEntryRecordBytes * RemoteFraction(w)));

  // Jacobi over the partitioned rows: each iteration joins the x RDD
  // against row references (shuffle) and sweeps locally.
  const double x0 = options.initial_diagonal >= 0.0
                        ? options.initial_diagonal
                        : 1.0 - options.params.decay;
  std::vector<double> x(n, x0);
  for (uint32_t it = 0; it < options.jacobi_iterations; ++it) {
    cluster.Shuffle(static_cast<uint64_t>(static_cast<double>(n) *
                                          sizeof(double) * RemoteFraction(w)));
    std::vector<double> next(n);
    cluster.RunStage(
        "jacobi-sweep",
        [&](int worker, WorkMeter& meter) {
          uint64_t flops = 0;
          for (NodeId k = 0; k < n; ++k) {
            if (part.Owner(k) != worker) continue;
            double off = 0.0, diag = 0.0;
            for (const SparseEntry& e : rows[k]) {
              if (e.index == k) {
                diag = e.value;
              } else {
                off += e.value * x[e.index];
              }
            }
            next[k] = diag != 0.0 ? (1.0 - off) / diag : x[k];
            flops += rows[k].size() * 2;
          }
          meter.AddFlops(flops);
        },
        /*tasks_per_worker=*/cluster_config.cores_per_worker);
    x = std::move(next);
  }
  result.index = DiagonalIndex(options.params, std::move(x));
  result.cost = cluster.report();
  return result;
}

StatusOr<DistributedPairResult> DistributedSinglePair(
    const Graph& graph, const DiagonalIndex& index, NodeId i, NodeId j,
    const QueryOptions& options, ExecutionModel model,
    const ClusterConfig& cluster_config, const CostModel& cost_model,
    ThreadPool* pool) {
  CW_RETURN_IF_ERROR(options.Validate());
  if (i >= graph.num_nodes() || j >= graph.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  if (index.num_nodes() != graph.num_nodes()) {
    return Status::FailedPrecondition("index/graph node count mismatch");
  }

  SimCluster cluster(cluster_config, cost_model, pool);
  DistributedPairResult result;

  if (model == ExecutionModel::kBroadcasting) {
    // Driver-local: the driver holds the graph and diag(D).
    if (!cluster.CheckWorkerMemory(graph.MemoryBytes() + IterateBytes(graph),
                                   "graph replica on driver")) {
      result.cost = cluster.report();
      return result;
    }
    cluster.RunDriver([&](WorkMeter& meter) {
      QueryStats qs;
      result.value = SinglePairQuery(graph, index, i, j, options, &qs);
      meter.AddWalkSteps(qs.walk_steps);
      meter.AddFlops(qs.walk_steps);  // dot-product accumulation
    });
    result.cost = cluster.report();
    return result;
  }

  // RDD: T walk supersteps for the two walker clouds + one aggregation
  // stage joining against the partitioned diag(D).
  const Partitioner part(PartitionStrategy::kHash, graph.num_nodes(),
                         cluster.num_workers());
  const NodeOwnerFn owner = [&part](NodeId v) { return part.Owner(v); };
  QueryStats qs;
  cluster.RunStage(
      "pair-walk-superstep",
      [&](int worker, WorkMeter& meter) {
        if (worker != part.Owner(i)) return;  // walks start at i's and j's
        QueryStats local;                     // home; model as one task
        result.value =
            SinglePairQuery(graph, index, i, j, options, &local, &owner);
        meter.AddWalkSteps(local.walk_steps);
        meter.AddFlops(local.walk_steps);
        qs = local;
      },
      /*tasks_per_worker=*/1);
  const uint32_t t_steps = index.params().num_steps;
  for (uint32_t t = 2; t <= t_steps; ++t) {
    cluster.RunStage("pair-walk-superstep", [](int, WorkMeter&) {}, 1);
  }
  cluster.Shuffle(qs.walk_crossings * kWalkerRecordBytes);
  // Aggregation: empirical distributions joined with D by node key.
  cluster.RunStage("pair-aggregate", [](int, WorkMeter&) {}, 1);
  cluster.Shuffle(static_cast<uint64_t>(
      static_cast<double>(2ull * options.num_walkers * t_steps) *
      kEntryRecordBytes * RemoteFraction(cluster.num_workers())));
  result.cost = cluster.report();
  return result;
}

StatusOr<DistributedSourceResult> DistributedSingleSource(
    const Graph& graph, const DiagonalIndex& index, NodeId q,
    const QueryOptions& options, ExecutionModel model,
    const ClusterConfig& cluster_config, const CostModel& cost_model,
    ThreadPool* pool) {
  CW_RETURN_IF_ERROR(options.Validate());
  if (q >= graph.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  if (index.num_nodes() != graph.num_nodes()) {
    return Status::FailedPrecondition("index/graph node count mismatch");
  }

  SimCluster cluster(cluster_config, cost_model, pool);
  DistributedSourceResult result;

  if (model == ExecutionModel::kBroadcasting) {
    if (!cluster.CheckWorkerMemory(graph.MemoryBytes() + IterateBytes(graph),
                                   "graph replica on driver")) {
      result.cost = cluster.report();
      return result;
    }
    cluster.RunDriver([&](WorkMeter& meter) {
      QueryStats qs;
      result.scores = SingleSourceQuery(graph, index, q, options, &qs);
      meter.AddWalkSteps(qs.walk_steps);
      meter.AddEdgeOps(qs.push_ops);
      meter.AddFlops(qs.walk_steps + qs.push_ops);
    });
    result.cost = cluster.report();
    return result;
  }

  // RDD: T walk supersteps + T push supersteps + aggregation.
  const Partitioner part(PartitionStrategy::kHash, graph.num_nodes(),
                         cluster.num_workers());
  const NodeOwnerFn owner = [&part](NodeId v) { return part.Owner(v); };
  QueryStats qs;
  cluster.RunStage(
      "source-walk-superstep",
      [&](int worker, WorkMeter& meter) {
        if (worker != part.Owner(q)) return;
        QueryStats local;
        result.scores =
            SingleSourceQuery(graph, index, q, options, &local, &owner);
        meter.AddWalkSteps(local.walk_steps);
        meter.AddEdgeOps(local.push_ops);
        meter.AddFlops(local.walk_steps + local.push_ops);
        qs = local;
      },
      /*tasks_per_worker=*/1);
  const uint32_t t_steps = index.params().num_steps;
  for (uint32_t t = 2; t <= t_steps; ++t) {
    cluster.RunStage("source-walk-superstep", [](int, WorkMeter&) {}, 1);
  }
  cluster.Shuffle(qs.walk_crossings * kWalkerRecordBytes);
  for (uint32_t t = 1; t <= t_steps; ++t) {
    cluster.RunStage("source-push-superstep", [](int, WorkMeter&) {}, 1);
  }
  cluster.Shuffle(qs.push_crossings * kEntryRecordBytes);
  cluster.RunStage("source-aggregate", [](int, WorkMeter&) {}, 1);
  cluster.Shuffle(static_cast<uint64_t>(
      static_cast<double>(result.scores.size()) * kEntryRecordBytes *
      RemoteFraction(cluster.num_workers())));
  result.cost = cluster.report();
  return result;
}

}  // namespace cloudwalker
