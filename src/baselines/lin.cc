#include "baselines/lin.h"

#include <atomic>
#include <span>

#include "common/logging.h"
#include "common/sparse.h"
#include "core/indexer.h"
#include "engine/walk.h"

namespace cloudwalker {

StatusOr<LinIndex> LinIndex::Build(const Graph& graph, const Options& options,
                                   ThreadPool* pool) {
  CW_RETURN_IF_ERROR(options.params.Validate());
  if (options.jacobi_iterations < 1) {
    return Status::InvalidArgument("jacobi_iterations must be >= 1");
  }
  if (!(options.prune_threshold >= 0.0)) {
    return Status::InvalidArgument("prune_threshold must be >= 0");
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot index an empty graph");
  }

  const NodeId n = graph.num_nodes();
  std::vector<SparseVector> rows(n);
  std::atomic<uint64_t> edge_ops{0};
  std::atomic<bool> exhausted{false};

  ParallelFor(pool, 0, n, /*grain=*/0, [&](uint64_t begin, uint64_t end) {
    SparseAccumulator scratch_row(256);
    uint64_t local_ops = 0;
    for (uint64_t k = begin; k < end; ++k) {
      if (exhausted.load(std::memory_order_relaxed)) return;
      const WalkDistributions dists = ExactWalkDistributions(
          graph, static_cast<NodeId>(k), options.params.num_steps,
          options.prune_threshold, &local_ops);
      rows[k] = RowFromWalkDistributions(dists, options.params.decay,
                                         &scratch_row);
      // Budget check per node keeps the overshoot bounded by one node.
      const uint64_t seen =
          edge_ops.load(std::memory_order_relaxed) + local_ops;
      if (seen > options.max_edge_ops) {
        exhausted.store(true, std::memory_order_relaxed);
        edge_ops.fetch_add(local_ops, std::memory_order_relaxed);
        return;
      }
    }
    edge_ops.fetch_add(local_ops, std::memory_order_relaxed);
  });

  if (exhausted.load(std::memory_order_relaxed)) {
    return Status::ResourceExhausted(
        "LIN preprocessing exceeded the edge-op budget of " +
        std::to_string(options.max_edge_ops));
  }

  const double x0 = 1.0 - options.params.decay;
  std::vector<double> x(n, x0);
  for (uint32_t it = 0; it < options.jacobi_iterations; ++it) {
    x = JacobiSweep(rows, x, pool);
  }
  return LinIndex(&graph, options,
                  DiagonalIndex(options.params, std::move(x)),
                  edge_ops.load(std::memory_order_relaxed));
}

double LinIndex::SinglePair(NodeId i, NodeId j) const {
  CW_CHECK_LT(i, graph_->num_nodes());
  CW_CHECK_LT(j, graph_->num_nodes());
  if (i == j) return 1.0;
  const WalkDistributions di = ExactWalkDistributions(
      *graph_, i, options_.params.num_steps, options_.prune_threshold);
  const WalkDistributions dj = ExactWalkDistributions(
      *graph_, j, options_.params.num_steps, options_.prune_threshold);
  double sum = 0.0;
  double ct = 1.0;
  for (size_t t = 0; t < di.levels.size(); ++t) {
    if (t > 0) {
      sum += ct * SparseVector::DotWeighted(di.levels[t], dj.levels[t],
                                            diagonal_.diagonal());
    }
    ct *= options_.params.decay;
  }
  return sum;
}

std::vector<double> LinIndex::SingleSource(NodeId q) const {
  CW_CHECK_LT(q, graph_->num_nodes());
  const NodeId n = graph_->num_nodes();
  const WalkDistributions dists = ExactWalkDistributions(
      *graph_, q, options_.params.num_steps, options_.prune_threshold);
  const std::span<const double> diag = diagonal_.diagonal();

  std::vector<double> scores(n, 0.0);
  SparseAccumulator acc(1024);
  double ct = 1.0;
  for (size_t t = 0; t < dists.levels.size(); ++t) {
    // z = c^t D u_{q,t}, pushed forward t steps through P^T exactly.
    std::vector<SparseEntry> z_entries;
    z_entries.reserve(dists.levels[t].size());
    for (const SparseEntry& e : dists.levels[t]) {
      const double v = ct * diag[e.index] * e.value;
      if (v != 0.0) z_entries.push_back(SparseEntry{e.index, v});
    }
    SparseVector z = SparseVector::FromSorted(std::move(z_entries));
    for (size_t step = 0; step < t && !z.empty(); ++step) {
      acc.Clear();
      for (const SparseEntry& e : z) {
        for (const NodeId v : graph_->OutNeighbors(e.index)) {
          acc.Add(v, e.value / static_cast<double>(graph_->InDegree(v)));
        }
      }
      z = acc.ToSortedVector();
      if (options_.prune_threshold > 0.0) z.Prune(options_.prune_threshold);
    }
    for (const SparseEntry& e : z) scores[e.index] += e.value;
    ct *= options_.params.decay;
  }
  scores[q] = 1.0;
  return scores;
}

uint64_t LinIndex::EstimateBuildEdgeOps(const Graph& graph,
                                        const Options& options,
                                        NodeId sample_nodes) {
  const NodeId n = graph.num_nodes();
  if (n == 0) return 0;
  const NodeId samples = std::min(sample_nodes, n);
  uint64_t ops = 0;
  for (NodeId s = 0; s < samples; ++s) {
    // Evenly spaced sources give a fair mix of hub / leaf behaviour.
    const NodeId k = static_cast<NodeId>(
        (static_cast<uint64_t>(s) * n) / samples);
    ExactWalkDistributions(graph, k, options.params.num_steps,
                           options.prune_threshold, &ops);
  }
  return ops * (n / samples);
}

}  // namespace cloudwalker
