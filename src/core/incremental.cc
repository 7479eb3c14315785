#include "core/incremental.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "graph/components.h"

namespace cloudwalker {

StatusOr<IncrementalIndexer::State> IncrementalIndexer::Initialize(
    const Graph& graph, ThreadPool* pool) const {
  CW_RETURN_IF_ERROR(options_.Validate());
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot index an empty graph");
  }
  State state;
  IndexRows rows = BuildIndexRows(graph, options_, pool);
  state.rows = std::move(rows.rows);

  const double x0 = options_.initial_diagonal >= 0.0
                        ? options_.initial_diagonal
                        : 1.0 - options_.params.decay;
  std::vector<double> x(graph.num_nodes(), x0);
  for (uint32_t it = 0; it < options_.jacobi_iterations; ++it) {
    x = JacobiSweep(state.rows, x, pool);
  }
  state.index = DiagonalIndex(options_.params, std::move(x));
  return state;
}

std::vector<NodeId> IncrementalIndexer::DirtyNodes(
    const Graph& graph, const std::vector<EdgeUpdate>& updates) const {
  // A node k is dirty iff its reverse walks can visit a node whose in-set
  // changed (the head `to` of any update) and then take at least one more
  // step — i.e. k lies within T-1 *forward* hops of some update head on
  // the post-update graph. (For removed edges the first removed edge along
  // any stale walk path is itself an update head reachable on the new
  // graph, so heads of the new graph cover removals too.)
  std::vector<bool> dirty(graph.num_nodes(), false);
  const uint32_t radius =
      options_.params.num_steps > 0 ? options_.params.num_steps - 1 : 0;
  for (const EdgeUpdate& u : updates) {
    if (u.to >= graph.num_nodes()) continue;  // validated by ApplyUpdates
    for (const BfsVisit& visit :
         BfsReachable(graph, u.to, Direction::kForward, radius)) {
      dirty[visit.node] = true;
    }
  }
  std::vector<NodeId> out;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (dirty[v]) out.push_back(v);
  }
  return out;
}

StatusOr<IncrementalIndexer::State> IncrementalIndexer::ApplyUpdates(
    const Graph& updated_graph, const std::vector<EdgeUpdate>& updates,
    State state, ThreadPool* pool) const {
  if (updated_graph.num_nodes() != state.index.num_nodes()) {
    return Status::FailedPrecondition(
        "incremental updates require a stable node-id space (got " +
        std::to_string(updated_graph.num_nodes()) + " nodes, state has " +
        std::to_string(state.index.num_nodes()) + ")");
  }
  for (const EdgeUpdate& u : updates) {
    if (u.from >= updated_graph.num_nodes() ||
        u.to >= updated_graph.num_nodes()) {
      return Status::InvalidArgument("edge update endpoint out of range");
    }
  }

  const std::vector<NodeId> dirty = DirtyNodes(updated_graph, updates);
  state.last_dirty_count = dirty.size();

  // Re-estimate exactly the dirty rows. Per-node seeds match a full
  // rebuild, so the row *matrix* is bit-identical to rebuilding from
  // scratch; the solve below warm-starts from the previous diagonal and
  // therefore converges to the same solution (not bit-identically —
  // usually closer, since the warm start is already near the fixpoint).
  ParallelFor(pool, 0, dirty.size(), /*grain=*/0,
              [&](uint64_t begin, uint64_t end) {
                WalkScratch scratch_walk(options_.num_walkers);
                IndexRowScratch scratch_row;
                for (uint64_t i = begin; i < end; ++i) {
                  state.rows[dirty[i]] =
                      BuildIndexRow(updated_graph, dirty[i], options_,
                                    &scratch_walk, &scratch_row);
                }
              });

  // Warm-started re-solve over all rows.
  const std::span<const double> d = state.index.diagonal();
  std::vector<double> x(d.begin(), d.end());
  for (uint32_t it = 0; it < options_.jacobi_iterations; ++it) {
    x = JacobiSweep(state.rows, x, pool);
  }
  state.index = DiagonalIndex(options_.params, std::move(x));
  return state;
}

}  // namespace cloudwalker
