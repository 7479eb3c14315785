#include "ooc/reorder.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace cloudwalker {
namespace {

// Old node ids ordered by (in-degree descending, id ascending) — the
// degree numbering itself, and the deterministic seed/restart order of the
// BFS numbering.
std::vector<NodeId> DegreeOrder(const Graph& graph) {
  std::vector<NodeId> order(graph.num_nodes());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return graph.InDegree(a) > graph.InDegree(b);
  });
  return order;
}

}  // namespace

StatusOr<ReorderKind> ParseReorderKind(const std::string& name) {
  if (name == "none") return ReorderKind::kNone;
  if (name == "degree") return ReorderKind::kDegree;
  if (name == "bfs") return ReorderKind::kBfs;
  return Status::InvalidArgument("unknown reorder kind '" + name +
                                 "' (expected none, degree, or bfs)");
}

std::vector<NodeId> ComputeLocalityOrder(const Graph& graph,
                                         ReorderKind kind) {
  const NodeId n = graph.num_nodes();
  if (kind == ReorderKind::kNone) {
    std::vector<NodeId> identity(n);
    std::iota(identity.begin(), identity.end(), 0u);
    return identity;
  }
  std::vector<NodeId> seeds = DegreeOrder(graph);
  if (kind == ReorderKind::kDegree) return seeds;

  // kBfs: breadth-first over the in-adjacency (the direction walkers
  // move), highest-in-degree seeds, deterministic restarts for every
  // component.
  std::vector<NodeId> perm;
  perm.reserve(n);
  std::vector<uint8_t> visited(n, 0);
  std::vector<NodeId> queue;
  for (const NodeId seed : seeds) {
    if (visited[seed]) continue;
    visited[seed] = 1;
    queue.assign(1, seed);
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      perm.push_back(v);
      for (const NodeId w : graph.InNeighbors(v)) {
        if (!visited[w]) {
          visited[w] = 1;
          queue.push_back(w);
        }
      }
    }
  }
  return perm;
}

StatusOr<ReorderedArtifact> ReorderForLocality(const Graph& graph,
                                               std::span<const double> diagonal,
                                               ReorderKind kind) {
  if (kind == ReorderKind::kNone) {
    return Status::InvalidArgument(
        "reorder kind 'none' writes an ordinary snapshot; no permutation to "
        "apply");
  }
  const NodeId n = graph.num_nodes();
  if (diagonal.size() != n) {
    return Status::InvalidArgument(
        "reorder: diagonal has " + std::to_string(diagonal.size()) +
        " entries for " + std::to_string(n) + " nodes");
  }
  ReorderedArtifact art;
  art.perm = ComputeLocalityOrder(graph, kind);
  CW_CHECK_EQ(art.perm.size(), static_cast<size_t>(n));

  std::vector<NodeId> inv(n);  // external -> internal
  for (NodeId u = 0; u < n; ++u) inv[art.perm[u]] = u;

  // Relabel the edge list verbatim — no dedup, no loop removal — so the
  // reordered graph is exactly the original under the bijection.
  GraphBuilder builder(n);
  builder.Reserve(graph.num_edges());
  for (NodeId old_u = 0; old_u < n; ++old_u) {
    for (const NodeId old_v : graph.OutNeighbors(old_u)) {
      builder.AddEdge(inv[old_u], inv[old_v]);
    }
  }
  GraphBuildOptions opts;
  opts.dedup = false;
  opts.remove_self_loops = false;
  CW_ASSIGN_OR_RETURN(const Graph relabeled, builder.Build(opts));

  // Sort every in-row by *external* id: slot k of a row is then the
  // in-neighbor the unreordered artifact's row holds at slot k, so a draw
  // picks the same external node on both artifacts.
  const std::span<const uint64_t> in_offsets = relabeled.InOffsets();
  std::vector<NodeId> in_targets(relabeled.InTargets().begin(),
                                 relabeled.InTargets().end());
  for (NodeId u = 0; u < n; ++u) {
    std::sort(in_targets.begin() + in_offsets[u],
              in_targets.begin() + in_offsets[u + 1],
              [&](NodeId a, NodeId b) { return art.perm[a] < art.perm[b]; });
  }
  art.graph = Graph::FromCsr(
      n,
      std::vector<uint64_t>(relabeled.OutOffsets().begin(),
                            relabeled.OutOffsets().end()),
      std::vector<NodeId>(relabeled.OutTargets().begin(),
                          relabeled.OutTargets().end()),
      std::vector<uint64_t>(in_offsets.begin(), in_offsets.end()),
      std::move(in_targets));

  art.diagonal.resize(n);
  for (NodeId u = 0; u < n; ++u) art.diagonal[u] = diagonal[art.perm[u]];
  return art;
}

}  // namespace cloudwalker
