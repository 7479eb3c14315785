// Locality-aware snapshot reordering (DESIGN.md section 14).
//
// The walker-block scheduler's hit rate is a function of how well the
// node numbering clusters the in-adjacency: walkers hop to in-neighbors,
// so a numbering that places nodes near their in-neighbors (and hubs near
// each other) packs each level's frontier into fewer blocks. This pass
// renumbers the graph at `index --snapshot-out` time and stores the
// permutation (internal id -> external id, the kPermutation section) in
// the snapshot; the CloudWalker facade translates external ids at the API
// boundary so callers never see internal ids.
//
// Bit-identity across reordering: the per-source RNG key derives from the
// *external* id (KeyNode in engine/walk_step.h, which every executor
// applies with the permutation of its own copy of the artifact — the
// engine's WalkContext, the paged snapshot, a socket worker's mapping),
// and every in-row is stored sorted by external id, so a draw picks the
// same slot of the same row on both artifacts — every walker makes the
// same sequence of draws and visits the same external nodes as on the
// unreordered artifact, and walk distributions are exactly identical after
// id translation, on every backend. node2vec's membership test searches
// those rows by external id too (InRowContains in engine/walk.h).
// Combines that sum those distributions in internal-id order (the pair
// dot product, the single-source push) reassociate float sums only:
// equal to within rounding, exact for the endpoint top-k kinds. No
// combine draws a random number, so a renumbering redraws nothing.

#ifndef CLOUDWALKER_OOC_REORDER_H_
#define CLOUDWALKER_OOC_REORDER_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace cloudwalker {

/// The node-numbering strategies of the reorder pass. Fixed underlying
/// type so the facade can forward-declare the enum.
enum class ReorderKind : uint32_t {
  kNone = 0,
  /// Hubs first: order by (in-degree descending, id ascending). The
  /// heavy rows every frontier keeps revisiting share the first blocks.
  kDegree = 1,
  /// In-adjacency BFS from the highest-in-degree node (deterministic
  /// restarts by the degree order): each block holds a neighborhood, so a
  /// walker's next hop tends to stay in the block it is already in.
  kBfs = 2,
};

/// Parses "none" / "degree" / "bfs" (the CLI --reorder values).
StatusOr<ReorderKind> ParseReorderKind(const std::string& name);

/// The visit order of the reorder pass: perm[new_internal_id] =
/// external_id. kNone returns the identity.
std::vector<NodeId> ComputeLocalityOrder(const Graph& graph,
                                         ReorderKind kind);

/// A graph renumbered for locality, with everything a snapshot write
/// needs, all in internal (reordered) id space.
struct ReorderedArtifact {
  /// The renumbered graph. Out-rows are sorted by internal id; in-rows by
  /// *external* id (see the bit-identity note above).
  Graph graph;
  /// diagonal[internal] = original diagonal[perm[internal]] — permuted
  /// exactly, never re-estimated.
  std::vector<double> diagonal;
  /// internal id -> external id.
  std::vector<NodeId> perm;
};

/// Renumbers `graph` by ComputeLocalityOrder(kind) and permutes `diagonal`
/// alongside. kNone is rejected (write an ordinary snapshot instead).
StatusOr<ReorderedArtifact> ReorderForLocality(
    const Graph& graph, std::span<const double> diagonal, ReorderKind kind);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_OOC_REORDER_H_
