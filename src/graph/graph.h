// Immutable directed graph in compressed-sparse-row form, with both
// out-adjacency (forward edges) and in-adjacency (reverse edges) because
// SimRank walks follow in-links while MCSS pushes mass along out-links.

#ifndef CLOUDWALKER_GRAPH_GRAPH_H_
#define CLOUDWALKER_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace cloudwalker {

/// Node identifier; dense in [0, num_nodes).
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Immutable CSR digraph. Construct with GraphBuilder, the generators in
/// graph/generators.h, FromCsr, or — zero-copy over external flat arrays
/// such as an mmapped snapshot — FromCsrViews. Accessors read through
/// internal spans, so the same kernel code walks a heap-built graph and a
/// snapshot view identically (DESIGN.md section 9). Copying always
/// materializes into owned storage (a copy never dangles when the external
/// memory goes away); moves are cheap and preserve the storage mode.
class Graph {
 public:
  /// An empty graph with zero nodes.
  Graph() { AdoptOwnedStorage(); }

  Graph(const Graph& other) { CopyFrom(other); }
  Graph& operator=(const Graph& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  // Vector moves keep the heap buffers in place, so the spans stay valid.
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;

  /// Wraps externally owned CSR arrays without copying. The arrays must
  /// satisfy the builder's invariants (offsets of size num_nodes + 1
  /// starting at 0, per-row sorted targets — in-rows of a
  /// locality-reordered snapshot are sorted by external id instead,
  /// DESIGN.md section 14) and must outlive the returned graph and every
  /// move of it — the caller keeps ownership (the snapshot layer pins the
  /// backing mmap for exactly this reason).
  static Graph FromCsrViews(NodeId num_nodes,
                            std::span<const uint64_t> out_offsets,
                            std::span<const NodeId> out_targets,
                            std::span<const uint64_t> in_offsets,
                            std::span<const NodeId> in_targets);

  /// Owning counterpart of FromCsrViews: adopts the arrays, same
  /// invariants.
  static Graph FromCsr(NodeId num_nodes, std::vector<uint64_t> out_offsets,
                       std::vector<NodeId> out_targets,
                       std::vector<uint64_t> in_offsets,
                       std::vector<NodeId> in_targets);

  /// False when the CSR arrays alias external memory (FromCsrViews).
  bool owns_storage() const {
    return out_offsets_v_.data() == out_offsets_.data();
  }

  /// Number of nodes.
  NodeId num_nodes() const { return num_nodes_; }

  /// Number of directed edges.
  uint64_t num_edges() const { return out_targets_v_.size(); }

  /// Targets of edges leaving `v` (sorted ascending).
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {out_targets_v_.data() + out_offsets_v_[v],
            out_targets_v_.data() + out_offsets_v_[v + 1]};
  }

  /// Sources of edges entering `v` (sorted ascending; by external id on a
  /// locality-reordered snapshot).
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_targets_v_.data() + in_offsets_v_[v],
            in_targets_v_.data() + in_offsets_v_[v + 1]};
  }

  /// Out-degree of `v`.
  uint32_t OutDegree(NodeId v) const {
    return static_cast<uint32_t>(out_offsets_v_[v + 1] - out_offsets_v_[v]);
  }

  /// In-degree of `v`.
  uint32_t InDegree(NodeId v) const {
    return static_cast<uint32_t>(in_offsets_v_[v + 1] - in_offsets_v_[v]);
  }

  /// The k-th in-neighbor of `v` (unchecked).
  NodeId InNeighbor(NodeId v, uint32_t k) const {
    return in_targets_v_[in_offsets_v_[v] + k];
  }

  /// The k-th out-neighbor of `v` (unchecked).
  NodeId OutNeighbor(NodeId v, uint32_t k) const {
    return out_targets_v_[out_offsets_v_[v] + k];
  }

  /// The raw CSR arrays (offsets size num_nodes + 1, targets size
  /// num_edges). The snapshot writer streams these to disk verbatim.
  std::span<const uint64_t> OutOffsets() const { return out_offsets_v_; }
  std::span<const NodeId> OutTargets() const { return out_targets_v_; }
  std::span<const uint64_t> InOffsets() const { return in_offsets_v_; }
  std::span<const NodeId> InTargets() const { return in_targets_v_; }

  /// True if the edge (from -> to) exists; O(log outdeg(from)).
  bool HasEdge(NodeId from, NodeId to) const;

  /// Resident memory of the CSR arrays in bytes (external view memory
  /// counts too: it is what the kernels actually touch).
  uint64_t MemoryBytes() const;

  /// Returns a graph with every edge reversed (out <-> in swapped);
  /// shares no state with this graph (deep copy of the swapped arrays).
  Graph Reversed() const;

 private:
  friend class GraphBuilder;

  // Re-points every view at this instance's owned vectors.
  void AdoptOwnedStorage();
  // Deep copy: materializes `other`'s views into owned storage.
  void CopyFrom(const Graph& other);

  NodeId num_nodes_ = 0;
  // Owned backing arrays (empty in view mode).
  std::vector<uint64_t> out_offsets_{0};  // size num_nodes_+1
  std::vector<NodeId> out_targets_;
  std::vector<uint64_t> in_offsets_{0};   // size num_nodes_+1
  std::vector<NodeId> in_targets_;
  // What the accessors read: the owned vectors or external flat arrays.
  std::span<const uint64_t> out_offsets_v_;
  std::span<const NodeId> out_targets_v_;
  std::span<const uint64_t> in_offsets_v_;
  std::span<const NodeId> in_targets_v_;
};

/// Options controlling GraphBuilder::Build.
struct GraphBuildOptions {
  /// Remove duplicate parallel edges.
  bool dedup = true;
  /// Remove self loops (v -> v). SimRank is conventionally defined on
  /// loop-free graphs; keep the default unless studying sensitivity.
  bool remove_self_loops = true;
};

/// Accumulates an edge list and produces an immutable Graph.
class GraphBuilder {
 public:
  /// `num_nodes` fixes the node-id space [0, num_nodes).
  explicit GraphBuilder(NodeId num_nodes);

  /// Adds a directed edge; ids are validated at Build time.
  void AddEdge(NodeId from, NodeId to) { edges_.push_back({from, to}); }

  /// Number of edges added so far (before dedup).
  size_t num_pending_edges() const { return edges_.size(); }

  /// Reserves capacity for `n` AddEdge calls.
  void Reserve(size_t n) { edges_.reserve(n); }

  /// Builds the CSR representation. Fails with InvalidArgument if any edge
  /// endpoint is out of range. The builder is left empty afterwards.
  StatusOr<Graph> Build(const GraphBuildOptions& options = {});

 private:
  struct Edge {
    NodeId from;
    NodeId to;
  };
  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_GRAPH_GRAPH_H_
