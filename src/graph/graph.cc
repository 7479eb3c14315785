#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace cloudwalker {

bool Graph::HasEdge(NodeId from, NodeId to) const {
  if (from >= num_nodes_ || to >= num_nodes_) return false;
  const auto nbrs = OutNeighbors(from);
  return std::binary_search(nbrs.begin(), nbrs.end(), to);
}

uint64_t Graph::MemoryBytes() const {
  return out_offsets_v_.size() * sizeof(uint64_t) +
         in_offsets_v_.size() * sizeof(uint64_t) +
         out_targets_v_.size() * sizeof(NodeId) +
         in_targets_v_.size() * sizeof(NodeId);
}

void Graph::AdoptOwnedStorage() {
  out_offsets_v_ = out_offsets_;
  out_targets_v_ = out_targets_;
  in_offsets_v_ = in_offsets_;
  in_targets_v_ = in_targets_;
}

void Graph::CopyFrom(const Graph& other) {
  num_nodes_ = other.num_nodes_;
  out_offsets_.assign(other.out_offsets_v_.begin(),
                      other.out_offsets_v_.end());
  out_targets_.assign(other.out_targets_v_.begin(),
                      other.out_targets_v_.end());
  in_offsets_.assign(other.in_offsets_v_.begin(), other.in_offsets_v_.end());
  in_targets_.assign(other.in_targets_v_.begin(), other.in_targets_v_.end());
  AdoptOwnedStorage();
}

Graph Graph::FromCsrViews(NodeId num_nodes,
                          std::span<const uint64_t> out_offsets,
                          std::span<const NodeId> out_targets,
                          std::span<const uint64_t> in_offsets,
                          std::span<const NodeId> in_targets) {
  Graph g;
  g.num_nodes_ = num_nodes;
  CW_CHECK_EQ(out_offsets.size(), static_cast<size_t>(num_nodes) + 1);
  CW_CHECK_EQ(in_offsets.size(), static_cast<size_t>(num_nodes) + 1);
  g.out_offsets_v_ = out_offsets;
  g.out_targets_v_ = out_targets;
  g.in_offsets_v_ = in_offsets;
  g.in_targets_v_ = in_targets;
  return g;
}

Graph Graph::FromCsr(NodeId num_nodes, std::vector<uint64_t> out_offsets,
                     std::vector<NodeId> out_targets,
                     std::vector<uint64_t> in_offsets,
                     std::vector<NodeId> in_targets) {
  CW_CHECK_EQ(out_offsets.size(), static_cast<size_t>(num_nodes) + 1);
  CW_CHECK_EQ(in_offsets.size(), static_cast<size_t>(num_nodes) + 1);
  Graph g;
  g.num_nodes_ = num_nodes;
  g.out_offsets_ = std::move(out_offsets);
  g.out_targets_ = std::move(out_targets);
  g.in_offsets_ = std::move(in_offsets);
  g.in_targets_ = std::move(in_targets);
  g.AdoptOwnedStorage();
  return g;
}

Graph Graph::Reversed() const {
  Graph g;
  g.num_nodes_ = num_nodes_;
  g.out_offsets_.assign(in_offsets_v_.begin(), in_offsets_v_.end());
  g.out_targets_.assign(in_targets_v_.begin(), in_targets_v_.end());
  g.in_offsets_.assign(out_offsets_v_.begin(), out_offsets_v_.end());
  g.in_targets_.assign(out_targets_v_.begin(), out_targets_v_.end());
  g.AdoptOwnedStorage();
  return g;
}

GraphBuilder::GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

StatusOr<Graph> GraphBuilder::Build(const GraphBuildOptions& options) {
  for (const Edge& e : edges_) {
    if (e.from >= num_nodes_ || e.to >= num_nodes_) {
      return Status::InvalidArgument(
          "edge (" + std::to_string(e.from) + " -> " + std::to_string(e.to) +
          ") out of range for " + std::to_string(num_nodes_) + " nodes");
    }
  }
  if (options.remove_self_loops) {
    edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                                [](const Edge& e) { return e.from == e.to; }),
                 edges_.end());
  }

  Graph g;
  g.num_nodes_ = num_nodes_;
  const size_t n = num_nodes_;

  // Out-CSR: counting scatter, then per-node sort (+ unique when deduping).
  g.out_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) ++g.out_offsets_[e.from + 1];
  for (size_t v = 0; v < n; ++v) g.out_offsets_[v + 1] += g.out_offsets_[v];
  g.out_targets_.resize(edges_.size());
  {
    std::vector<uint64_t> cursor(g.out_offsets_.begin(),
                                 g.out_offsets_.end() - 1);
    for (const Edge& e : edges_) g.out_targets_[cursor[e.from]++] = e.to;
  }
  if (options.dedup) {
    uint64_t write = 0;
    std::vector<uint64_t> new_offsets(n + 1, 0);
    for (size_t v = 0; v < n; ++v) {
      auto* begin = g.out_targets_.data() + g.out_offsets_[v];
      auto* end = g.out_targets_.data() + g.out_offsets_[v + 1];
      std::sort(begin, end);
      auto* last = std::unique(begin, end);
      for (auto* p = begin; p != last; ++p) g.out_targets_[write++] = *p;
      new_offsets[v + 1] = write;
    }
    g.out_targets_.resize(write);
    g.out_offsets_ = std::move(new_offsets);
  } else {
    for (size_t v = 0; v < n; ++v) {
      std::sort(g.out_targets_.begin() + g.out_offsets_[v],
                g.out_targets_.begin() + g.out_offsets_[v + 1]);
    }
  }

  // In-CSR is derived from the (already clean) out-CSR.
  g.in_offsets_.assign(n + 1, 0);
  for (NodeId t : g.out_targets_) ++g.in_offsets_[t + 1];
  for (size_t v = 0; v < n; ++v) g.in_offsets_[v + 1] += g.in_offsets_[v];
  g.in_targets_.resize(g.out_targets_.size());
  {
    std::vector<uint64_t> cursor(g.in_offsets_.begin(),
                                 g.in_offsets_.end() - 1);
    for (size_t v = 0; v < n; ++v) {
      for (uint64_t i = g.out_offsets_[v]; i < g.out_offsets_[v + 1]; ++i) {
        g.in_targets_[cursor[g.out_targets_[i]]++] = static_cast<NodeId>(v);
      }
    }
  }
  // The scatter above visits sources in increasing order, so each in-list is
  // already sorted.

  edges_.clear();
  edges_.shrink_to_fit();
  g.AdoptOwnedStorage();
  return g;
}

}  // namespace cloudwalker
