// Block layout pass of the out-of-core walk engine (DESIGN.md section 14).
//
// The demand-paged snapshot section — kInTargets, the per-edge array that
// dominates a snapshot's bytes — is partitioned into self-contained
// node-range blocks: block b covers nodes [node_begin, node_end) and the
// matching edge range [in_offsets[node_begin], in_offsets[node_end)), so
// one block read makes every walker resident on its nodes advanceable
// without touching another block. Blocks are cut greedily at
// ~target_block_bytes of paged payload (4 bytes per in-edge), always at
// node boundaries, so a node's row never straddles blocks.
//
// The layout is computed once at snapshot-write time and persisted as the
// kBlockIndex section, stamped with a per-block CRC of the paged slice —
// the block cache reads block payloads with pread (no whole-file mapping,
// so an address-space cap applies to it meaningfully) and therefore cannot
// lean on the section-level CRC pass; the per-block CRCs restore the same
// read-time tamper evidence at block granularity.
//
// Index version 1 (written into version 1 snapshots) also carried a CRC of
// each block's alias-arena slice; a reader keeps only the in-target
// extents and CRCs.

#ifndef CLOUDWALKER_OOC_BLOCK_LAYOUT_H_
#define CLOUDWALKER_OOC_BLOCK_LAYOUT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace cloudwalker {

/// Paged bytes one in-edge contributes (its kInTargets id).
inline constexpr uint64_t kPagedBytesPerEdge = sizeof(NodeId);

/// One self-contained node-range block of the paged section.
struct BlockExtent {
  uint64_t node_begin = 0;  // first node of the block
  uint64_t node_end = 0;    // one past the last node
  uint64_t edge_begin = 0;  // in_offsets[node_begin]
  uint64_t edge_end = 0;    // in_offsets[node_end]
  uint32_t crc_in_targets = 0;  // CRC-32 of the kInTargets slice

  /// In-edges covered by the block.
  uint64_t num_edges() const { return edge_end - edge_begin; }
  /// Bytes of paged payload the block pins while resident.
  uint64_t payload_bytes() const { return num_edges() * kPagedBytesPerEdge; }

  bool operator==(const BlockExtent&) const = default;
};

/// Default block payload target: 1 MiB of paged bytes per block.
inline constexpr uint64_t kDefaultBlockBytes = 1ull << 20;

/// Cuts [0, n) into node-range blocks of ~target_block_bytes paged payload
/// (clamped to at least one node per block) and stamps each block's CRC
/// over the corresponding `in_targets` slice. Deterministic:
/// the same inputs always produce the same layout, which is what keeps
/// snapshot writes byte-stable across open/rewrite round trips. Returns at
/// least one block whenever n > 0.
std::vector<BlockExtent> BuildBlockLayout(std::span<const uint64_t> in_offsets,
                                          std::span<const NodeId> in_targets,
                                          uint64_t target_block_bytes);

/// Serializes a block layout into the kBlockIndex section payload.
std::string EncodeBlockIndex(const std::vector<BlockExtent>& blocks,
                             uint64_t target_block_bytes);

/// Parses and structurally validates a kBlockIndex payload for a snapshot
/// with `num_nodes` nodes and `num_edges` in-edges: version check (1 or
/// 2), blocks must tile [0, num_nodes) and [0, num_edges) contiguously.
/// Per-block CRCs are *not* checked here — the block cache verifies each
/// one as the block is paged in.
Status DecodeBlockIndex(const std::string& bytes, uint64_t num_nodes,
                        uint64_t num_edges, std::vector<BlockExtent>* blocks,
                        uint64_t* target_block_bytes);

/// Index of the block containing `node` (binary search over node_begin).
/// `blocks` must be a valid layout covering the node.
uint32_t FindBlock(std::span<const BlockExtent> blocks, NodeId node);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_OOC_BLOCK_LAYOUT_H_
