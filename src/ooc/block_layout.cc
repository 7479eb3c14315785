#include "ooc/block_layout.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/serialize.h"

namespace cloudwalker {
namespace {

constexpr uint32_t kBlockIndexVersion = 2;

// The on-disk block record. Both index versions use this layout; version 1
// stored a CRC of the block's alias-arena slice in `unused`, version 2
// writes 0 there, and the decoder ignores it either way.
struct BlockRecord {
  uint64_t node_begin = 0;
  uint64_t node_end = 0;
  uint64_t edge_begin = 0;
  uint64_t edge_end = 0;
  uint32_t crc_in_targets = 0;
  uint32_t unused = 0;
};
static_assert(sizeof(BlockRecord) == 40, "fixed layout, serialized verbatim");

}  // namespace

std::vector<BlockExtent> BuildBlockLayout(std::span<const uint64_t> in_offsets,
                                          std::span<const NodeId> in_targets,
                                          uint64_t target_block_bytes) {
  std::vector<BlockExtent> blocks;
  if (in_offsets.size() < 2) return blocks;  // zero-node graph: no blocks
  const uint64_t n = in_offsets.size() - 1;
  const uint64_t target = std::max<uint64_t>(target_block_bytes, 1);

  uint64_t node = 0;
  while (node < n) {
    BlockExtent b;
    b.node_begin = node;
    b.edge_begin = in_offsets[node];
    // Greedy cut: extend until the paged payload reaches the target. The
    // first node is always taken, so a single hub row larger than the
    // target becomes its own (oversized) block rather than an infinite
    // loop — the cache budget must simply admit the largest block.
    do {
      ++node;
    } while (node < n &&
             (in_offsets[node + 1] - b.edge_begin) * kPagedBytesPerEdge <=
                 target);
    b.node_end = node;
    b.edge_end = in_offsets[node];
    b.crc_in_targets = Crc32(in_targets.data() + b.edge_begin,
                             b.num_edges() * sizeof(NodeId));
    blocks.push_back(b);
  }
  return blocks;
}

std::string EncodeBlockIndex(const std::vector<BlockExtent>& blocks,
                             uint64_t target_block_bytes) {
  std::vector<BlockRecord> records;
  records.reserve(blocks.size());
  for (const BlockExtent& b : blocks) {
    records.push_back({b.node_begin, b.node_end, b.edge_begin, b.edge_end,
                       b.crc_in_targets, /*unused=*/0});
  }
  BinaryWriter w;
  w.Write(kBlockIndexVersion);
  w.Write(target_block_bytes);
  w.WriteVector(records);
  return w.buffer();
}

Status DecodeBlockIndex(const std::string& bytes, uint64_t num_nodes,
                        uint64_t num_edges, std::vector<BlockExtent>* blocks,
                        uint64_t* target_block_bytes) {
  BinaryReader r(bytes);
  uint32_t version = 0;
  CW_RETURN_IF_ERROR(r.Read(&version));
  if (version != 1 && version != kBlockIndexVersion) {
    return Status::InvalidArgument("unsupported block index version " +
                                   std::to_string(version));
  }
  CW_RETURN_IF_ERROR(r.Read(target_block_bytes));
  std::vector<BlockRecord> records;
  CW_RETURN_IF_ERROR(r.ReadVector(&records));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after block index");
  }
  blocks->clear();
  blocks->reserve(records.size());
  for (const BlockRecord& rec : records) {
    blocks->push_back({rec.node_begin, rec.node_end, rec.edge_begin,
                       rec.edge_end, rec.crc_in_targets});
  }
  if (blocks->empty() != (num_nodes == 0)) {
    return Status::InvalidArgument("block count disagrees with node count");
  }
  // The blocks must tile the node and edge spaces contiguously — the
  // scheduler binary-searches node_begin and the cache preads
  // [edge_begin, edge_end), so a gap or overlap here would misroute
  // walkers or read the wrong bytes.
  uint64_t node_cursor = 0, edge_cursor = 0;
  for (const BlockExtent& b : *blocks) {
    if (b.node_begin != node_cursor || b.edge_begin != edge_cursor ||
        b.node_end <= b.node_begin || b.edge_end < b.edge_begin) {
      return Status::InvalidArgument("block index does not tile the graph");
    }
    node_cursor = b.node_end;
    edge_cursor = b.edge_end;
  }
  if (node_cursor != num_nodes || edge_cursor != num_edges) {
    return Status::InvalidArgument(
        "block index does not cover all nodes/edges");
  }
  return Status::Ok();
}

uint32_t FindBlock(std::span<const BlockExtent> blocks, NodeId node) {
  // Last block with node_begin <= node.
  uint32_t lo = 0, hi = static_cast<uint32_t>(blocks.size());
  while (hi - lo > 1) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (blocks[mid].node_begin <= node) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace cloudwalker
