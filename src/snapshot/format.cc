#include "snapshot/format.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/serialize.h"

namespace cloudwalker {
namespace {

constexpr uint32_t kNumRequiredSections = 6;  // ids 1-4, 7, 8
constexpr uint32_t kMaxSections = 64;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::DataLoss("snapshot " + path + ": " + what);
}

Status DecodeMetadata(const std::string& bytes, SimRankParams* params,
                      SnapshotMetadata* m) {
  BinaryReader r(bytes);
  CW_RETURN_IF_ERROR(r.Read(&params->decay));
  CW_RETURN_IF_ERROR(r.Read(&params->num_steps));
  CW_RETURN_IF_ERROR(r.Read(&m->num_walkers));
  CW_RETURN_IF_ERROR(r.Read(&m->jacobi_iterations));
  CW_RETURN_IF_ERROR(r.Read(&m->seed));
  CW_RETURN_IF_ERROR(r.Read(&m->row_mode));
  CW_RETURN_IF_ERROR(r.Read(&m->dangling));
  CW_RETURN_IF_ERROR(r.Read(&m->initial_diagonal));
  CW_RETURN_IF_ERROR(r.Read(&m->query_options_fingerprint));
  CW_RETURN_IF_ERROR(r.Read(&m->walk_steps));
  CW_RETURN_IF_ERROR(r.Read(&m->build_seconds));
  CW_RETURN_IF_ERROR(r.ReadString(&m->builder));
  return Status::Ok();
}

// The header-plus-directory extent and every section's [begin, end),
// sorted. Entries must lie inside the file (no end overflows).
std::vector<std::pair<uint64_t, uint64_t>> SortedExtents(
    const SnapshotLayout& layout) {
  std::vector<std::pair<uint64_t, uint64_t>> extents;
  extents.reserve(layout.entries.size() + 1);
  extents.emplace_back(0, layout.directory_end());
  for (const SectionEntry& e : layout.entries) {
    extents.emplace_back(e.offset, e.offset + e.length);
  }
  std::sort(extents.begin(), extents.end());
  return extents;
}

// What the header's node and edge counts say about a known section.
struct Expected {
  SnapshotSection id;
  bool required;
  uint32_t elem_size;
  bool sized;      // false: free length (metadata, block index)
  uint64_t count;  // element count when sized
};

}  // namespace

const char* SectionName(uint32_t id) {
  switch (static_cast<SnapshotSection>(id)) {
    case SnapshotSection::kOutOffsets:
      return "out_offsets";
    case SnapshotSection::kOutTargets:
      return "out_targets";
    case SnapshotSection::kInOffsets:
      return "in_offsets";
    case SnapshotSection::kInTargets:
      return "in_targets";
    case SnapshotSection::kV1ArenaOffsets:
      return "arena_offsets";
    case SnapshotSection::kV1ArenaSlots:
      return "arena_slots";
    case SnapshotSection::kDiagonal:
      return "diagonal";
    case SnapshotSection::kMeta:
      return "meta";
    case SnapshotSection::kBlockIndex:
      return "block_index";
    case SnapshotSection::kPermutation:
      return "permutation";
  }
  return "unknown";
}

uint64_t SnapshotLayout::fingerprint() const {
  // The verified header + directory CRC covers every section checksum, so
  // any byte-level change anywhere in the file moves it. Mixed with the
  // size for a full 64-bit tag.
  return DeriveSeed(actual_crc, file_size);
}

const SectionEntry* SnapshotLayout::Find(SnapshotSection id) const {
  for (const SectionEntry& e : entries) {
    if (e.id == static_cast<uint32_t>(id)) return &e;
  }
  return nullptr;
}

StatusOr<SnapshotLayout> DecodeSnapshotLayout(const std::string& path,
                                              uint64_t file_bytes,
                                              const SnapshotReadFn& read,
                                              uint32_t max_sections) {
  if (file_bytes < kSnapshotHeaderBytes) {
    return Corrupt(path, "truncated header (" + std::to_string(file_bytes) +
                             " bytes, need " +
                             std::to_string(kSnapshotHeaderBytes) + ")");
  }
  char header[kSnapshotHeaderBytes];
  CW_RETURN_IF_ERROR(read(0, kSnapshotHeaderBytes, header));
  if (std::memcmp(header, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument("not a cloudwalker snapshot: " + path);
  }
  SnapshotLayout layout;
  uint32_t endian = 0, num_sections = 0;
  std::memcpy(&layout.version, header + 8, 4);
  std::memcpy(&endian, header + 12, 4);
  std::memcpy(&num_sections, header + 16, 4);
  std::memcpy(&layout.stored_crc, header + 20, 4);
  std::memcpy(&layout.file_size, header + 24, 8);
  std::memcpy(&layout.num_nodes, header + 32, 8);
  std::memcpy(&layout.num_edges, header + 40, 8);
  if (endian != kSnapshotEndianStamp) {
    return Status::InvalidArgument(
        "snapshot " + path +
        " was written on a machine with a different byte order");
  }
  if (max_sections != 0 &&
      (num_sections < kNumRequiredSections || num_sections > max_sections)) {
    return Corrupt(
        path, "implausible section count " + std::to_string(num_sections));
  }
  const uint64_t dir_bytes = uint64_t{num_sections} * kSnapshotEntryBytes;
  if (dir_bytes > file_bytes - kSnapshotHeaderBytes) {
    return Corrupt(path, "truncated directory");
  }
  layout.entries.resize(num_sections);
  if (dir_bytes > 0) {
    CW_RETURN_IF_ERROR(
        read(kSnapshotHeaderBytes, dir_bytes, layout.entries.data()));
  }
  std::memset(header + 20, 0, 4);  // the CRC field covers itself as 0
  layout.actual_crc = Crc32(layout.entries.data(), dir_bytes,
                            Crc32(header, kSnapshotHeaderBytes));
  return layout;
}

StatusOr<SnapshotLayout> ReadSnapshotLayout(const std::string& path,
                                            uint64_t file_bytes,
                                            const SnapshotReadFn& read) {
  CW_ASSIGN_OR_RETURN(SnapshotLayout layout,
                      DecodeSnapshotLayout(path, file_bytes, read,
                                           kMaxSections));
  if (layout.version != 1 && layout.version != kSnapshotFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(layout.version) + " in " +
                                   path);
  }
  if (layout.actual_crc != layout.stored_crc) {
    return Corrupt(path, "header/directory checksum mismatch");
  }
  if (layout.file_size != file_bytes) {
    return Corrupt(path, "file is " + std::to_string(file_bytes) +
                             " bytes but the header records " +
                             std::to_string(layout.file_size));
  }
  const uint64_t n = layout.num_nodes;
  const uint64_t m = layout.num_edges;
  if (n >= kInvalidNode) {
    return Corrupt(path, "node count exceeds the 32-bit id space");
  }
  for (const SectionEntry& e : layout.entries) {
    if (e.offset % kSnapshotSectionAlign != 0 || e.offset > file_bytes ||
        e.length > file_bytes - e.offset) {
      return Corrupt(path, std::string("section ") + SectionName(e.id) +
                               " lies outside the file");
    }
    if (e.elem_size == 0 || e.length % e.elem_size != 0) {
      return Corrupt(path, std::string("section ") + SectionName(e.id) +
                               " has a malformed element size");
    }
  }
  uint64_t covered = 0;
  for (const auto& [begin, end] : SortedExtents(layout)) {
    if (begin < covered) return Corrupt(path, "overlapping sections");
    covered = end;
  }
  const Expected expect[] = {
      {SnapshotSection::kOutOffsets, true, sizeof(uint64_t), true, n + 1},
      {SnapshotSection::kOutTargets, true, sizeof(NodeId), true, m},
      {SnapshotSection::kInOffsets, true, sizeof(uint64_t), true, n + 1},
      {SnapshotSection::kInTargets, true, sizeof(NodeId), true, m},
      {SnapshotSection::kDiagonal, true, sizeof(double), true, n},
      {SnapshotSection::kMeta, true, 1, false, 0},
      {SnapshotSection::kBlockIndex, false, 1, false, 0},
      {SnapshotSection::kPermutation, false, sizeof(NodeId), true, n},
  };
  for (const Expected& x : expect) {
    const char* name = SectionName(static_cast<uint32_t>(x.id));
    const SectionEntry* e = layout.Find(x.id);
    if (e == nullptr) {
      if (!x.required) continue;
      return Corrupt(path, std::string("missing section ") + name);
    }
    if (e->elem_size != x.elem_size ||
        (x.sized && e->length != x.count * x.elem_size)) {
      return Corrupt(path, std::string("section ") + name +
                               " disagrees with the header's node/edge "
                               "counts");
    }
  }
  return layout;
}

Status CheckSectionCrc(const std::string& path, const SectionEntry& entry,
                       const void* payload) {
  if (Crc32(payload, entry.length) != entry.crc) {
    return Corrupt(path, std::string("checksum mismatch in section ") +
                             SectionName(entry.id));
  }
  return Status::Ok();
}

Status CheckPadding(const std::string& path, const SnapshotLayout& layout,
                    const char* file) {
  uint64_t cursor = 0;
  for (const auto& [begin, end] : SortedExtents(layout)) {
    for (uint64_t b = cursor; b < begin; ++b) {
      if (file[b] != 0) {
        return Corrupt(path, "nonzero padding between sections");
      }
    }
    cursor = end;
  }
  for (uint64_t b = cursor; b < layout.file_size; ++b) {
    if (file[b] != 0) return Corrupt(path, "nonzero trailing bytes");
  }
  return Status::Ok();
}

Status CheckCsrOffsets(const std::string& path,
                       std::span<const uint64_t> offsets, uint64_t num_edges) {
  if (offsets.front() != 0 || offsets.back() != num_edges ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    return Corrupt(path, "CSR offsets are not monotone over [0, num_edges]");
  }
  return Status::Ok();
}

Status CheckTargets(const std::string& path, std::span<const NodeId> targets,
                    uint64_t num_nodes) {
  CW_DCHECK(num_nodes < kInvalidNode);
  // Counted with no exit inside the loop, so it vectorizes; the verdict is
  // taken once for the whole span.
  const NodeId limit = static_cast<NodeId>(num_nodes);
  size_t out_of_range = 0;
  for (const NodeId t : targets) out_of_range += t >= limit ? 1 : 0;
  if (out_of_range != 0) return Corrupt(path, "edge target out of node range");
  return Status::Ok();
}

std::string EncodeSnapshotMeta(const SimRankParams& params,
                               const SnapshotMetadata& m) {
  BinaryWriter w;
  w.Write(params.decay);
  w.Write(params.num_steps);
  w.Write(m.num_walkers);
  w.Write(m.jacobi_iterations);
  w.Write(m.seed);
  w.Write(m.row_mode);
  w.Write(m.dangling);
  w.Write(m.initial_diagonal);
  w.Write(m.query_options_fingerprint);
  w.Write(m.walk_steps);
  w.Write(m.build_seconds);
  w.WriteString(m.builder);
  return w.buffer();
}

Status DecodeSnapshotMeta(const std::string& path, const std::string& bytes,
                          SimRankParams* params, SnapshotMetadata* metadata) {
  const Status decoded = DecodeMetadata(bytes, params, metadata);
  if (!decoded.ok()) {
    return Corrupt(path, "undecodable metadata (" + decoded.ToString() + ")");
  }
  if (!params->Validate().ok()) {
    return Corrupt(path, "metadata carries invalid SimRank parameters");
  }
  return Status::Ok();
}

Status CheckPermutation(const std::string& path,
                        std::span<const NodeId> permutation,
                        const SnapshotLayout& layout) {
  std::vector<uint8_t> seen(permutation.size(), 0);
  for (const NodeId ext : permutation) {
    if (ext >= permutation.size() || seen[ext]) {
      return Corrupt(path, "permutation is not a bijection");
    }
    seen[ext] = 1;
  }
  if (layout.version == 1) {
    return Status::FailedPrecondition(
        "snapshot " + path +
        " is a version 1 locality-reordered artifact: its in-rows are in "
        "internal-id order, which walks on the in-CSR cannot use; rebuild "
        "it with `cloudwalker_cli index --reorder=...`");
  }
  return Status::Ok();
}

Status DecodeSnapshotBlocks(const std::string& path, const std::string& bytes,
                            const SnapshotLayout& layout,
                            std::span<const uint64_t> in_offsets,
                            std::vector<BlockExtent>* blocks,
                            uint64_t* target_block_bytes) {
  const Status decoded = DecodeBlockIndex(bytes, layout.num_nodes,
                                          layout.num_edges, blocks,
                                          target_block_bytes);
  if (!decoded.ok()) {
    return Corrupt(path,
                   "undecodable block index (" + decoded.ToString() + ")");
  }
  // The blocks must cut the in-CSR at exactly the rows they claim: the
  // block cache preads [edge_begin, edge_end) for nodes [node_begin,
  // node_end) without consulting in_offsets again.
  if (in_offsets.empty()) return Status::Ok();
  for (const BlockExtent& b : *blocks) {
    if (in_offsets[b.node_begin] != b.edge_begin ||
        in_offsets[b.node_end] != b.edge_end) {
      return Corrupt(path, "block index disagrees with the in-CSR");
    }
  }
  return Status::Ok();
}

}  // namespace cloudwalker
