#include "ooc/paged_snapshot.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/crc32.h"
#include "snapshot/format.h"

#if defined(__unix__) || defined(__APPLE__)
#define CW_OOC_HAS_PREAD 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cloudwalker {

PagedSnapshot::~PagedSnapshot() {
#if CW_OOC_HAS_PREAD
  if (fd_ >= 0) ::close(fd_);
#endif
}

StatusOr<std::shared_ptr<const PagedSnapshot>> PagedSnapshot::Open(
    const std::string& path) {
  std::shared_ptr<PagedSnapshot> snap(new PagedSnapshot());
  CW_RETURN_IF_ERROR(snap->Load(path));
  return std::shared_ptr<const PagedSnapshot>(std::move(snap));
}

Status PagedSnapshot::ReadRange(uint64_t offset, uint64_t length,
                                void* dst) const {
  // pread on POSIX, so only the requested ranges ever touch memory; a
  // stream read elsewhere (no paging to win there: such platforms run
  // all-resident).
#if CW_OOC_HAS_PREAD
  char* out = static_cast<char*>(dst);
  while (length > 0) {
    const ssize_t got = ::pread(fd_, out, static_cast<size_t>(length),
                                static_cast<off_t>(offset));
    if (got <= 0) {
      return Status::IoError("short read from snapshot: " + path_);
    }
    out += got;
    offset += static_cast<uint64_t>(got);
    length -= static_cast<uint64_t>(got);
  }
  return Status::Ok();
#else
  std::ifstream in(path_, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(length));
  if (!in) return Status::IoError("short read from snapshot: " + path_);
  return Status::Ok();
#endif
}

Status PagedSnapshot::Load(const std::string& path) {
  path_ = path;
#if CW_OOC_HAS_PREAD
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    return Status::IoError("cannot open snapshot: " + path);
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IoError("cannot stat snapshot: " + path);
  }
  file_bytes_ = static_cast<uint64_t>(st.st_size);
#else
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open snapshot: " + path);
  file_bytes_ = static_cast<uint64_t>(in.tellg());
#endif
  CW_ASSIGN_OR_RETURN(
      const SnapshotLayout layout,
      ReadSnapshotLayout(path, file_bytes_,
                         [this](uint64_t offset, uint64_t length, void* dst) {
                           return ReadRange(offset, length, dst);
                         }));
  fingerprint_ = layout.fingerprint();
  const uint64_t n = layout.num_nodes;
  const uint64_t m = layout.num_edges;

  // Reads and CRC-checks one resident section into a vector or string.
  const auto load = [&](SnapshotSection id, auto* out) -> Status {
    const SectionEntry& e = *layout.Find(id);
    out->resize(e.length / sizeof((*out)[0]));
    CW_RETURN_IF_ERROR(ReadRange(e.offset, e.length, out->data()));
    return CheckSectionCrc(path, e, out->data());
  };
  CW_RETURN_IF_ERROR(load(SnapshotSection::kOutOffsets, &out_offsets_));
  CW_RETURN_IF_ERROR(load(SnapshotSection::kOutTargets, &out_targets_));
  CW_RETURN_IF_ERROR(load(SnapshotSection::kInOffsets, &in_offsets_));
  CW_RETURN_IF_ERROR(load(SnapshotSection::kDiagonal, &diagonal_));

  // The same structural checks SnapshotView applies, for the arrays this
  // open keeps resident; the paged in-targets get theirs per block at
  // page-in (ReadBlock).
  CW_RETURN_IF_ERROR(CheckCsrOffsets(path, out_offsets_, m));
  CW_RETURN_IF_ERROR(CheckCsrOffsets(path, in_offsets_, m));
  CW_RETURN_IF_ERROR(CheckTargets(path, out_targets_, n));

  std::string bytes;
  CW_RETURN_IF_ERROR(load(SnapshotSection::kMeta, &bytes));
  CW_RETURN_IF_ERROR(DecodeSnapshotMeta(path, bytes, &params_, &metadata_));

  if (layout.Find(SnapshotSection::kPermutation) != nullptr) {
    CW_RETURN_IF_ERROR(load(SnapshotSection::kPermutation, &permutation_));
    CW_RETURN_IF_ERROR(CheckPermutation(path, permutation_, layout));
  }

  bool paged = layout.Find(SnapshotSection::kBlockIndex) != nullptr;
#if !CW_OOC_HAS_PREAD
  paged = false;  // no pread: run every artifact all-resident
#endif
  if (paged) {
    CW_RETURN_IF_ERROR(load(SnapshotSection::kBlockIndex, &bytes));
    CW_RETURN_IF_ERROR(DecodeSnapshotBlocks(path, bytes, layout, in_offsets_,
                                            &blocks_, &block_target_bytes_));
    from_block_index_ = true;
    in_targets_offset_ = layout.Find(SnapshotSection::kInTargets)->offset;
  } else {
    // No block index (or no pread): whole-file fallback. Load the
    // in-targets resident with the full checks a mapped open would apply,
    // and synthesize the block layout so the scheduler and cache run the
    // identical single code path — just with a 100% hit rate.
    CW_RETURN_IF_ERROR(
        load(SnapshotSection::kInTargets, &resident_in_targets_));
    CW_RETURN_IF_ERROR(CheckTargets(path, resident_in_targets_, n));
    block_target_bytes_ = kDefaultBlockBytes;
    blocks_ = BuildBlockLayout(in_offsets_, resident_in_targets_,
                               block_target_bytes_);
  }
  for (const BlockExtent& b : blocks_) {
    max_block_bytes_ = std::max(max_block_bytes_, b.payload_bytes());
  }

  num_nodes_ = static_cast<NodeId>(n);
  num_edges_ = m;
  return Status::Ok();
}

Status PagedSnapshot::ReadBlock(uint32_t b, NodeId* targets_out) const {
  if (b >= blocks_.size()) {
    return Status::Internal("block id " + std::to_string(b) +
                            " out of range");
  }
  const BlockExtent& ext = blocks_[b];
  const uint64_t edges = ext.num_edges();
  if (!from_block_index_) {
    std::memcpy(targets_out, resident_in_targets_.data() + ext.edge_begin,
                edges * sizeof(NodeId));
    return Status::Ok();
  }
  CW_RETURN_IF_ERROR(
      ReadRange(in_targets_offset_ + ext.edge_begin * sizeof(NodeId),
                edges * sizeof(NodeId), targets_out));
  if (Crc32(targets_out, edges * sizeof(NodeId)) != ext.crc_in_targets) {
    return Status::DataLoss("snapshot " + path_ +
                            ": checksum mismatch in block " +
                            std::to_string(b) + " of in_targets");
  }
  // The walk kernels index with these ids unchecked — the same guarantee
  // SnapshotView's whole-file sweep gives, applied per page-in.
  return CheckTargets(path_, {targets_out, edges}, num_nodes_);
}

}  // namespace cloudwalker
