// The cloudwalker-snap byte layout (snapshot/snapshot.h documents it) and
// the one reader of its header and directory, shared by the writer and both
// readers: SnapshotView (mmap) and ooc/PagedSnapshot (pread). Each reader
// keeps its own reading strategy and calls the same checks, so a damaged
// file fails with the same status code and message through either open.

#ifndef CLOUDWALKER_SNAPSHOT_FORMAT_H_
#define CLOUDWALKER_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "graph/graph.h"
#include "ooc/block_layout.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {

inline constexpr char kSnapshotMagic[8] = {'C', 'W', 'S', 'N',
                                           'A', 'P', '1', '\0'};
inline constexpr uint32_t kSnapshotFormatVersion = 2;
inline constexpr uint32_t kSnapshotEndianStamp = 0x01020304u;
inline constexpr uint64_t kSnapshotHeaderBytes = 64;
inline constexpr uint64_t kSnapshotEntryBytes = 32;
inline constexpr uint64_t kSnapshotSectionAlign = 64;

/// One directory entry, as stored.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t elem_size = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(SectionEntry) == kSnapshotEntryBytes);

/// "out_offsets", ..., "permutation"; "unknown" for an id the format does
/// not define.
const char* SectionName(uint32_t id);

/// Copies `length` bytes at file offset `offset` into `dst`.
using SnapshotReadFn =
    std::function<Status(uint64_t offset, uint64_t length, void* dst)>;

/// A snapshot's header and directory as read from the file.
struct SnapshotLayout {
  uint32_t version = 0;
  uint32_t stored_crc = 0;  // header field: CRC of header + directory
  uint32_t actual_crc = 0;  // the same CRC over the bytes read
  uint64_t file_size = 0;   // header field
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  std::vector<SectionEntry> entries;  // directory order

  /// End of the directory: where the payload region begins.
  uint64_t directory_end() const {
    return kSnapshotHeaderBytes + entries.size() * kSnapshotEntryBytes;
  }
  /// The artifact's 64-bit identity (SnapshotView::fingerprint()).
  uint64_t fingerprint() const;
  /// The first entry with `id`, or null.
  const SectionEntry* Find(SnapshotSection id) const;
};

/// Decodes the header and the directory of a `file_bytes`-byte file
/// without judging them: fails only when the file is too short for either
/// (kDataLoss), the magic is not a snapshot's or the byte order is foreign
/// (kInvalidArgument). When `max_sections` is nonzero, a header claiming
/// fewer than the required sections or more than `max_sections` fails
/// (kDataLoss) before the directory is read. InspectSnapshot stops here.
StatusOr<SnapshotLayout> DecodeSnapshotLayout(const std::string& path,
                                              uint64_t file_bytes,
                                              const SnapshotReadFn& read,
                                              uint32_t max_sections = 0);

/// Every header and directory check of an open: the version (kInvalid-
/// Argument), the section count, the header + directory CRC, the recorded
/// file size, the 32-bit node bound, each entry's bounds, alignment and
/// element size, no two of the header + directory and the sections
/// overlapping, and the section table — every required section present,
/// each known section sized for the header's node and edge counts
/// (kDataLoss).
StatusOr<SnapshotLayout> ReadSnapshotLayout(const std::string& path,
                                            uint64_t file_bytes,
                                            const SnapshotReadFn& read);

// The section checks. Each fails with kDataLoss naming `path`, except
// where noted.

/// The payload at `payload` (entry.length bytes) matches entry.crc.
Status CheckSectionCrc(const std::string& path, const SectionEntry& entry,
                       const void* payload);

/// Every byte of `file` (the whole layout.file_size bytes) that neither
/// the header, the directory nor a section covers is zero, so a flipped
/// byte anywhere is detectable. `layout` comes from ReadSnapshotLayout,
/// so its sections are disjoint.
Status CheckPadding(const std::string& path, const SnapshotLayout& layout,
                    const char* file);

/// CSR offsets run monotonically from 0 to `num_edges`.
Status CheckCsrOffsets(const std::string& path,
                       std::span<const uint64_t> offsets, uint64_t num_edges);

/// Every edge target names a node below `num_nodes`, which is below
/// kInvalidNode (ReadSnapshotLayout refuses larger counts).
Status CheckTargets(const std::string& path, std::span<const NodeId> targets,
                    uint64_t num_nodes);

/// Decodes the kMeta payload; its SimRank parameters must be valid.
Status DecodeSnapshotMeta(const std::string& path, const std::string& bytes,
                          SimRankParams* params, SnapshotMetadata* metadata);

/// The kPermutation payload is a bijection over the node ids. A version 1
/// file that carries one fails with kFailedPrecondition: its in-rows are
/// in internal-id order, which walks on the in-CSR cannot use.
Status CheckPermutation(const std::string& path,
                        std::span<const NodeId> permutation,
                        const SnapshotLayout& layout);

/// Decodes the kBlockIndex payload. When `in_offsets` is non-empty, every
/// block must also cut the in-CSR at exactly the rows it claims.
Status DecodeSnapshotBlocks(const std::string& path, const std::string& bytes,
                            const SnapshotLayout& layout,
                            std::span<const uint64_t> in_offsets,
                            std::vector<BlockExtent>* blocks,
                            uint64_t* target_block_bytes);

/// Encodes the kMeta payload (the writer's half of DecodeSnapshotMeta).
std::string EncodeSnapshotMeta(const SimRankParams& params,
                               const SnapshotMetadata& metadata);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_SNAPSHOT_FORMAT_H_
