#include "snapshot/snapshot.h"

#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/serialize.h"
#include "snapshot/format.h"

#if defined(__unix__) || defined(__APPLE__)
#define CW_SNAPSHOT_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cloudwalker {
namespace {

void PadTo(BinaryWriter* w, uint64_t alignment) {
  static const char kZeros[kSnapshotSectionAlign] = {};
  const uint64_t rem = w->buffer().size() % alignment;
  if (rem != 0) w->WriteBytes(kZeros, alignment - rem);
}

// The SnapshotSections group a payload section belongs to. 0 means the
// section (metadata, extensions, version 1's arena) is CRC-checked under
// every mask.
uint32_t SectionGroup(uint32_t id) {
  switch (static_cast<SnapshotSection>(id)) {
    case SnapshotSection::kOutOffsets:
    case SnapshotSection::kOutTargets:
      return kSnapshotOut;
    case SnapshotSection::kInOffsets:
    case SnapshotSection::kInTargets:
      return kSnapshotIn;
    case SnapshotSection::kDiagonal:
      return kSnapshotDiagonal;
    case SnapshotSection::kV1ArenaOffsets:
    case SnapshotSection::kV1ArenaSlots:
    case SnapshotSection::kMeta:
    case SnapshotSection::kBlockIndex:
    case SnapshotSection::kPermutation:
      return 0;
  }
  return 0;
}

#if CW_SNAPSHOT_HAS_MMAP
bool g_madvise_fail_for_test = false;

// Best-effort paging hint over [offset, offset + length) of the mapping at
// `base`. The start rounds down to a page boundary (madvise requires it;
// advice is per-page anyway). A failed hint is never fatal — the test hook
// forces failure to prove callers treat it that way.
bool MadviseRange(const char* base, uint64_t offset, uint64_t length,
                  int advice) {
  if (length == 0) return true;
  if (g_madvise_fail_for_test) return false;
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t begin = offset / page * page;
  return ::madvise(const_cast<char*>(base) + begin,
                   static_cast<size_t>(offset - begin + length), advice) == 0;
}
#endif

// Writer read-back: stream the just-written .tmp off disk again (hinted
// MADV_SEQUENTIAL — it is a single front-to-back pass) and check every
// byte round-tripped before the rename publishes the artifact. Catches
// torn writes that hid behind page-cache buffering until fclose.
Status VerifyWrittenFile(const std::string& tmp, uint64_t expect_size,
                         uint32_t expect_crc) {
  uint32_t actual = 0;
  uint64_t size = 0;
#if CW_SNAPSHOT_HAS_MMAP
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot reopen for verification: " + tmp);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat: " + tmp);
  }
  size = static_cast<uint64_t>(st.st_size);
  if (size > 0) {
    void* base = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                        MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      return Status::IoError("mmap failed on: " + tmp);
    }
    MadviseRange(static_cast<const char*>(base), 0, size, MADV_SEQUENTIAL);
    actual = Crc32(base, size);
    ::munmap(base, static_cast<size_t>(size));
  } else {
    ::close(fd);
  }
#else
  std::string buffer;
  CW_RETURN_IF_ERROR(BinaryReader::LoadFile(tmp, &buffer));
  size = buffer.size();
  actual = Crc32(buffer.data(), buffer.size());
#endif
  if (size != expect_size || actual != expect_crc) {
    return Status::IoError("read-back verification failed for " + tmp);
  }
  return Status::Ok();
}

}  // namespace

Status SnapshotWriter::Write(const std::string& path, const Graph& graph,
                             const DiagonalIndex& index,
                             const SnapshotMetadata& metadata,
                             const SnapshotWriteOptions& options) {
  const uint64_t n = graph.num_nodes();
  const uint64_t m = graph.num_edges();
  if (index.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "snapshot: index covers " + std::to_string(index.num_nodes()) +
        " nodes but the graph has " + std::to_string(n));
  }
  CW_RETURN_IF_ERROR(index.params().Validate());
  if (!options.permutation.empty()) {
    if (options.permutation.size() != n) {
      return Status::InvalidArgument(
          "snapshot: permutation has " +
          std::to_string(options.permutation.size()) + " entries for " +
          std::to_string(n) + " nodes");
    }
    std::vector<uint8_t> seen(n, 0);
    for (const NodeId ext : options.permutation) {
      if (ext >= n || seen[ext]) {
        return Status::InvalidArgument(
            "snapshot: permutation is not a bijection over the node ids");
      }
      seen[ext] = 1;
    }
  }

  const std::string meta_bytes = EncodeSnapshotMeta(index.params(), metadata);

  struct Payload {
    SnapshotSection id;
    uint32_t elem_size;
    const void* data;
    uint64_t length;
  };
  std::vector<Payload> payloads = {
      {SnapshotSection::kOutOffsets, sizeof(uint64_t),
       graph.OutOffsets().data(), (n + 1) * sizeof(uint64_t)},
      {SnapshotSection::kOutTargets, sizeof(NodeId),
       graph.OutTargets().data(), m * sizeof(NodeId)},
      {SnapshotSection::kInOffsets, sizeof(uint64_t),
       graph.InOffsets().data(), (n + 1) * sizeof(uint64_t)},
      {SnapshotSection::kInTargets, sizeof(NodeId), graph.InTargets().data(),
       m * sizeof(NodeId)},
      {SnapshotSection::kDiagonal, sizeof(double), index.diagonal().data(),
       n * sizeof(double)},
      {SnapshotSection::kMeta, 1, meta_bytes.data(), meta_bytes.size()},
  };
  std::string block_index_bytes;
  if (options.write_block_index) {
    const uint64_t target =
        options.block_bytes != 0 ? options.block_bytes : kDefaultBlockBytes;
    block_index_bytes = EncodeBlockIndex(
        BuildBlockLayout(graph.InOffsets(), graph.InTargets(), target),
        target);
    payloads.push_back({SnapshotSection::kBlockIndex, 1,
                        block_index_bytes.data(), block_index_bytes.size()});
  }
  if (!options.permutation.empty()) {
    payloads.push_back({SnapshotSection::kPermutation, sizeof(NodeId),
                        options.permutation.data(), n * sizeof(NodeId)});
  }
  const uint32_t num_sections = static_cast<uint32_t>(payloads.size());

  // Lay out the payloads after the header + directory, 64-byte aligned.
  uint64_t cursor =
      kSnapshotHeaderBytes + uint64_t{num_sections} * kSnapshotEntryBytes;
  BinaryWriter dir;
  for (const Payload& p : payloads) {
    cursor = (cursor + kSnapshotSectionAlign - 1) / kSnapshotSectionAlign *
             kSnapshotSectionAlign;
    SectionEntry e;
    e.id = static_cast<uint32_t>(p.id);
    e.elem_size = p.elem_size;
    e.offset = cursor;
    e.length = p.length;
    e.crc = Crc32(p.data, p.length);
    dir.Write(e);
    cursor += p.length;
  }
  const uint64_t file_size = cursor;

  // The header CRC covers the whole header (with the CRC field itself
  // zeroed) plus the directory, so any stray flip in either is caught.
  BinaryWriter header;
  header.WriteBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  header.Write(kSnapshotFormatVersion);
  header.Write(kSnapshotEndianStamp);
  header.Write(num_sections);
  header.Write<uint32_t>(0);  // CRC placeholder
  header.Write(file_size);
  header.Write(n);
  header.Write(m);
  PadTo(&header, kSnapshotHeaderBytes);
  const uint32_t header_crc =
      Crc32(dir.buffer().data(), dir.buffer().size(),
            Crc32(header.buffer().data(), header.buffer().size()));
  std::string header_bytes = header.buffer();
  std::memcpy(header_bytes.data() + 20, &header_crc, sizeof(header_crc));

  // Stream straight to disk — the payload arrays are already contiguous
  // spans, so only the ~320-byte header + directory is ever buffered and
  // persisting a multi-GB engine never doubles resident memory. Write to
  // .tmp then rename so the published path is always a complete artifact:
  // a crash mid-write leaves only the .tmp (removed on every error path
  // below), and replacing a file a live server has mmapped swaps the
  // directory entry while the old inode stays intact under the existing
  // mapping (the SIGHUP reload flow).
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + tmp);
  }
  // `disk_crc` accumulates over every byte in file order; the read-back
  // pass below re-derives it from the .tmp to prove the write stuck.
  uint32_t disk_crc = 0;
  const auto put = [f, &disk_crc](const void* data, uint64_t size) {
    if (size == 0) return true;
    disk_crc = Crc32(data, size, disk_crc);
    return std::fwrite(data, 1, size, f) == size;
  };
  static const char kPadZeros[kSnapshotSectionAlign] = {};
  uint64_t written = header_bytes.size() + dir.buffer().size();
  bool ok = put(header_bytes.data(), header_bytes.size()) &&
            put(dir.buffer().data(), dir.buffer().size());
  for (const Payload& p : payloads) {
    if (!ok) break;
    const uint64_t rem = written % kSnapshotSectionAlign;
    const uint64_t pad = rem == 0 ? 0 : kSnapshotSectionAlign - rem;
    ok = put(kPadZeros, pad) && put(p.data, p.length);
    written += pad + p.length;
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to " + tmp);
  }
  const Status readback = VerifyWrittenFile(tmp, file_size, disk_crc);
  if (!readback.ok()) {
    std::remove(tmp.c_str());
    return readback;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

SnapshotView::~SnapshotView() {
#if CW_SNAPSHOT_HAS_MMAP
  if (mmapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), static_cast<size_t>(size_));
  }
#endif
}

StatusOr<std::shared_ptr<const SnapshotView>> SnapshotView::Open(
    const std::string& path) {
  return Open(path, kSnapshotAll);
}

StatusOr<std::shared_ptr<const SnapshotView>> SnapshotView::Open(
    const std::string& path, uint32_t sections) {
  // shared_ptr (not make_shared): the constructor is private, and the
  // destructor must run even when validation fails below.
  std::shared_ptr<SnapshotView> view(new SnapshotView());
#if CW_SNAPSHOT_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open snapshot: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat snapshot: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size > 0) {
    void* base = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                        MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      return Status::IoError("mmap failed on snapshot: " + path);
    }
    view->data_ = static_cast<const char*>(base);
    view->mmapped_ = true;
    // Validation is one front-to-back integrity pass; hint it. Validate
    // re-hints the randomly-accessed sections MADV_RANDOM once it's done.
    MadviseRange(view->data_, 0, size, MADV_SEQUENTIAL);
  } else {
    ::close(fd);
  }
  view->size_ = size;
#else
  CW_RETURN_IF_ERROR(BinaryReader::LoadFile(path, &view->heap_buffer_));
  view->data_ = view->heap_buffer_.data();
  view->size_ = view->heap_buffer_.size();
#endif
  CW_RETURN_IF_ERROR(view->Validate(path, sections & kSnapshotAll));
  return std::shared_ptr<const SnapshotView>(std::move(view));
}

Status SnapshotView::Validate(const std::string& path, uint32_t sections) {
  sections_ = sections;
  if (reinterpret_cast<uintptr_t>(data_) % alignof(uint64_t) != 0) {
    return Status::Internal("snapshot buffer is not 8-byte aligned");
  }
  CW_ASSIGN_OR_RETURN(
      const SnapshotLayout layout,
      ReadSnapshotLayout(path, size_,
                         [this](uint64_t offset, uint64_t length, void* dst) {
                           std::memcpy(dst, data_ + offset, length);
                           return Status::Ok();
                         }));
  fingerprint_ = layout.fingerprint();
  const uint64_t n = layout.num_nodes;
  const uint64_t m = layout.num_edges;

  // The payload CRC pass is the expensive part of Open; a masked open
  // skips it for the sections it will never read (their checksums stay
  // pinned by the verified directory CRC).
  for (const SectionEntry& e : layout.entries) {
    const uint32_t group = SectionGroup(e.id);
    if (group == 0 || (sections & group) != 0) {
      CW_RETURN_IF_ERROR(CheckSectionCrc(path, e, data_ + e.offset));
    }
  }
  CW_RETURN_IF_ERROR(CheckPadding(path, layout, data_));

  const auto span_of = [&](SnapshotSection id, auto* out, uint64_t count) {
    using T = typename std::remove_reference_t<decltype(*out)>::element_type;
    *out = {reinterpret_cast<const T*>(data_ + layout.Find(id)->offset),
            count};
  };
  if ((sections & kSnapshotOut) != 0) {
    span_of(SnapshotSection::kOutOffsets, &out_offsets_, n + 1);
    span_of(SnapshotSection::kOutTargets, &out_targets_, m);
  }
  if ((sections & kSnapshotIn) != 0) {
    span_of(SnapshotSection::kInOffsets, &in_offsets_, n + 1);
    span_of(SnapshotSection::kInTargets, &in_targets_, m);
  }
  if ((sections & kSnapshotDiagonal) != 0) {
    span_of(SnapshotSection::kDiagonal, &diagonal_, n);
  }

  // Structural invariants the zero-copy views rely on: the kernels index
  // with these values unchecked, so a file that passes here can never
  // send a walker out of bounds. Each check runs only for the groups this
  // open selected — an unselected group hands out no spans.
  if ((sections & kSnapshotOut) != 0) {
    CW_RETURN_IF_ERROR(CheckCsrOffsets(path, out_offsets_, m));
  }
  if ((sections & kSnapshotIn) != 0) {
    CW_RETURN_IF_ERROR(CheckCsrOffsets(path, in_offsets_, m));
  }
  if ((sections & kSnapshotOut) != 0) {
    CW_RETURN_IF_ERROR(CheckTargets(path, out_targets_, n));
  }
  if ((sections & kSnapshotIn) != 0) {
    CW_RETURN_IF_ERROR(CheckTargets(path, in_targets_, n));
  }

  // Optional extension sections (ids 9/10). The CRC pass above already
  // pinned their bytes (group 0 — always checked), so a failure here means
  // a malformed writer, not bit rot; it is still corruption to the caller.
  const auto bytes_of = [this](const SectionEntry* e) {
    return std::string(data_ + e->offset, e->length);
  };
  if (const SectionEntry* e = layout.Find(SnapshotSection::kBlockIndex)) {
    CW_RETURN_IF_ERROR(DecodeSnapshotBlocks(path, bytes_of(e), layout,
                                            in_offsets_, &blocks_,
                                            &block_target_bytes_));
  }
  if (layout.Find(SnapshotSection::kPermutation) != nullptr) {
    span_of(SnapshotSection::kPermutation, &permutation_, n);
    CW_RETURN_IF_ERROR(CheckPermutation(path, permutation_, layout));
  }
  CW_RETURN_IF_ERROR(
      DecodeSnapshotMeta(path, bytes_of(layout.Find(SnapshotSection::kMeta)),
                         &params_, &metadata_));

#if CW_SNAPSHOT_HAS_MMAP
  // Serving hint: queries hit the CSR arrays in walker order — effectively
  // at random — so flip those extents from the sequential validation hint
  // to MADV_RANDOM. Purely advisory; a failing madvise
  // (see SetSnapshotMadviseFailForTest) never fails the open.
  if (mmapped_) {
    for (const SnapshotSection id :
         {SnapshotSection::kOutOffsets, SnapshotSection::kOutTargets,
          SnapshotSection::kInOffsets, SnapshotSection::kInTargets}) {
      const SectionEntry* e = layout.Find(id);
      MadviseRange(data_, e->offset, e->length, MADV_RANDOM);
    }
  }
#endif

  num_nodes_ = static_cast<NodeId>(n);
  num_edges_ = m;
  return Status::Ok();
}

StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path) {
  std::string bytes;
  CW_RETURN_IF_ERROR(BinaryReader::LoadFile(path, &bytes));
  const char* data = bytes.data();
  const uint64_t size = bytes.size();
  CW_ASSIGN_OR_RETURN(
      const SnapshotLayout layout,
      DecodeSnapshotLayout(path, size,
                           [data](uint64_t offset, uint64_t length,
                                  void* dst) {
                             std::memcpy(dst, data + offset, length);
                             return Status::Ok();
                           }));
  SnapshotInfo info;
  info.format_version = layout.version;
  info.num_sections = static_cast<uint32_t>(layout.entries.size());
  info.file_bytes = size;
  info.num_nodes = layout.num_nodes;
  info.num_edges = layout.num_edges;
  info.header_crc_ok = layout.actual_crc == layout.stored_crc;
  info.sections.reserve(layout.entries.size());
  for (const SectionEntry& e : layout.entries) {
    SnapshotSectionInfo s;
    s.id = e.id;
    s.name = SectionName(e.id);
    s.elem_size = e.elem_size;
    s.offset = e.offset;
    s.length = e.length;
    s.crc = e.crc;
    const bool in_file = e.offset <= size && e.length <= size - e.offset;
    s.crc_ok = in_file && Crc32(data + e.offset, e.length) == e.crc;
    if (e.id == static_cast<uint32_t>(SnapshotSection::kBlockIndex)) {
      info.has_block_index = true;
      if (in_file) {
        std::vector<BlockExtent> blocks;
        uint64_t target = 0;
        if (DecodeBlockIndex(std::string(data + e.offset, e.length),
                             info.num_nodes, info.num_edges, &blocks, &target)
                .ok()) {
          info.block_count = blocks.size();
        }
      }
    } else if (e.id == static_cast<uint32_t>(SnapshotSection::kPermutation)) {
      info.has_permutation = true;
    }
    info.sections.push_back(std::move(s));
  }
  return info;
}

void SetSnapshotMadviseFailForTest(bool fail) {
#if CW_SNAPSHOT_HAS_MMAP
  g_madvise_fail_for_test = fail;
#else
  (void)fail;
#endif
}

}  // namespace cloudwalker
