// Snapshot round-trip and durability tests (DESIGN.md section 9).
//
// The contract under test: a snapshot written by CloudWalker::WriteSnapshot
// and reopened via the mmap-backed CloudWalker::Open answers every query
// kind bit-identically to the instance that wrote it — and any corruption
// of the file (truncation, flipped bytes, wrong magic/version/endianness,
// structural damage behind re-stamped checksums) is rejected with a clean
// kDataLoss / kInvalidArgument before a kernel ever touches a byte. The
// corruption cases run against both opens, mmap and out-of-core, which
// share one reader of the header, the directory and each section kind.
// The out-of-core open never reads the padding and checks the paged
// in-targets per block at page-in, so a flip there may open; every query
// must then answer bit-identically or fail with kDataLoss. Version 1
// artifacts written by an older CLI (the fixtures under testdata/) stay
// readable, except reordered ones.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "ooc/ooc_backend.h"
#include "ooc/paged_snapshot.h"
#include "serve/query_service.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Section count from the header (u32 little-endian at offset 16), so the
// corruption sweeps track the directory's real extent as sections are
// added to the format.
uint32_t NumSections(const std::string& bytes) {
  uint32_t n = 0;
  std::memcpy(&n, bytes.data() + 16, sizeof(n));
  return n;
}

template <typename T>
T Peek(const std::string& bytes, uint64_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void Poke(std::string* bytes, uint64_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

// Recomputes every in-file section CRC, then the header + directory CRC,
// so an edit gets past the checksums to the checks behind them. A file cut
// short of its directory is left as it is.
void Restamp(std::string* bytes) {
  if (bytes->size() < 64) return;
  const uint64_t directory_end = 64 + 32 * uint64_t{NumSections(*bytes)};
  if (bytes->size() < directory_end) return;
  for (uint64_t entry = 64; entry < directory_end; entry += 32) {
    const uint64_t offset = Peek<uint64_t>(*bytes, entry + 8);
    const uint64_t length = Peek<uint64_t>(*bytes, entry + 16);
    if (offset <= bytes->size() && length <= bytes->size() - offset) {
      Poke<uint32_t>(bytes, entry + 24,
                     Crc32(bytes->data() + offset, length));
    }
  }
  Poke<uint32_t>(bytes, 20, 0);
  Poke<uint32_t>(bytes, 20, Crc32(bytes->data(), directory_end));
}

// The two opens every corruption case runs against.
struct Opener {
  const char* name;
  bool paged;  // reads neither the padding nor the in-targets at open
  StatusOr<std::shared_ptr<const CloudWalker>> (*open)(const std::string&);
};

const Opener kOpeners[] = {
    {"mmap", false,
     [](const std::string& path) { return CloudWalker::Open(path); }},
    {"out-of-core", true,
     [](const std::string& path) { return CloudWalker::OutOfCore(path); }},
};

// Every query kind through Execute, so two engines can be compared whole.
std::vector<QueryResponse> AskAllKinds(const CloudWalker& cw) {
  QueryOptions q;
  q.num_walkers = 200;
  std::vector<QueryResponse> out;
  for (const NodeId node : {NodeId{0}, NodeId{5}, NodeId{123}, NodeId{299}}) {
    out.push_back(cw.Execute(QueryRequest::Pair(node, 42).WithOptions(q)));
    out.push_back(cw.Execute(QueryRequest::SingleSource(node).WithOptions(q)));
    out.push_back(
        cw.Execute(QueryRequest::SourceTopK(node, 10).WithOptions(q)));
    out.push_back(cw.Execute(
        QueryRequest::PersonalizedPageRank(node, 10).WithOptions(q)));
    out.push_back(
        cw.Execute(QueryRequest::Node2Vec(node, 10).WithOptions(q)));
  }
  QueryOptions cheap = q;
  cheap.num_walkers = 20;
  out.push_back(cw.Execute(QueryRequest::AllPairsTopK(3).WithOptions(cheap)));
  return out;
}

// Each answer in `b` is bit-identical to its counterpart in `a`, or — when
// `data_loss_allowed` — fails with kDataLoss.
void ExpectSameAnswers(const std::vector<QueryResponse>& a,
                       const std::vector<QueryResponse>& b,
                       const std::string& what,
                       bool data_loss_allowed = false) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok()) << what << " request " << i;
    if (data_loss_allowed && b[i].status.IsDataLoss()) continue;
    ASSERT_TRUE(b[i].ok()) << what << " request " << i << ": "
                           << b[i].status.ToString();
    EXPECT_TRUE(BitIdentical(a[i], b[i])) << what << " request " << i;
  }
}

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Graph graph = GenerateRmat(/*num_nodes=*/400, /*num_edges=*/3000,
                               /*seed=*/11);
    IndexingOptions options;
    options.num_walkers = 20;
    options.params.num_steps = 5;
    auto built = CloudWalker::Build(std::move(graph), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    built_ = new std::shared_ptr<const CloudWalker>(std::move(built).value());
    path_ = new std::string(TempPath("roundtrip.cwk"));
    ASSERT_TRUE((*built_)->WriteSnapshot(*path_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete built_;
    delete path_;
    built_ = nullptr;
    path_ = nullptr;
  }

  const CloudWalker& built() { return **built_; }
  const std::string& path() { return *path_; }

  static std::shared_ptr<const CloudWalker>* built_;
  static std::string* path_;
};

std::shared_ptr<const CloudWalker>* SnapshotTest::built_ = nullptr;
std::string* SnapshotTest::path_ = nullptr;

TEST_F(SnapshotTest, OpenIsZeroCopy) {
  auto opened = CloudWalker::Open(path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const CloudWalker& cw = **opened;
  ASSERT_NE(cw.snapshot(), nullptr);
  EXPECT_TRUE(cw.snapshot()->mmapped());
  // The flat arrays alias the mapping, not heap vectors.
  EXPECT_FALSE(cw.graph().owns_storage());
  EXPECT_FALSE(cw.index().owns_storage());
  EXPECT_EQ(cw.graph().num_nodes(), built().graph().num_nodes());
  EXPECT_EQ(cw.graph().num_edges(), built().graph().num_edges());
  // Build metadata survived the trip.
  EXPECT_EQ(cw.indexing_options().num_walkers, 20u);
  EXPECT_EQ(cw.indexing_options().params.num_steps, 5u);
  EXPECT_EQ(cw.indexing_stats().walk_steps,
            built().indexing_stats().walk_steps);
  EXPECT_EQ(cw.snapshot()->metadata().query_options_fingerprint,
            QueryOptionsFingerprint(QueryOptions{}));
}

TEST_F(SnapshotTest, AnswersBitIdenticalForAllQueryKinds) {
  auto opened = CloudWalker::Open(path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const CloudWalker& cw = **opened;
  QueryOptions q;
  q.num_walkers = 300;

  // kPair.
  for (const auto& [i, j] : std::vector<std::pair<NodeId, NodeId>>{
           {1, 2}, {7, 300}, {42, 42}}) {
    const QueryRequest pair = QueryRequest::Pair(i, j).WithOptions(q);
    const QueryResponse a = built().Execute(pair);
    const QueryResponse b = cw.Execute(pair);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.score(), b.score()) << "pair (" << i << ", " << j << ")";
  }
  // kSingleSource: exact sparse-vector equality.
  for (NodeId src : {NodeId{0}, NodeId{17}, NodeId{399}}) {
    const QueryRequest source = QueryRequest::SingleSource(src).WithOptions(q);
    const QueryResponse ra = built().Execute(source);
    const QueryResponse rb = cw.Execute(source);
    ASSERT_TRUE(ra.ok() && rb.ok());
    const SparseVector& a = *ra.scores();
    const SparseVector& b = *rb.scores();
    ASSERT_EQ(a.size(), b.size()) << "source " << src;
    for (size_t e = 0; e < a.size(); ++e) EXPECT_EQ(a[e], b[e]);
  }
  // kSourceTopK.
  const QueryRequest topk = QueryRequest::SourceTopK(5, 10).WithOptions(q);
  const QueryResponse ta = built().Execute(topk);
  const QueryResponse tb = cw.Execute(topk);
  ASSERT_TRUE(ta.ok() && tb.ok());
  EXPECT_EQ(*ta.topk(), *tb.topk());
  // kAllPairsTopK.
  QueryOptions cheap = q;
  cheap.num_walkers = 40;
  const QueryRequest all = QueryRequest::AllPairsTopK(3).WithOptions(cheap);
  const QueryResponse aa = built().Execute(all);
  const QueryResponse ab = cw.Execute(all);
  ASSERT_TRUE(aa.ok() && ab.ok());
  EXPECT_EQ(*aa.all_pairs(), *ab.all_pairs());
}

TEST_F(SnapshotTest, SnapshotOfSnapshotIsByteStable) {
  // Writing a snapshot from an opened (view-backed) instance reproduces
  // the original file byte for byte: the persistent artifact is a fixed
  // point of Open + WriteSnapshot.
  auto opened = CloudWalker::Open(path());
  ASSERT_TRUE(opened.ok());
  const std::string copy = TempPath("rewrite.cwk");
  ASSERT_TRUE((*opened)->WriteSnapshot(copy).ok());
  EXPECT_EQ(ReadFile(path()), ReadFile(copy));
  std::remove(copy.c_str());
}

TEST_F(SnapshotTest, RejectsWrongMagicVersionAndEndianness) {
  const std::string original = ReadFile(path());
  const std::string mutant = TempPath("mutant.cwk");

  for (const Opener& open : kOpeners) {
    SCOPED_TRACE(open.name);
    std::string bad = original;
    bad[0] = 'X';  // magic
    WriteFile(mutant, bad);
    auto r1 = open.open(mutant);
    EXPECT_FALSE(r1.ok());
    EXPECT_TRUE(r1.status().IsInvalidArgument()) << r1.status().ToString();

    bad = original;
    bad[8] = 99;  // format version
    WriteFile(mutant, bad);
    auto r2 = open.open(mutant);
    EXPECT_FALSE(r2.ok());
    EXPECT_TRUE(r2.status().IsInvalidArgument()) << r2.status().ToString();

    bad = original;
    std::swap(bad[12], bad[15]);  // endianness stamp, byte-swapped
    WriteFile(mutant, bad);
    auto r3 = open.open(mutant);
    EXPECT_FALSE(r3.ok());
    EXPECT_TRUE(r3.status().IsInvalidArgument()) << r3.status().ToString();
  }
  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, RejectsTruncation) {
  const std::string original = ReadFile(path());
  const std::string mutant = TempPath("truncated.cwk");
  for (const size_t keep :
       {size_t{0}, size_t{9}, size_t{63}, size_t{64}, size_t{200},
        original.size() / 2, original.size() - 1}) {
    WriteFile(mutant, original.substr(0, keep));
    for (const Opener& open : kOpeners) {
      auto r = open.open(mutant);
      EXPECT_FALSE(r.ok()) << open.name << ": truncated to " << keep
                           << " bytes";
      EXPECT_TRUE(r.status().IsDataLoss() || r.status().IsInvalidArgument())
          << open.name << ": truncated to " << keep << ": "
          << r.status().ToString();
    }
  }
  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, RejectsEveryFlippedByte) {
  // Fuzz-ish sweep: flip one byte at a stride of offsets covering the
  // header and directory densely and the payload sections sparsely. Every
  // mutant must fail cleanly — kDataLoss for payload/directory damage,
  // kInvalidArgument when the flip lands in magic/version/endianness —
  // and none may crash or yield a working instance. The exception is the
  // out-of-core open of a flip in the padding or the paged in-targets,
  // which it does not read at open: every query kind then answers
  // bit-identically to the undamaged file, or fails with kDataLoss.
  const std::string original = ReadFile(path());
  const std::string mutant = TempPath("flipped.cwk");
  const size_t directory_end = 64 + 32 * size_t{NumSections(original)};
  auto info = InspectSnapshot(path());
  ASSERT_TRUE(info.ok());
  const auto unread_by_paged_open = [&](size_t off) {
    for (const SnapshotSectionInfo& s : info->sections) {
      if (off >= s.offset && off < s.offset + s.length) {
        return s.id == static_cast<uint32_t>(SnapshotSection::kInTargets);
      }
    }
    return off >= directory_end;  // padding
  };
  auto undamaged = CloudWalker::OutOfCore(path());
  ASSERT_TRUE(undamaged.ok());
  const std::vector<QueryResponse> reference = AskAllKinds(**undamaged);

  std::vector<size_t> offsets;
  for (size_t o = 0; o < std::min(original.size(), directory_end); ++o) {
    offsets.push_back(o);  // header + directory, every byte
  }
  for (size_t o = directory_end; o < original.size(); o += 997) {
    offsets.push_back(o);
  }
  offsets.push_back(original.size() - 1);

  size_t paged_opens = 0;
  for (const size_t off : offsets) {
    std::string bad = original;
    bad[off] = static_cast<char>(bad[off] ^ 0x40);
    WriteFile(mutant, bad);
    std::vector<Status> failures;
    for (const Opener& open : kOpeners) {
      auto r = open.open(mutant);
      if (r.ok() && open.paged && unread_by_paged_open(off)) {
        ++paged_opens;
        ExpectSameAnswers(reference, AskAllKinds(**r),
                          "flip at " + std::to_string(off),
                          /*data_loss_allowed=*/true);
        continue;
      }
      EXPECT_FALSE(r.ok()) << open.name << ": flip at offset " << off
                           << " went undetected";
      EXPECT_TRUE(r.status().IsDataLoss() || r.status().IsInvalidArgument())
          << open.name << ": flip at " << off << ": "
          << r.status().ToString();
      failures.push_back(r.status());
    }
    if (off < directory_end) {
      // Header and directory damage fails in the shared reader, so both
      // opens report it with the same code and message.
      EXPECT_EQ(failures[0].code(), failures[1].code()) << "flip at " << off;
      EXPECT_EQ(failures[0].message(), failures[1].message())
          << "flip at " << off;
    }
  }
  EXPECT_GT(paged_opens, 0u) << "the sweep never reached the in-targets";
  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, RejectsFlippedCrcField) {
  // Flipping a byte of a stored CRC (not the data it covers) must also
  // fail: the checksum and the payload can never be patched consistently
  // by a single-byte error.
  const std::string original = ReadFile(path());
  const std::string mutant = TempPath("crcflip.cwk");
  const uint32_t num_sections = NumSections(original);
  ASSERT_GE(num_sections, 7u) << "expected the kBlockIndex section too";
  // Section CRCs live at directory offset 64 + 32*i + 24.
  for (uint32_t section = 0; section < num_sections; ++section) {
    std::string bad = original;
    const size_t off = 64 + 32 * static_cast<size_t>(section) + 24;
    bad[off] = static_cast<char>(bad[off] ^ 0x01);
    WriteFile(mutant, bad);
    for (const Opener& open : kOpeners) {
      auto r = open.open(mutant);
      EXPECT_FALSE(r.ok()) << open.name << ": section " << section;
      EXPECT_TRUE(r.status().IsDataLoss())
          << open.name << ": " << r.status().ToString();
    }
  }
  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, StructuralDamageFailsBothOpensAlike) {
  // Damage behind re-stamped checksums, as a faulty writer would leave it:
  // each edit trips one check of the shared reader, which both opens run,
  // so both fail with the same status code and the same message. The base
  // artifact carries every section kind: several blocks and a
  // permutation (the identity).
  const Graph& g = built().graph();
  const uint64_t n = g.num_nodes();
  std::vector<NodeId> identity(n);
  std::iota(identity.begin(), identity.end(), NodeId{0});
  SnapshotWriteOptions write_options;
  write_options.block_bytes = 2048;
  write_options.permutation = identity;
  const std::string base = TempPath("structural.cwk");
  ASSERT_TRUE(SnapshotWriter::Write(base, g, built().index(),
                                    SnapshotMetadata{}, write_options)
                  .ok());
  for (const Opener& open : kOpeners) {
    ASSERT_TRUE(open.open(base).ok()) << open.name;
  }
  const std::string original = ReadFile(base);
  auto info = InspectSnapshot(base);
  ASSERT_TRUE(info.ok());
  const auto entry = [&](SnapshotSection id) -> uint64_t {
    for (size_t i = 0; i < info->sections.size(); ++i) {
      if (info->sections[i].id == static_cast<uint32_t>(id)) {
        return 64 + 32 * i;
      }
    }
    ADD_FAILURE() << "no section " << static_cast<uint32_t>(id);
    return 64;
  };
  const auto payload = [&](SnapshotSection id) {
    return Peek<uint64_t>(original, entry(id) + 8);
  };
  // A block boundary whose row is non-empty: moving it by one edge keeps
  // the offsets monotone but cuts the rows where the index does not.
  const std::vector<BlockExtent> blocks =
      BuildBlockLayout(g.InOffsets(), g.InTargets(), 2048);
  ASSERT_GT(blocks.size(), 2u);
  NodeId boundary = 0;
  for (size_t b = 1; b < blocks.size() && boundary == 0; ++b) {
    const NodeId v = blocks[b].node_begin;
    if (g.InOffsets()[v] < g.InOffsets()[v + 1]) boundary = v;
  }
  ASSERT_NE(boundary, 0u);

  using SS = SnapshotSection;
  struct Mutant {
    const char* name;
    std::function<void(std::string*)> edit;
    StatusCode code;
    const char* message;
  };
  const Mutant mutants[] = {
      {"truncated header", [](std::string* b) { b->resize(40); },
       StatusCode::kDataLoss, "truncated header (40 bytes, need 64)"},
      {"truncated directory", [](std::string* b) { b->resize(64 + 32 * 3); },
       StatusCode::kDataLoss, "truncated directory"},
      {"version", [](std::string* b) { Poke<uint32_t>(b, 8, 3); },
       StatusCode::kInvalidArgument, "unsupported snapshot version 3"},
      {"section count", [](std::string* b) { Poke<uint32_t>(b, 16, 5); },
       StatusCode::kDataLoss, "implausible section count 5"},
      {"recorded size",
       [](std::string* b) { Poke<uint64_t>(b, 24, b->size() + 64); },
       StatusCode::kDataLoss, "bytes but the header records"},
      {"node count",
       [](std::string* b) { Poke<uint64_t>(b, 32, uint64_t{1} << 32); },
       StatusCode::kDataLoss, "node count exceeds the 32-bit id space"},
      {"misaligned section",
       [&](std::string* b) {
         Poke<uint64_t>(b, entry(SS::kDiagonal) + 8,
                        payload(SS::kDiagonal) + 8);
       },
       StatusCode::kDataLoss, "section diagonal lies outside the file"},
      {"section past the end",
       [&](std::string* b) {
         Poke<uint64_t>(b, entry(SS::kDiagonal) + 16, b->size());
       },
       StatusCode::kDataLoss, "section diagonal lies outside the file"},
      {"overlapping sections",
       [&](std::string* b) {
         Poke<uint64_t>(b, entry(SS::kDiagonal) + 8,
                        payload(SS::kOutTargets));
       },
       StatusCode::kDataLoss, "overlapping sections"},
      {"element size",
       [&](std::string* b) { Poke<uint32_t>(b, entry(SS::kMeta) + 4, 0); },
       StatusCode::kDataLoss, "section meta has a malformed element size"},
      {"missing section",
       [&](std::string* b) { Poke<uint32_t>(b, entry(SS::kDiagonal), 11); },
       StatusCode::kDataLoss, "missing section diagonal"},
      {"section count mismatch",
       [&](std::string* b) {
         Poke<uint64_t>(b, entry(SS::kDiagonal) + 16, (n - 1) * 8);
       },
       StatusCode::kDataLoss,
       "section diagonal disagrees with the header's node/edge counts"},
      {"optional section element size",
       [&](std::string* b) {
         Poke<uint32_t>(b, entry(SS::kPermutation) + 4, 2);
       },
       StatusCode::kDataLoss,
       "section permutation disagrees with the header's node/edge counts"},
      {"offsets not monotone",
       [&](std::string* b) {
         Poke<uint64_t>(b, payload(SS::kOutOffsets) + 8,
                        g.num_edges() + 1);
       },
       StatusCode::kDataLoss, "CSR offsets are not monotone"},
      {"in-offsets not monotone",
       [&](std::string* b) {
         Poke<uint64_t>(b, payload(SS::kInOffsets) + 8, g.num_edges() + 1);
       },
       StatusCode::kDataLoss, "CSR offsets are not monotone"},
      {"target out of range",
       [&](std::string* b) {
         Poke<NodeId>(b, payload(SS::kOutTargets), static_cast<NodeId>(n));
       },
       StatusCode::kDataLoss, "edge target out of node range"},
      {"last target at the largest id",
       [&](std::string* b) {
         // The span's tail, with the high bit set: a signed compare in
         // the vectorized check would pass it.
         const uint64_t last =
             payload(SS::kOutTargets) + (g.num_edges() - 1) * sizeof(NodeId);
         Poke<NodeId>(b, last, ~NodeId{0});
       },
       StatusCode::kDataLoss, "edge target out of node range"},
      {"invalid parameters",
       [&](std::string* b) { Poke<double>(b, payload(SS::kMeta), 2.0); },
       StatusCode::kDataLoss, "metadata carries invalid SimRank parameters"},
      {"undecodable metadata",
       [&](std::string* b) {
         // The builder string's length prefix ends the empty-builder meta.
         const uint64_t meta_end =
             payload(SS::kMeta) +
             Peek<uint64_t>(original, entry(SS::kMeta) + 16);
         Poke<uint64_t>(b, meta_end - 8, uint64_t{1} << 40);
       },
       StatusCode::kDataLoss, "undecodable metadata"},
      {"permutation not a bijection",
       [&](std::string* b) {
         Poke<NodeId>(b, payload(SS::kPermutation) + sizeof(NodeId), 0);
       },
       StatusCode::kDataLoss, "permutation is not a bijection"},
      {"undecodable block index",
       [&](std::string* b) {
         Poke<uint32_t>(b, payload(SS::kBlockIndex), 0xffff);
       },
       StatusCode::kDataLoss, "undecodable block index"},
      {"block index cut elsewhere",
       [&](std::string* b) {
         Poke<uint64_t>(b, payload(SS::kInOffsets) + 8 * uint64_t{boundary},
                        g.InOffsets()[boundary] + 1);
       },
       StatusCode::kDataLoss, "block index disagrees with the in-CSR"},
  };
  const std::string mutant = TempPath("structural_mutant.cwk");
  for (const Mutant& m : mutants) {
    SCOPED_TRACE(m.name);
    std::string bad = original;
    m.edit(&bad);
    Restamp(&bad);
    WriteFile(mutant, bad);
    std::vector<Status> failures;
    for (const Opener& open : kOpeners) {
      auto r = open.open(mutant);
      EXPECT_FALSE(r.ok()) << open.name << " opened it";
      EXPECT_EQ(r.status().code(), m.code)
          << open.name << ": " << r.status().ToString();
      EXPECT_NE(r.status().message().find(m.message), std::string::npos)
          << open.name << ": " << r.status().ToString();
      failures.push_back(r.status());
    }
    EXPECT_EQ(failures[0].message(), failures[1].message());
  }
  std::remove(mutant.c_str());
  std::remove(base.c_str());
}

TEST_F(SnapshotTest, PagedInTargetsFlipFailsItsQueryAndIsNeverCached) {
  // The out-of-core open leaves the in-targets to the per-block CRCs, so
  // a flipped in-target opens; the first query that pages its block fails
  // with kDataLoss, and the serving layer never caches that failure.
  const Graph& g = built().graph();
  const uint64_t edge = g.num_edges() / 2;
  NodeId source = 0;
  while (g.InOffsets()[source + 1] <= edge) ++source;
  auto info = InspectSnapshot(path());
  ASSERT_TRUE(info.ok());
  uint64_t in_targets = 0;
  for (const SnapshotSectionInfo& s : info->sections) {
    if (s.id == static_cast<uint32_t>(SnapshotSection::kInTargets)) {
      in_targets = s.offset;
    }
  }
  ASSERT_NE(in_targets, 0u);
  std::string bad = ReadFile(path());
  bad[in_targets + edge * sizeof(NodeId)] ^= 0x01;
  const std::string mutant = TempPath("in_target_flip.cwk");
  WriteFile(mutant, bad);

  EXPECT_TRUE(CloudWalker::Open(mutant).status().IsDataLoss());
  auto paged = CloudWalker::OutOfCore(mutant);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const QueryRequest request = QueryRequest::SourceTopK(source, 10);
  const QueryResponse direct = (*paged)->Execute(request);
  EXPECT_TRUE(direct.status.IsDataLoss()) << direct.status.ToString();
  EXPECT_NE(direct.status.message().find("checksum mismatch in block"),
            std::string::npos)
      << direct.status.ToString();

  QueryService service(*paged);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const QueryResponse served = service.Submit(request).Wait();
    EXPECT_TRUE(served.status.IsDataLoss())
        << "attempt " << attempt << ": " << served.status.ToString();
    EXPECT_FALSE(served.cache_hit) << "attempt " << attempt;
  }
  EXPECT_EQ(service.Stats().cache_hits, 0u);
  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, NoBlockIndexOpensThroughBothPathsIdentically) {
  // An artifact without the kBlockIndex section must open via the mmap
  // path AND via OutOfCore's whole-file fallback, answering identically.
  const std::string flat_path = TempPath("noblockindex.cwk");
  SnapshotWriteOptions write_options;
  write_options.write_block_index = false;
  ASSERT_TRUE(SnapshotWriter::Write(flat_path, built().graph(),
                                    built().index(), SnapshotMetadata{},
                                    write_options)
                  .ok());
  const std::string bytes = ReadFile(flat_path);
  EXPECT_EQ(NumSections(bytes), 6u) << "only the required sections";

  auto mmap_open = CloudWalker::Open(flat_path);
  ASSERT_TRUE(mmap_open.ok()) << mmap_open.status().ToString();
  EXPECT_FALSE((*mmap_open)->snapshot()->has_block_index());
  auto ooc_open = CloudWalker::OutOfCore(flat_path);
  ASSERT_TRUE(ooc_open.ok()) << ooc_open.status().ToString();
  ASSERT_NE((*ooc_open)->ooc_backend(), nullptr);
  EXPECT_TRUE((*ooc_open)->ooc_backend()->paged_snapshot().all_resident());

  const QueryRequest source = QueryRequest::SingleSource(42);
  const QueryResponse ra = built().Execute(source);
  const QueryResponse rb = (*mmap_open)->Execute(source);
  const QueryResponse rc = (*ooc_open)->Execute(source);
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok());
  const SparseVector& a = *ra.scores();
  const SparseVector& b = *rb.scores();
  const SparseVector& c = *rc.scores();
  ASSERT_EQ(a.entries().size(), c.entries().size());
  for (size_t e = 0; e < a.entries().size(); ++e) {
    EXPECT_EQ(a.entries()[e].value, b.entries()[e].value);
    EXPECT_EQ(a.entries()[e].value, c.entries()[e].value);
  }
  std::remove(flat_path.c_str());
}

TEST_F(SnapshotTest, MadviseFailureIsBestEffort) {
  // The access-pattern hints are advisory: a kernel that rejects them
  // must not fail the open, and answers are unaffected.
  SetSnapshotMadviseFailForTest(true);
  auto opened = CloudWalker::Open(path());
  SetSnapshotMadviseFailForTest(false);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const QueryResponse hinted = (*opened)->Execute(QueryRequest::Pair(1, 2));
  const QueryResponse plain = built().Execute(QueryRequest::Pair(1, 2));
  ASSERT_TRUE(hinted.ok() && plain.ok());
  EXPECT_EQ(hinted.score(), plain.score());
}

TEST_F(SnapshotTest, InspectReportsDirectoryAndFlagsDamage) {
  auto info = InspectSnapshot(path());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, 2u);
  EXPECT_EQ(info->num_nodes, built().graph().num_nodes());
  EXPECT_EQ(info->num_edges, built().graph().num_edges());
  EXPECT_TRUE(info->header_crc_ok);
  EXPECT_TRUE(info->has_block_index);
  EXPECT_FALSE(info->has_permutation);
  EXPECT_GT(info->block_count, 0u);
  ASSERT_EQ(info->sections.size(), info->num_sections);
  for (const SnapshotSectionInfo& s : info->sections) {
    EXPECT_TRUE(s.crc_ok) << s.name;
    EXPECT_NE(s.name, "unknown");
  }

  // Diagnostic-grade on damage: a flipped payload byte is *reported*, not
  // a hard failure.
  const std::string original = ReadFile(path());
  std::string bad = original;
  const size_t payload_off = info->sections.back().offset +
                             info->sections.back().length / 2;
  ASSERT_LT(payload_off, bad.size());
  bad[payload_off] = static_cast<char>(bad[payload_off] ^ 0x20);
  const std::string mutant = TempPath("inspect_damaged.cwk");
  WriteFile(mutant, bad);
  auto damaged = InspectSnapshot(mutant);
  ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();
  size_t bad_sections = 0;
  for (const SnapshotSectionInfo& s : damaged->sections) {
    if (!s.crc_ok) ++bad_sections;
  }
  EXPECT_EQ(bad_sections, 1u);
  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, MissingFileIsIoError) {
  for (const Opener& open : kOpeners) {
    auto r = open.open(TempPath("does-not-exist.cwk"));
    EXPECT_FALSE(r.ok()) << open.name;
    EXPECT_TRUE(r.status().IsIoError())
        << open.name << ": " << r.status().ToString();
  }
}

TEST(SnapshotWriterTest, RejectsMismatchedInputs) {
  Graph g1 = GenerateRmat(100, 500, /*seed=*/3);
  Graph g2 = GenerateRmat(120, 500, /*seed=*/4);
  IndexingOptions options;
  options.num_walkers = 5;
  options.params.num_steps = 3;
  auto cw = CloudWalker::Build(&g1, options);
  ASSERT_TRUE(cw.ok());
  // Index from a different graph: node counts disagree.
  const Status s = SnapshotWriter::Write(TempPath("bad.cwk"), g2, cw->index(),
                                         SnapshotMetadata{});
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // A permutation that is not a bijection.
  SnapshotWriteOptions write_options;
  const std::vector<NodeId> not_a_bijection(g1.num_nodes(), 0);
  write_options.permutation = not_a_bijection;
  const Status s2 = SnapshotWriter::Write(TempPath("bad.cwk"), g1,
                                          cw->index(), SnapshotMetadata{},
                                          write_options);
  ASSERT_FALSE(s2.ok());
  EXPECT_TRUE(s2.IsInvalidArgument()) << s2.ToString();
}

// --- Version 1 artifacts ---
//
// The fixtures were written by the CLI of the last version 1 release, one
// command per line:
//
//   cloudwalker_cli generate --type=rmat --nodes=300 --edges=2400
//       --seed=5 --out=v1.graph
//   cloudwalker_cli index --graph=v1.graph --snapshot-out=v1_plain.cwk
//       --walkers=10 --steps=5 --threads=1
//   cloudwalker_cli index --graph=v1.graph
//       --snapshot-out=v1_reordered_bfs.cwk --walkers=10 --steps=5
//       --reorder=bfs --threads=1

std::string Fixture(const std::string& name) {
  return std::string(CLOUDWALKER_TESTDATA_DIR) + "/" + name;
}

TEST(SnapshotV1Test, PlainFixtureAnswersLikeItsVersion2Rewrite) {
  const std::string v1 = Fixture("v1_plain.cwk");
  auto info = InspectSnapshot(v1);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, 1u);
  EXPECT_TRUE(info->has_block_index);

  auto mmap_v1 = CloudWalker::Open(v1);
  ASSERT_TRUE(mmap_v1.ok()) << mmap_v1.status().ToString();
  auto ooc_v1 = CloudWalker::OutOfCore(v1);
  ASSERT_TRUE(ooc_v1.ok()) << ooc_v1.status().ToString();
  EXPECT_FALSE((*ooc_v1)->ooc_backend()->paged_snapshot().all_resident());

  // Rewriting the opened version 1 artifact writes version 2: the same
  // graph and diagonal without the arena sections.
  const std::string v2 = TempPath("v1_rewritten.cwk");
  ASSERT_TRUE((*mmap_v1)->WriteSnapshot(v2).ok());
  auto v2_info = InspectSnapshot(v2);
  ASSERT_TRUE(v2_info.ok()) << v2_info.status().ToString();
  EXPECT_EQ(v2_info->format_version, 2u);
  for (const SnapshotSectionInfo& section : v2_info->sections) {
    EXPECT_NE(section.id, 5u);
    EXPECT_NE(section.id, 6u);
  }
  auto mmap_v2 = CloudWalker::Open(v2);
  ASSERT_TRUE(mmap_v2.ok()) << mmap_v2.status().ToString();
  auto ooc_v2 = CloudWalker::OutOfCore(v2);
  ASSERT_TRUE(ooc_v2.ok()) << ooc_v2.status().ToString();

  const std::vector<QueryResponse> reference = AskAllKinds(**mmap_v2);
  ExpectSameAnswers(reference, AskAllKinds(**mmap_v1), "v1 mmap");
  ExpectSameAnswers(reference, AskAllKinds(**ooc_v1), "v1 out-of-core");
  ExpectSameAnswers(reference, AskAllKinds(**ooc_v2), "v2 out-of-core");
  std::remove(v2.c_str());
}

TEST(SnapshotV1Test, ArenaSectionsKeepTheirChecksum) {
  // Version 1's arena sections are ignored, but a flipped byte in one
  // still fails the mmap open.
  const std::string original = ReadFile(Fixture("v1_plain.cwk"));
  auto info = InspectSnapshot(Fixture("v1_plain.cwk"));
  ASSERT_TRUE(info.ok());
  const std::string mutant = TempPath("v1_arena_flip.cwk");
  for (const SnapshotSectionInfo& section : info->sections) {
    if (section.id != 5 && section.id != 6) continue;
    std::string bad = original;
    const size_t off = section.offset + section.length / 2;
    bad[off] = static_cast<char>(bad[off] ^ 0x40);
    WriteFile(mutant, bad);
    auto r = CloudWalker::Open(mutant);
    ASSERT_FALSE(r.ok()) << section.name;
    EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  }
  std::remove(mutant.c_str());
}

TEST(SnapshotV1Test, ReorderedFixtureIsRefused) {
  // Its in-rows are in internal-id order, which walks on the in-CSR alone
  // cannot use: both open paths refuse it and say how to rebuild.
  const std::string v1 = Fixture("v1_reordered_bfs.cwk");
  auto mmap_open = CloudWalker::Open(v1);
  EXPECT_FALSE(mmap_open.ok());
  EXPECT_TRUE(mmap_open.status().IsFailedPrecondition())
      << mmap_open.status().ToString();
  EXPECT_NE(mmap_open.status().message().find("index --reorder"),
            std::string::npos)
      << mmap_open.status().ToString();
  auto ooc_open = CloudWalker::OutOfCore(v1);
  EXPECT_FALSE(ooc_open.ok());
  EXPECT_TRUE(ooc_open.status().IsFailedPrecondition())
      << ooc_open.status().ToString();
}

}  // namespace
}  // namespace cloudwalker
