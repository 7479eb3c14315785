#include "core/cloudwalker.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "graph/generators.h"
#include "ooc/reorder.h"

namespace cloudwalker {
namespace {

IndexingOptions FastIndex() {
  IndexingOptions o;
  o.num_walkers = 300;
  o.jacobi_iterations = 4;
  o.seed = 2;
  return o;
}

QueryOptions FastQuery() {
  QueryOptions q;
  q.num_walkers = 3000;
  q.seed = 3;
  return q;
}

TEST(CloudWalkerTest, BuildRejectsNullGraph) {
  auto cw = CloudWalker::Build(nullptr, FastIndex());
  EXPECT_FALSE(cw.ok());
  EXPECT_EQ(cw.status().code(), StatusCode::kInvalidArgument);
}

TEST(CloudWalkerTest, BuildRejectsInvalidOptions) {
  const Graph g = GenerateCycle(10);
  IndexingOptions o = FastIndex();
  o.params.decay = 1.5;
  EXPECT_FALSE(CloudWalker::Build(&g, o).ok());
}

TEST(CloudWalkerTest, BuildProducesQueryableIndex) {
  const Graph g = GenerateRmat(100, 700, 1);
  ThreadPool pool(4);
  auto cw = CloudWalker::Build(&g, FastIndex(), &pool);
  ASSERT_TRUE(cw.ok()) << cw.status().ToString();
  EXPECT_EQ(cw->index().num_nodes(), g.num_nodes());
  EXPECT_GT(cw->indexing_stats().walk_steps, 0u);
  EXPECT_EQ(&cw->graph(), &g);
}

TEST(CloudWalkerTest, SinglePairSelfIsOne) {
  const Graph g = GenerateCycle(12);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  const QueryResponse s =
      cw->Execute(QueryRequest::Pair(4, 4).WithOptions(FastQuery()));
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.score(), 1.0);
}

TEST(CloudWalkerTest, SinglePairClampedToUnitInterval) {
  const Graph g = GenerateRmat(80, 560, 4);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  for (NodeId i = 0; i < 10; ++i) {
    for (NodeId j = 0; j < 10; ++j) {
      const QueryResponse s =
          cw->Execute(QueryRequest::Pair(i, j).WithOptions(FastQuery()));
      ASSERT_TRUE(s.ok());
      EXPECT_GE(s.score(), 0.0);
      EXPECT_LE(s.score(), 1.0);
    }
  }
}

TEST(CloudWalkerTest, SinglePairOutOfRangeFails) {
  const Graph g = GenerateCycle(5);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  const QueryResponse high_j =
      cw->Execute(QueryRequest::Pair(0, 99).WithOptions(FastQuery()));
  EXPECT_EQ(high_j.status.code(), StatusCode::kOutOfRange);
  const QueryResponse high_i =
      cw->Execute(QueryRequest::Pair(99, 0).WithOptions(FastQuery()));
  EXPECT_EQ(high_i.status.code(), StatusCode::kOutOfRange);
}

TEST(CloudWalkerTest, SinglePairInvalidOptionsFail) {
  const Graph g = GenerateCycle(5);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  QueryOptions q;
  q.num_walkers = 0;
  EXPECT_EQ(cw->Execute(QueryRequest::Pair(0, 1).WithOptions(q)).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(CloudWalkerTest, SingleSourcePinsSelfToOne) {
  const Graph g = GenerateRmat(60, 420, 5);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  const QueryResponse s =
      cw->Execute(QueryRequest::SingleSource(7).WithOptions(FastQuery()));
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.scores()->Get(7), 1.0);
  for (const SparseEntry& e : *s.scores()) {
    EXPECT_GE(e.value, 0.0);
    EXPECT_LE(e.value, 1.0);
  }
}

TEST(CloudWalkerTest, SingleSourceIsolatedNodeStillHasSelf) {
  // Node with no edges at all: the sparse result must still pin self = 1.
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  const Graph g = std::move(b.Build()).value();
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  const QueryResponse s =
      cw->Execute(QueryRequest::SingleSource(2).WithOptions(FastQuery()));
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.scores()->Get(2), 1.0);
}

TEST(CloudWalkerTest, SingleSourceTopKExcludesSelf) {
  const Graph g = GenerateRmat(60, 420, 6);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  const QueryResponse top =
      cw->Execute(QueryRequest::SourceTopK(3, 5).WithOptions(FastQuery()));
  ASSERT_TRUE(top.ok());
  EXPECT_LE(top.topk()->size(), 5u);
  for (const ScoredNode& sn : *top.topk()) {
    EXPECT_NE(sn.node, 3u);
    EXPECT_GE(sn.score, 0.0);
    EXPECT_LE(sn.score, 1.0);
  }
  // Execute fills the execution metadata beside the answer.
  EXPECT_GT(top.stats.walk_steps, 0u);
  EXPECT_GT(top.latency_seconds, 0.0);
}

TEST(CloudWalkerTest, AllPairsCoversEverySource) {
  const Graph g = GenerateRmat(40, 280, 7);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  QueryOptions q = FastQuery();
  q.num_walkers = 400;
  ThreadPool pool(4);
  const QueryResponse all =
      cw->Execute(QueryRequest::AllPairsTopK(3).WithOptions(q), &pool);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.all_pairs()->size(), g.num_nodes());
}

TEST(CloudWalkerTest, FromIndexRejectsMismatchedSizes) {
  DiagonalIndex idx(SimRankParams{}, std::vector<double>(5, 0.4));
  auto cw = CloudWalker::FromIndex(GenerateCycle(10), std::move(idx));
  EXPECT_EQ(cw.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CloudWalkerTest, QueriesAreThreadSafe) {
  const Graph g = GenerateRmat(80, 560, 9);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  ThreadPool pool(8);
  std::vector<double> results(64, -1.0);
  pool.ParallelFor(0, 64, 1, [&](uint64_t b, uint64_t e) {
    for (uint64_t i = b; i < e; ++i) {
      const QueryRequest pair = QueryRequest::Pair(
          static_cast<NodeId>(i % 40), static_cast<NodeId>((i * 7) % 80));
      const QueryResponse s = cw->Execute(pair.WithOptions(FastQuery()));
      ASSERT_TRUE(s.ok());
      results[i] = s.score();
    }
  });
  // Re-run serially and compare: concurrent execution must not perturb
  // deterministic per-query results.
  for (uint64_t i = 0; i < 64; ++i) {
    const QueryRequest pair = QueryRequest::Pair(
        static_cast<NodeId>(i % 40), static_cast<NodeId>((i * 7) % 80));
    const QueryResponse s = cw->Execute(pair.WithOptions(FastQuery()));
    ASSERT_TRUE(s.ok());
    EXPECT_DOUBLE_EQ(results[i], s.score()) << "query " << i;
  }
}

// --- Execute(): validation and deadlines. -------------------------------

TEST(CloudWalkerTest, ExecuteValidatesWithTheCentralValidator) {
  const Graph g = GenerateCycle(10);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  QueryOptions bad = FastQuery();
  bad.num_walkers = 0;
  const QueryResponse r =
      cw->Execute(QueryRequest::Pair(0, 1).WithOptions(bad));
  EXPECT_TRUE(r.status.IsInvalidArgument());
  EXPECT_EQ(r.status, ValidateQueryOptions(bad));  // one message everywhere
  const QueryResponse oor = cw->Execute(QueryRequest::SourceTopK(99, 3));
  EXPECT_TRUE(oor.status.IsOutOfRange());
}

TEST(CloudWalkerTest, ExecuteHonorsRequestDeadline) {
  const Graph g = GenerateRmat(100, 700, 1);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  QueryOptions heavy = FastQuery();
  heavy.num_walkers = 300000;  // cannot finish within a 1 ms deadline
  const QueryResponse r = cw->Execute(
      QueryRequest::SourceTopK(3, 5).WithOptions(heavy).WithTimeout(1e-3));
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  EXPECT_TRUE(std::holds_alternative<std::monostate>(r.payload));
}

// --- Golden: Execute's post-processing, pinned bit for bit. --------------

// FNV-1a over raw bytes, chained onto `h`.
uint64_t Fnv(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t HashTopK(const TopKResult& top, uint64_t h) {
  const uint64_t size = top.size();  // so list boundaries count
  h = Fnv(&size, sizeof(size), h);
  for (const ScoredNode& s : top) {
    h = Fnv(&s.node, sizeof(s.node), h);
    h = Fnv(&s.score, sizeof(s.score), h);
  }
  return h;
}

// Hashes the payload bits of one OK response of any kind onto `h`.
uint64_t HashPayload(const QueryResponse& r, uint64_t h) {
  switch (r.kind) {
    case QueryKind::kPair: {
      const double s = r.score();
      return Fnv(&s, sizeof(s), h);
    }
    case QueryKind::kSingleSource:
      for (const SparseEntry& e : *r.scores()) {
        h = Fnv(&e.index, sizeof(e.index), h);
        h = Fnv(&e.value, sizeof(e.value), h);
      }
      return h;
    case QueryKind::kSourceTopK:
    case QueryKind::kPersonalizedPageRank:
    case QueryKind::kNode2Vec:
      return HashTopK(*r.topk(), h);
    case QueryKind::kAllPairsTopK:
      for (const TopKResult& top : *r.all_pairs()) h = HashTopK(top, h);
      return h;
  }
  return h;
}

constexpr NodeId kGoldenSources[] = {0, 1, 7, 42, 311, 1024, 1999};

// The requests of one kind, all at R' = 1000: pairs chain consecutive
// golden sources (with one self pair), the per-source kinds run every
// golden source at k = 10, and the all-pairs sweep runs on `small`. The
// requests keep the default push, pruned at 0.03 of each source's largest
// walk term.
std::vector<QueryRequest> GoldenRequests(QueryKind kind) {
  QueryOptions q;
  q.num_walkers = 1000;
  q.seed = 29;
  q.ppr_alpha = 0.7;
  q.n2v_return_p = 0.5;
  q.n2v_in_out_q = 2.0;
  std::vector<QueryRequest> requests;
  const size_t n = std::size(kGoldenSources);
  for (size_t s = 0; s < n; ++s) {
    const NodeId a = kGoldenSources[s];
    switch (kind) {
      case QueryKind::kPair:
        requests.push_back(QueryRequest::Pair(a, kGoldenSources[(s + 1) % n]));
        break;
      case QueryKind::kSingleSource:
        requests.push_back(QueryRequest::SingleSource(a));
        break;
      case QueryKind::kSourceTopK:
        requests.push_back(QueryRequest::SourceTopK(a, 10));
        break;
      case QueryKind::kPersonalizedPageRank:
        requests.push_back(QueryRequest::PersonalizedPageRank(a, 10));
        break;
      case QueryKind::kNode2Vec:
        requests.push_back(QueryRequest::Node2Vec(a, 10));
        break;
      case QueryKind::kAllPairsTopK:
        if (s == 0) requests.push_back(QueryRequest::AllPairsTopK(5));
        break;
    }
  }
  if (kind == QueryKind::kPair) requests.push_back(QueryRequest::Pair(42, 42));
  for (QueryRequest& r : requests) r = r.WithOptions(q);
  return requests;
}

// Hash of every golden request of `kind`; the all-pairs sweep runs on
// `small`, every other kind on `large`.
uint64_t GoldenHash(const CloudWalker& large, const CloudWalker& small,
                    QueryKind kind) {
  const CloudWalker& cw = kind == QueryKind::kAllPairsTopK ? small : large;
  uint64_t h = 0xcbf29ce484222325ull;
  for (const QueryRequest& request : GoldenRequests(kind)) {
    const QueryResponse r = cw.Execute(request);
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    if (r.ok()) h = HashPayload(r, h);
  }
  return h;
}

// Builds an engine over `graph` and reopens its BFS-reordered snapshot.
struct GoldenEngines {
  std::shared_ptr<const CloudWalker> built;
  std::shared_ptr<const CloudWalker> reordered;
};

GoldenEngines BuildGoldenEngines(Graph graph, const std::string& name) {
  IndexingOptions io = FastIndex();
  io.num_walkers = 100;
  GoldenEngines engines;
  auto built = CloudWalker::Build(std::move(graph), io);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return engines;
  engines.built = *built;
  const std::string path = ::testing::TempDir() + "/" + name;
  const Status written =
      engines.built->WriteReorderedSnapshot(path, ReorderKind::kBfs);
  EXPECT_TRUE(written.ok()) << written.ToString();
  auto reordered = CloudWalker::Open(path);
  EXPECT_TRUE(reordered.ok()) << reordered.status().ToString();
  if (reordered.ok()) engines.reordered = *reordered;
  std::remove(path.c_str());  // the mapping keeps the opened file alive
  return engines;
}

// Pins Execute's answers — the kernel dispatch plus the facade's
// post-processing: clamping, the kSingleSource self pin, the external-id
// translation before top-k and the all-pairs re-indexing — for every
// kind, on a built engine and on its BFS-reordered snapshot reopened.
// QueriesGoldenTest pins the kernels beneath; this pins what the facade
// makes of them. The constants assume IEEE-754 doubles without FMA
// contraction, as on x86-64.
TEST(CloudWalkerGoldenTest, ExecuteAnswersArePinned) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden constants are recorded for x86-64";
#endif
  const GoldenEngines large = BuildGoldenEngines(
      GenerateRmat(2000, 16000, /*seed=*/41), "golden_large_bfs.cwk");
  const GoldenEngines small = BuildGoldenEngines(
      GenerateRmat(100, 700, /*seed=*/43), "golden_small_bfs.cwk");
  ASSERT_TRUE(large.built && large.reordered && small.built && small.reordered);

  struct Expected {
    QueryKind kind;
    uint64_t built;
    uint64_t reordered;
  };
  const Expected expected[] = {
      {QueryKind::kPair, 0x7724313a637f684cull, 0xdd99c63b971e17cdull},
      {QueryKind::kPersonalizedPageRank, 0x3a0786bcf5d78d7aull,
       0x3a0786bcf5d78d7aull},
      {QueryKind::kNode2Vec, 0x38435649194638abull, 0x38435649194638abull},
      {QueryKind::kSingleSource, 0xd1b712b153286ef3ull, 0x1c84934eb33114c7ull},
      {QueryKind::kSourceTopK, 0x357e442005293c0bull, 0x89d6e9f56c2a7a4full},
      {QueryKind::kAllPairsTopK, 0xfcc196ccb7134070ull, 0xe43440ee17b64c69ull},
  };
  for (const Expected& want : expected) {
    SCOPED_TRACE(QueryKindToString(want.kind));
    const uint64_t built = GoldenHash(*large.built, *small.built, want.kind);
    EXPECT_EQ(built, want.built) << std::hex << built;
    const uint64_t reordered =
        GoldenHash(*large.reordered, *small.reordered, want.kind);
    EXPECT_EQ(reordered, want.reordered) << std::hex << reordered;
  }
}

}  // namespace
}  // namespace cloudwalker
