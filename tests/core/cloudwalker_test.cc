#include "core/cloudwalker.h"

#include <gtest/gtest.h>

#include <variant>

#include "graph/generators.h"

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
  auto s = cw->SinglePair(4, 4, FastQuery());
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.value(), 1.0);
}

TEST(CloudWalkerTest, SinglePairClampedToUnitInterval) {
  const Graph g = GenerateRmat(80, 560, 4);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  for (NodeId i = 0; i < 10; ++i) {
    for (NodeId j = 0; j < 10; ++j) {
      auto s = cw->SinglePair(i, j, FastQuery());
      ASSERT_TRUE(s.ok());
      EXPECT_GE(s.value(), 0.0);
      EXPECT_LE(s.value(), 1.0);
    }
  }
}

TEST(CloudWalkerTest, SinglePairOutOfRangeFails) {
  const Graph g = GenerateCycle(5);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  EXPECT_EQ(cw->SinglePair(0, 99, FastQuery()).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(cw->SinglePair(99, 0, FastQuery()).status().code(),
            StatusCode::kOutOfRange);
}

TEST(CloudWalkerTest, SinglePairInvalidOptionsFail) {
  const Graph g = GenerateCycle(5);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  QueryOptions q;
  q.num_walkers = 0;
  EXPECT_EQ(cw->SinglePair(0, 1, q).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CloudWalkerTest, SingleSourcePinsSelfToOne) {
  const Graph g = GenerateRmat(60, 420, 5);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  auto s = cw->SingleSource(7, FastQuery());
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s->Get(7), 1.0);
  for (const SparseEntry& e : *s) {
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
  auto s = cw->SingleSource(2, FastQuery());
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s->Get(2), 1.0);
}

TEST(CloudWalkerTest, SingleSourceTopKExcludesSelf) {
  const Graph g = GenerateRmat(60, 420, 6);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  auto top = cw->SingleSourceTopK(3, 5, FastQuery());
  ASSERT_TRUE(top.ok());
  EXPECT_LE(top->size(), 5u);
  for (const ScoredNode& sn : *top) {
    EXPECT_NE(sn.node, 3u);
    EXPECT_GE(sn.score, 0.0);
    EXPECT_LE(sn.score, 1.0);
  }
}

TEST(CloudWalkerTest, AllPairsCoversEverySource) {
  const Graph g = GenerateRmat(40, 280, 7);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  QueryOptions q = FastQuery();
  q.num_walkers = 400;
  ThreadPool pool(4);
  auto all = cw->AllPairs(3, q, &pool);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), g.num_nodes());
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
      auto s = cw->SinglePair(static_cast<NodeId>(i % 40),
                              static_cast<NodeId>((i * 7) % 80), FastQuery());
      ASSERT_TRUE(s.ok());
      results[i] = s.value();
    }
  });
  // Re-run serially and compare: concurrent execution must not perturb
  // deterministic per-query results.
  for (uint64_t i = 0; i < 64; ++i) {
    auto s = cw->SinglePair(static_cast<NodeId>(i % 40),
                            static_cast<NodeId>((i * 7) % 80), FastQuery());
    ASSERT_TRUE(s.ok());
    EXPECT_DOUBLE_EQ(results[i], s.value()) << "query " << i;
  }
}

// --- Execute(): the unified request entry point. -------------------------

TEST(CloudWalkerTest, ExecuteMatchesPerKindMethodsBitExactly) {
  const Graph g = GenerateRmat(100, 700, 1);
  auto cw = CloudWalker::Build(&g, FastIndex());
  ASSERT_TRUE(cw.ok());
  const QueryOptions q = FastQuery();

  const QueryResponse pair =
      cw->Execute(QueryRequest::Pair(3, 17).WithOptions(q));
  ASSERT_TRUE(pair.ok()) << pair.status.ToString();
  EXPECT_EQ(pair.score(), cw->SinglePair(3, 17, q).value());
  EXPECT_GT(pair.stats.walk_steps, 0u);
  EXPECT_GT(pair.latency_seconds, 0.0);

  const QueryResponse source =
      cw->Execute(QueryRequest::SingleSource(7).WithOptions(q));
  ASSERT_TRUE(source.ok());
  auto direct_source = cw->SingleSource(7, q);
  ASSERT_TRUE(direct_source.ok());
  ASSERT_EQ(source.scores()->size(), direct_source->size());
  for (size_t i = 0; i < direct_source->size(); ++i) {
    EXPECT_EQ((*source.scores())[i], (*direct_source)[i]);
  }

  const QueryResponse topk =
      cw->Execute(QueryRequest::SourceTopK(7, 5).WithOptions(q));
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(*topk.topk(), cw->SingleSourceTopK(7, 5, q).value());

  QueryOptions light = q;
  light.num_walkers = 100;  // keep the full sweep cheap
  const QueryResponse all =
      cw->Execute(QueryRequest::AllPairsTopK(2).WithOptions(light));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all.all_pairs(), cw->AllPairs(2, light).value());
}

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

}  // namespace
}  // namespace cloudwalker
