// Tier-0 canary: exercises the public facade end to end on a small graph.
// If this suite fails, the library is broken at the surface — look here
// before digging into the per-module suites.

#include <cstdio>
#include <string>

#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "gtest/gtest.h"

namespace cloudwalker {
namespace {

class SmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = GenerateErdosRenyi(/*num_nodes=*/64, /*num_edges=*/256,
                                /*seed=*/7);
  }

  Graph graph_;
};

TEST_F(SmokeTest, BuildAndQueryEndToEnd) {
  auto cw = CloudWalker::Build(&graph_);
  ASSERT_TRUE(cw.ok()) << cw.status().ToString();

  const QueryResponse pair = cw->Execute(QueryRequest::Pair(1, 2));
  ASSERT_TRUE(pair.ok()) << pair.status.ToString();
  EXPECT_GE(pair.score(), 0.0);
  EXPECT_LE(pair.score(), 1.0);

  const QueryResponse self = cw->Execute(QueryRequest::Pair(3, 3));
  ASSERT_TRUE(self.ok());
  EXPECT_DOUBLE_EQ(self.score(), 1.0);

  const QueryResponse topk = cw->Execute(QueryRequest::SourceTopK(1, /*k=*/5));
  ASSERT_TRUE(topk.ok()) << topk.status.ToString();
  EXPECT_LE(topk.topk()->size(), 5u);
  for (const auto& scored : *topk.topk()) {
    EXPECT_NE(scored.node, NodeId{1});
    EXPECT_GE(scored.score, 0.0);
    EXPECT_LE(scored.score, 1.0);
  }
}

TEST_F(SmokeTest, WriteSnapshotOpenRoundTrip) {
  auto built = CloudWalker::Build(&graph_);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::string path = ::testing::TempDir() + "/smoke_test.cwk";
  ASSERT_TRUE(built->WriteSnapshot(path).ok());

  auto reloaded = CloudWalker::Open(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  ASSERT_EQ((*reloaded)->index().num_nodes(), built->index().num_nodes());
  for (NodeId k = 0; k < graph_.num_nodes(); ++k) {
    EXPECT_DOUBLE_EQ((*reloaded)->index()[k], built->index()[k])
        << "k=" << k;
  }

  // Identical index + identical query seed: the estimates must agree.
  QueryOptions q;
  q.seed = 12345;
  const QueryRequest request = QueryRequest::Pair(4, 9).WithOptions(q);
  const QueryResponse a = built->Execute(request);
  const QueryResponse b = (*reloaded)->Execute(request);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.score(), b.score());

  std::remove(path.c_str());
}

TEST_F(SmokeTest, RejectsOutOfRangeNodes) {
  auto cw = CloudWalker::Build(&graph_);
  ASSERT_TRUE(cw.ok());
  EXPECT_FALSE(cw->Execute(QueryRequest::Pair(0, graph_.num_nodes())).ok());
  EXPECT_FALSE(
      cw->Execute(QueryRequest::SingleSource(graph_.num_nodes())).ok());
}

}  // namespace
}  // namespace cloudwalker
