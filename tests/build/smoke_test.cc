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

  auto pair = cw->SinglePair(1, 2);
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_GE(pair.value(), 0.0);
  EXPECT_LE(pair.value(), 1.0);

  auto self = cw->SinglePair(3, 3);
  ASSERT_TRUE(self.ok());
  EXPECT_DOUBLE_EQ(self.value(), 1.0);

  auto topk = cw->SingleSourceTopK(1, /*k=*/5);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  EXPECT_LE(topk->size(), 5u);
  for (const auto& scored : *topk) {
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
  auto a = built->SinglePair(4, 9, q);
  auto b = (*reloaded)->SinglePair(4, 9, q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.value(), b.value());

  std::remove(path.c_str());
}

TEST_F(SmokeTest, RejectsOutOfRangeNodes) {
  auto cw = CloudWalker::Build(&graph_);
  ASSERT_TRUE(cw.ok());
  EXPECT_FALSE(cw->SinglePair(0, graph_.num_nodes()).ok());
  EXPECT_FALSE(cw->SingleSource(graph_.num_nodes()).ok());
}

}  // namespace
}  // namespace cloudwalker
