#include "graph/components.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.h"

namespace cloudwalker {
namespace {

TEST(BfsReachableTest, ForwardDistancesOnPath) {
  const Graph g = GeneratePath(5);
  const auto order = BfsReachable(g, 1, Direction::kForward);
  ASSERT_EQ(order.size(), 4u);  // 1, 2, 3, 4
  EXPECT_EQ(order[0].node, 1u);
  EXPECT_EQ(order[0].distance, 0u);
  EXPECT_EQ(order[3].node, 4u);
  EXPECT_EQ(order[3].distance, 3u);
}

TEST(BfsReachableTest, BackwardDirection) {
  const Graph g = GeneratePath(5);
  const auto order = BfsReachable(g, 3, Direction::kBackward);
  ASSERT_EQ(order.size(), 4u);  // 3, 2, 1, 0
  EXPECT_EQ(order.back().node, 0u);
  EXPECT_EQ(order.back().distance, 3u);
}

TEST(BfsReachableTest, MaxHopsTruncates) {
  const Graph g = GeneratePath(10);
  const auto order = BfsReachable(g, 0, Direction::kForward, 2);
  ASSERT_EQ(order.size(), 3u);  // 0, 1, 2
  for (const BfsVisit& v : order) EXPECT_LE(v.distance, 2u);
}

TEST(BfsReachableTest, VisitsEachNodeOnce) {
  const Graph g = GenerateRmat(500, 4000, 3);
  const auto order = BfsReachable(g, 0, Direction::kForward);
  std::set<NodeId> seen;
  for (const BfsVisit& v : order) {
    EXPECT_TRUE(seen.insert(v.node).second) << "duplicate " << v.node;
  }
}

}  // namespace
}  // namespace cloudwalker
