#include "core/diagonal.h"

#include <gtest/gtest.h>

namespace cloudwalker {
namespace {

TEST(DiagonalIndexTest, EmptyByDefault) {
  DiagonalIndex idx;
  EXPECT_EQ(idx.num_nodes(), 0u);
}

TEST(DiagonalIndexTest, WrapsDiagonal) {
  SimRankParams params;
  params.decay = 0.7;
  params.num_steps = 5;
  DiagonalIndex idx(params, {0.4, 0.5, 0.6});
  EXPECT_EQ(idx.num_nodes(), 3u);
  EXPECT_DOUBLE_EQ(idx[1], 0.5);
  EXPECT_DOUBLE_EQ(idx.params().decay, 0.7);
  EXPECT_EQ(idx.params().num_steps, 5u);
}

}  // namespace
}  // namespace cloudwalker
