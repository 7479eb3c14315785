#include "baselines/lin.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "baselines/exact_simrank.h"
#include "core/indexer.h"
#include "graph/generators.h"

namespace cloudwalker {
namespace {

LinIndex::Options ExactOptions() {
  LinIndex::Options o;
  o.prune_threshold = 0.0;  // fully exact
  o.jacobi_iterations = 6;
  return o;
}

TEST(LinTest, RejectsBadOptions) {
  const Graph g = GenerateCycle(4);
  LinIndex::Options o;
  o.jacobi_iterations = 0;
  EXPECT_FALSE(LinIndex::Build(g, o).ok());
  o = LinIndex::Options();
  o.prune_threshold = -1.0;
  EXPECT_FALSE(LinIndex::Build(g, o).ok());
  o.prune_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(LinIndex::Build(g, o).ok());
  o = LinIndex::Options();
  o.params.decay = 0.0;
  EXPECT_FALSE(LinIndex::Build(g, o).ok());
}

TEST(LinTest, RejectsEmptyGraph) {
  EXPECT_FALSE(LinIndex::Build(Graph(), ExactOptions()).ok());
}

TEST(LinTest, EdgeOpBudgetEnforced) {
  const Graph g = GenerateRmat(2000, 20000, 1);
  LinIndex::Options o = ExactOptions();
  o.max_edge_ops = 1000;  // absurdly small
  auto idx = LinIndex::Build(g, o);
  EXPECT_EQ(idx.status().code(), StatusCode::kResourceExhausted);
}

TEST(LinTest, CycleDiagonalNearOneMinusC) {
  const Graph g = GenerateCycle(40);
  auto idx = LinIndex::Build(g, ExactOptions());
  ASSERT_TRUE(idx.ok());
  for (NodeId v = 0; v < 40; ++v) {
    EXPECT_NEAR(idx->diagonal()[v], 0.4, 0.02);
  }
}

TEST(LinTest, DiagonalMatchesExactCorrection) {
  const Graph g = GenerateRmat(80, 480, 2);
  auto exact = ExactSimRank::Compute(g);
  ASSERT_TRUE(exact.ok());
  const std::vector<double> d_exact = exact->ExactDiagonalCorrection();
  auto idx = LinIndex::Build(g, ExactOptions());
  ASSERT_TRUE(idx.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // No Monte-Carlo noise; only T-truncation and Jacobi iteration error.
    EXPECT_NEAR(idx->diagonal()[v], d_exact[v], 0.03) << "node " << v;
  }
}

TEST(LinTest, SinglePairMatchesExactSimRank) {
  const Graph g = GenerateRmat(80, 480, 3);
  auto exact = ExactSimRank::Compute(g);
  ASSERT_TRUE(exact.ok());
  auto idx = LinIndex::Build(g, ExactOptions());
  ASSERT_TRUE(idx.ok());
  double max_err = 0.0;
  for (NodeId i = 0; i < 20; ++i) {
    for (NodeId j = i + 1; j < 20; ++j) {
      max_err = std::max(max_err, std::fabs(idx->SinglePair(i, j) -
                                            exact->Similarity(i, j)));
    }
  }
  EXPECT_LT(max_err, 0.03);
}

TEST(LinTest, SinglePairSymmetricAndSelfOne) {
  const Graph g = GenerateRmat(60, 360, 4);
  auto idx = LinIndex::Build(g, ExactOptions());
  ASSERT_TRUE(idx.ok());
  EXPECT_DOUBLE_EQ(idx->SinglePair(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(idx->SinglePair(3, 9), idx->SinglePair(9, 3));
}

TEST(LinTest, SingleSourceMatchesSinglePair) {
  const Graph g = GenerateRmat(60, 360, 5);
  auto idx = LinIndex::Build(g, ExactOptions());
  ASSERT_TRUE(idx.ok());
  const std::vector<double> ss = idx->SingleSource(11);
  ASSERT_EQ(ss.size(), g.num_nodes());
  EXPECT_DOUBLE_EQ(ss[11], 1.0);
  for (NodeId v : {0u, 25u, 59u}) {
    if (v == 11) continue;
    EXPECT_NEAR(ss[v], idx->SinglePair(11, v), 1e-9) << "node " << v;
  }
}

TEST(LinTest, PruningTradesAccuracyForWork) {
  const Graph g = GenerateRmat(500, 5000, 6);
  LinIndex::Options exact = ExactOptions();
  LinIndex::Options pruned = ExactOptions();
  pruned.prune_threshold = 1e-2;
  auto a = LinIndex::Build(g, exact);
  auto b = LinIndex::Build(g, pruned);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(b->build_edge_ops(), a->build_edge_ops());
  // Diagonals remain close despite pruning.
  double max_gap = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_gap =
        std::max(max_gap, std::fabs(a->diagonal()[v] - b->diagonal()[v]));
  }
  EXPECT_LT(max_gap, 0.1);
}

TEST(LinTest, MoreAccurateThanMonteCarloIndex) {
  // LIN's exact propagation should beat a low-R Monte-Carlo index — the
  // accuracy/cost trade-off at the heart of the paper's comparison.
  const Graph g = GenerateRmat(80, 480, 7);
  auto exact = ExactSimRank::Compute(g);
  ASSERT_TRUE(exact.ok());
  const std::vector<double> d_exact = exact->ExactDiagonalCorrection();

  auto lin = LinIndex::Build(g, ExactOptions());
  ASSERT_TRUE(lin.ok());
  IndexingOptions mc_opts;
  mc_opts.num_walkers = 20;  // deliberately noisy
  mc_opts.jacobi_iterations = 6;
  auto mc = BuildDiagonalIndex(g, mc_opts, nullptr);
  ASSERT_TRUE(mc.ok());

  double lin_err = 0.0, mc_err = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    lin_err += std::fabs(lin->diagonal()[v] - d_exact[v]);
    mc_err += std::fabs((*mc)[v] - d_exact[v]);
  }
  EXPECT_LT(lin_err, mc_err);
}

TEST(LinTest, EstimateBuildEdgeOpsIsPositiveAndScales) {
  const Graph small = GenerateRmat(200, 1600, 8);
  const Graph large = GenerateRmat(2000, 16000, 8);
  LinIndex::Options o = ExactOptions();
  const uint64_t small_est = LinIndex::EstimateBuildEdgeOps(small, o, 32);
  const uint64_t large_est = LinIndex::EstimateBuildEdgeOps(large, o, 32);
  EXPECT_GT(small_est, 0u);
  EXPECT_GT(large_est, small_est);
}

TEST(LinTest, BuildEdgeOpsReported) {
  const Graph g = GenerateRmat(100, 800, 9);
  auto idx = LinIndex::Build(g, ExactOptions());
  ASSERT_TRUE(idx.ok());
  EXPECT_GT(idx->build_edge_ops(), 0u);
}

}  // namespace
}  // namespace cloudwalker
