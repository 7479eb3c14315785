#include "core/indexer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "baselines/exact_simrank.h"
#include "engine/walk.h"
#include "graph/generators.h"

namespace cloudwalker {
namespace {

IndexingOptions SmallOptions() {
  IndexingOptions o;
  o.num_walkers = 200;
  o.jacobi_iterations = 3;
  o.seed = 5;
  return o;
}

TEST(BuildIndexRowTest, ContainsSelfTermWithCoefficientOne) {
  const Graph g = GenerateRmat(64, 512, 1);
  const SparseVector row = BuildIndexRow(g, 7, SmallOptions());
  // t = 0 contributes c^0 * 1^2 = 1 at the source.
  EXPECT_GE(row.Get(7), 1.0);
}

TEST(BuildIndexRowTest, CycleRowIsGeometric) {
  // On a cycle walks are deterministic: a_k[k-t] = c^t exactly.
  const Graph g = GenerateCycle(30);
  IndexingOptions o = SmallOptions();
  o.params.num_steps = 5;
  const SparseVector row = BuildIndexRow(g, 10, o);
  ASSERT_EQ(row.size(), 6u);
  for (uint32_t t = 0; t <= 5; ++t) {
    EXPECT_NEAR(row.Get((10 + 30 - t) % 30), std::pow(0.6, t), 1e-12);
  }
}

TEST(BuildIndexRowTest, RowNonzerosBounded) {
  const Graph g = GenerateRmat(256, 2048, 2);
  IndexingOptions o = SmallOptions();
  const SparseVector row = BuildIndexRow(g, 0, o);
  EXPECT_LE(row.size(),
            static_cast<size_t>(o.num_walkers) * (o.params.num_steps + 1) + 1);
}

TEST(BuildIndexRowTest, StepsAccumulated) {
  const Graph g = GenerateCycle(10);
  IndexingOptions o = SmallOptions();
  o.params.num_steps = 4;
  o.num_walkers = 8;
  uint64_t steps = 0;
  BuildIndexRow(g, 0, o, nullptr, nullptr, &steps);
  EXPECT_EQ(steps, 32u);
}

// BuildIndexRow sorts a row's level-tagged endpoints once; the reference
// aggregates each level first and then folds the levels with
// RowFromWalkDistributions. Every row must match it bit for bit and come
// out exactly sized.
void ExpectRowsMatchReference(const Graph& g, const IndexingOptions& o) {
  WalkConfig cfg;
  cfg.num_steps = o.params.num_steps;
  cfg.num_walkers = o.num_walkers;
  cfg.dangling = o.dangling;
  cfg.seed = o.seed;
  WalkScratch walk(o.num_walkers);
  IndexRowScratch row;
  for (NodeId k = 0; k < g.num_nodes(); ++k) {
    const SparseVector want = RowFromWalkDistributions(
        SimulateWalkDistributions(g, k, cfg), o.params.decay);
    const SparseVector got = BuildIndexRow(g, k, o, &walk, &row);
    ASSERT_EQ(got.size(), want.size()) << "row " << k;
    EXPECT_EQ(got.entries().capacity(), got.size()) << "row " << k;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].index, want[i].index) << "row " << k << " entry " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i].value),
                std::bit_cast<uint64_t>(want[i].value))
          << "row " << k << " entry " << i;
    }
  }
}

TEST(BuildIndexRowTest, MatchesPerLevelReferenceBitForBit) {
  const Graph g = GenerateRmat(300, 2400, 6);
  for (const DanglingPolicy dangling :
       {DanglingPolicy::kDie, DanglingPolicy::kSelfLoop}) {
    for (const uint32_t walkers : {1u, 3u, 100u}) {
      for (const uint32_t steps : {1u, 10u, 40u}) {
        SCOPED_TRACE(testing::Message()
                     << "dangling " << static_cast<int>(dangling) << " R "
                     << walkers << " T " << steps);
        IndexingOptions o = SmallOptions();
        o.dangling = dangling;
        o.num_walkers = walkers;
        o.params.num_steps = steps;
        ExpectRowsMatchReference(g, o);
      }
    }
  }
}

TEST(BuildIndexRowTest, MatchesReferenceWhenTheTopIdNeedsItsOwnBit) {
  // 2^11 + 1 nodes: the largest id alone sets bit 11, so the sort's top
  // digit is nearly empty.
  const Graph g = GenerateRmat((1u << 11) + 1, 20000, 7);
  IndexingOptions o = SmallOptions();
  o.num_walkers = 100;
  ExpectRowsMatchReference(g, o);
}

TEST(BuildIndexRowsTest, OneRowPerNode) {
  const Graph g = GenerateErdosRenyi(100, 800, 3);
  ThreadPool pool(4);
  const IndexRows rows = BuildIndexRows(g, SmallOptions(), &pool);
  EXPECT_EQ(rows.rows.size(), g.num_nodes());
  EXPECT_GT(rows.total_walk_steps, 0u);
  for (const SparseVector& r : rows.rows) EXPECT_FALSE(r.empty());
}

TEST(BuildIndexRowsTest, SerialAndParallelIdentical) {
  const Graph g = GenerateRmat(128, 1024, 4);
  const IndexRows serial = BuildIndexRows(g, SmallOptions(), nullptr);
  ThreadPool pool(8);
  const IndexRows parallel = BuildIndexRows(g, SmallOptions(), &pool);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  EXPECT_EQ(serial.total_walk_steps, parallel.total_walk_steps);
  for (size_t k = 0; k < serial.rows.size(); ++k) {
    ASSERT_EQ(serial.rows[k].size(), parallel.rows[k].size()) << "row " << k;
    for (size_t i = 0; i < serial.rows[k].size(); ++i) {
      EXPECT_EQ(serial.rows[k][i], parallel.rows[k][i]);
    }
  }
}

TEST(JacobiSweepTest, HandComputedTwoByTwo) {
  // A = [[2, 1], [1, 4]], b = 1.
  std::vector<SparseVector> rows = {
      SparseVector::FromSorted({{0, 2.0}, {1, 1.0}}),
      SparseVector::FromSorted({{0, 1.0}, {1, 4.0}})};
  std::vector<double> x = {0.0, 0.0};
  x = JacobiSweep(rows, x, nullptr);
  EXPECT_DOUBLE_EQ(x[0], 0.5);
  EXPECT_DOUBLE_EQ(x[1], 0.25);
  x = JacobiSweep(rows, x, nullptr);
  EXPECT_DOUBLE_EQ(x[0], (1.0 - 0.25) / 2.0);
  EXPECT_DOUBLE_EQ(x[1], (1.0 - 0.5) / 4.0);
}

TEST(JacobiSweepTest, ConvergesOnDiagonallyDominantSystem) {
  // A = [[4, 1], [1, 4]]: Jacobi converges to x = (0.2, 0.2).
  std::vector<SparseVector> rows = {
      SparseVector::FromSorted({{0, 4.0}, {1, 1.0}}),
      SparseVector::FromSorted({{0, 1.0}, {1, 4.0}})};
  std::vector<double> x = {0.0, 0.0};
  for (int i = 0; i < 50; ++i) x = JacobiSweep(rows, x, nullptr);
  EXPECT_NEAR(x[0], 0.2, 1e-10);
  EXPECT_NEAR(x[1], 0.2, 1e-10);
  EXPECT_NEAR(JacobiResidual(rows, x, nullptr), 0.0, 1e-9);
}

TEST(JacobiResidualTest, ZeroAtExactSolution) {
  // A = [[2, 1], [1, 4]], x = A^{-1} 1 = (3/7, 1/7).
  std::vector<SparseVector> rows = {
      SparseVector::FromSorted({{0, 2.0}, {1, 1.0}}),
      SparseVector::FromSorted({{0, 1.0}, {1, 4.0}})};
  const std::vector<double> x = {3.0 / 7.0, 1.0 / 7.0};
  EXPECT_NEAR(JacobiResidual(rows, x, nullptr), 0.0, 1e-12);
}

TEST(JacobiResidualTest, MeasuresMaxDeviation) {
  std::vector<SparseVector> rows = {
      SparseVector::FromSorted({{0, 1.0}}),
      SparseVector::FromSorted({{1, 1.0}})};
  const std::vector<double> x = {1.5, 0.9};
  EXPECT_NEAR(JacobiResidual(rows, x, nullptr), 0.5, 1e-12);
}

TEST(BuildDiagonalIndexTest, ValidatesOptions) {
  const Graph g = GenerateCycle(5);
  IndexingOptions o;
  o.num_walkers = 0;
  EXPECT_FALSE(BuildDiagonalIndex(g, o, nullptr).ok());
}

TEST(BuildDiagonalIndexTest, RejectsEmptyGraph) {
  EXPECT_FALSE(BuildDiagonalIndex(Graph(), IndexingOptions{}, nullptr).ok());
}

TEST(BuildDiagonalIndexTest, RejectsResidualsWithRegenerate) {
  const Graph g = GenerateCycle(5);
  IndexingOptions o;
  o.row_mode = RowMode::kRegenerate;
  o.track_residuals = true;
  EXPECT_EQ(BuildDiagonalIndex(g, o, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BuildDiagonalIndexTest, CycleDiagonalNearOneMinusC) {
  // On a directed cycle the exact correction is D = (1-c) I.
  const Graph g = GenerateCycle(50);
  IndexingOptions o = SmallOptions();
  auto idx = BuildDiagonalIndex(g, o, nullptr);
  ASSERT_TRUE(idx.ok());
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_NEAR((*idx)[v], 0.4, 0.02) << "node " << v;
  }
}

TEST(BuildDiagonalIndexTest, DeterministicAcrossRuns) {
  const Graph g = GenerateRmat(200, 1600, 6);
  ThreadPool pool(6);
  auto a = BuildDiagonalIndex(g, SmallOptions(), &pool);
  auto b = BuildDiagonalIndex(g, SmallOptions(), &pool);
  ASSERT_TRUE(a.ok() && b.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ((*a)[v], (*b)[v]);
  }
}

TEST(BuildDiagonalIndexTest, StoreAndRegenerateModesIdentical) {
  // Regeneration replays the same per-node seeds, so the matrix A — and
  // therefore the solution — is bit-identical to the stored-rows mode.
  const Graph g = GenerateRmat(150, 1200, 7);
  IndexingOptions store = SmallOptions();
  store.row_mode = RowMode::kStoreRows;
  IndexingOptions regen = SmallOptions();
  regen.row_mode = RowMode::kRegenerate;
  auto a = BuildDiagonalIndex(g, store, nullptr);
  auto b = BuildDiagonalIndex(g, regen, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ((*a)[v], (*b)[v]) << "node " << v;
  }
}

TEST(BuildDiagonalIndexTest, StatsFilled) {
  const Graph g = GenerateErdosRenyi(80, 640, 8);
  IndexingStats stats;
  auto idx = BuildDiagonalIndex(g, SmallOptions(), nullptr, &stats);
  ASSERT_TRUE(idx.ok());
  EXPECT_GT(stats.walk_steps, 0u);
  EXPECT_GT(stats.row_nonzeros, 0u);
  EXPECT_GE(stats.walk_seconds, 0.0);
  EXPECT_GE(stats.solve_seconds, 0.0);
  EXPECT_TRUE(stats.residuals.empty());  // tracking off by default
}

TEST(BuildDiagonalIndexTest, ResidualsTrackedWhenRequested) {
  const Graph g = GenerateErdosRenyi(80, 640, 8);
  IndexingOptions o = SmallOptions();
  o.track_residuals = true;
  o.jacobi_iterations = 4;
  IndexingStats stats;
  auto idx = BuildDiagonalIndex(g, o, nullptr, &stats);
  ASSERT_TRUE(idx.ok());
  ASSERT_EQ(stats.residuals.size(), 4u);
  for (double r : stats.residuals) EXPECT_GE(r, 0.0);
}

TEST(BuildDiagonalIndexTest, ResidualShrinksOnRandomGraph) {
  // ER graphs give strongly diagonally dominant systems; the Jacobi
  // residual should drop substantially over the first iterations.
  const Graph g = GenerateErdosRenyi(300, 6000, 9);
  IndexingOptions o = SmallOptions();
  o.track_residuals = true;
  o.jacobi_iterations = 5;
  o.initial_diagonal = 1.0;  // deliberately poor start
  IndexingStats stats;
  ASSERT_TRUE(BuildDiagonalIndex(g, o, nullptr, &stats).ok());
  EXPECT_LT(stats.residuals.back(), 0.5 * stats.residuals.front());
}

TEST(BuildDiagonalIndexTest, MatchesExactDiagonalOnSmallGraph) {
  const Graph g = GenerateRmat(100, 700, 10);
  ExactSimRank::Options exact_opts;
  exact_opts.decay = 0.6;
  auto exact = ExactSimRank::Compute(g, exact_opts);
  ASSERT_TRUE(exact.ok());
  const std::vector<double> d_exact = exact->ExactDiagonalCorrection();

  IndexingOptions o;
  o.num_walkers = 2000;
  o.jacobi_iterations = 6;
  o.seed = 11;
  ThreadPool pool(8);
  auto idx = BuildDiagonalIndex(g, o, &pool);
  ASSERT_TRUE(idx.ok());
  double max_err = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_err = std::max(max_err, std::fabs((*idx)[v] - d_exact[v]));
  }
  EXPECT_LT(max_err, 0.08) << "Monte-Carlo diagonal far from exact";
}

TEST(BuildDiagonalIndexTest, DiagonalValuesInPlausibleRange) {
  const Graph g = GenerateRmat(500, 4000, 12);
  auto idx = BuildDiagonalIndex(g, SmallOptions(), nullptr);
  ASSERT_TRUE(idx.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GT((*idx)[v], 0.0) << "node " << v;
    EXPECT_LE((*idx)[v], 1.0 + 1e-9) << "node " << v;
  }
}

}  // namespace
}  // namespace cloudwalker
