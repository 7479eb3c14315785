// Statistical accuracy of the full CloudWalker stack against exact SimRank
// — the library-level counterpart of the paper's effectiveness study.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "baselines/exact_simrank.h"
#include "common/random.h"
#include "core/cloudwalker.h"
#include "core/indexer.h"
#include "core/queries.h"
#include "eval/dense.h"
#include "eval/metrics.h"
#include "graph/generators.h"

namespace cloudwalker {
namespace {

// Shared ground truth for all accuracy tests.
class AccuracyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(GenerateRmat(200, 1600, /*seed=*/17));
    auto exact = ExactSimRank::Compute(*graph_);
    ASSERT_TRUE(exact.ok());
    exact_ = new ExactSimRank(std::move(exact).value());
    pool_ = new ThreadPool(8);
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete exact_;
    delete pool_;
  }

  static double IndexError(const DiagonalIndex& idx) {
    const std::vector<double> d = exact_->ExactDiagonalCorrection();
    double err = 0.0;
    for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
      err += std::fabs(idx[v] - d[v]);
    }
    return err / graph_->num_nodes();
  }

  static Graph* graph_;
  static ExactSimRank* exact_;
  static ThreadPool* pool_;
};
Graph* AccuracyTest::graph_ = nullptr;
ExactSimRank* AccuracyTest::exact_ = nullptr;
ThreadPool* AccuracyTest::pool_ = nullptr;

TEST_F(AccuracyTest, MoreWalkersImproveTheDiagonal) {
  // Figure "CloudWalker converges quickly", R sweep: averaging over seeds
  // to avoid single-draw flukes.
  double err_small = 0.0, err_large = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    IndexingOptions small;
    small.num_walkers = 10;
    small.jacobi_iterations = 5;
    small.seed = seed;
    IndexingOptions large = small;
    large.num_walkers = 1000;
    auto a = BuildDiagonalIndex(*graph_, small, pool_);
    auto b = BuildDiagonalIndex(*graph_, large, pool_);
    ASSERT_TRUE(a.ok() && b.ok());
    err_small += IndexError(*a);
    err_large += IndexError(*b);
  }
  EXPECT_LT(err_large, err_small);
}

TEST_F(AccuracyTest, MoreJacobiIterationsReduceResidual) {
  IndexingOptions o;
  o.num_walkers = 500;
  o.jacobi_iterations = 6;
  o.track_residuals = true;
  o.initial_diagonal = 1.0;  // start far away
  IndexingStats stats;
  ASSERT_TRUE(BuildDiagonalIndex(*graph_, o, pool_, &stats).ok());
  ASSERT_EQ(stats.residuals.size(), 6u);
  EXPECT_LT(stats.residuals[5], stats.residuals[0]);
}

TEST_F(AccuracyTest, LongerWalksCaptureMoreSimilarity) {
  // T sweep: with T = 1 the truncated series only sees directly co-cited
  // pairs, so multi-hop similarity is missed entirely; T = 10 recovers it.
  IndexingOptions o;
  o.num_walkers = 800;
  o.jacobi_iterations = 5;

  auto mean_abs_error = [&](uint32_t t_steps) {
    IndexingOptions io = o;
    io.params.num_steps = t_steps;
    auto idx = BuildDiagonalIndex(*graph_, io, pool_);
    EXPECT_TRUE(idx.ok());
    QueryOptions qo;
    qo.num_walkers = 8000;
    double err = 0.0;
    int pairs = 0;
    for (NodeId i = 0; i < 16; ++i) {
      for (NodeId j = i + 1; j < 16; ++j) {
        err += std::fabs(SinglePairQuery(*graph_, *idx, i, j, qo) -
                         exact_->Similarity(i, j));
        ++pairs;
      }
    }
    return err / pairs;
  };
  EXPECT_LT(mean_abs_error(10), mean_abs_error(1));
}

TEST_F(AccuracyTest, MoreQueryWalkersImprovePairAccuracy) {
  IndexingOptions io;
  io.num_walkers = 800;
  io.jacobi_iterations = 5;
  auto idx = BuildDiagonalIndex(*graph_, io, pool_);
  ASSERT_TRUE(idx.ok());

  auto mean_err = [&](uint32_t walkers) {
    double err = 0.0;
    int pairs = 0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      QueryOptions qo;
      qo.num_walkers = walkers;
      qo.seed = seed;
      for (NodeId i = 0; i < 10; ++i) {
        for (NodeId j = i + 1; j < 10; ++j) {
          err += std::fabs(SinglePairQuery(*graph_, *idx, i, j, qo) -
                           exact_->Similarity(i, j));
          ++pairs;
        }
      }
    }
    return err / pairs;
  };
  EXPECT_LT(mean_err(20000), mean_err(100));
}

TEST_F(AccuracyTest, SingleSourcePrecisionAtTen) {
  IndexingOptions io;
  io.num_walkers = 800;
  io.jacobi_iterations = 5;
  auto cw = CloudWalker::Build(graph_, io, pool_);
  ASSERT_TRUE(cw.ok());
  QueryOptions qo;
  qo.num_walkers = 10000;
  qo.prune_threshold = 0.0;

  double precision = 0.0;
  const std::vector<NodeId> queries = {0, 25, 50, 75, 100};
  for (NodeId q : queries) {
    const QueryResponse est =
        cw->Execute(QueryRequest::SingleSource(q).WithOptions(qo));
    ASSERT_TRUE(est.ok());
    const std::vector<double> dense =
        ToDense(*est.scores(), graph_->num_nodes());
    const std::vector<double> truth = exact_->Row(q);
    precision += PrecisionAtK(TopKIndices(dense, 10, q),
                              TopKIndices(truth, 10, q), 10);
  }
  EXPECT_GT(precision / queries.size(), 0.6);
}

TEST_F(AccuracyTest, DefaultParametersHitPaperQuality) {
  // With the paper's default parameters the single-pair error should be
  // small — the "CloudWalker converges quickly" claim.
  IndexingOptions io;  // defaults: c=0.6, T=10, L=3, R=100
  io.seed = 23;
  auto cw = CloudWalker::Build(graph_, io, pool_);
  ASSERT_TRUE(cw.ok());
  QueryOptions qo;  // default R' = 10000
  double err = 0.0;
  int pairs = 0;
  for (NodeId i = 0; i < 14; ++i) {
    for (NodeId j = i + 1; j < 14; ++j) {
      const QueryRequest request = QueryRequest::Pair(i, j).WithOptions(qo);
      err += std::fabs(cw->Execute(request).score() - exact_->Similarity(i, j));
      ++pairs;
    }
  }
  EXPECT_LT(err / pairs, 0.05);
}

TEST_F(AccuracyTest, DanglingPolicyChangesScoresOnDanglingGraph) {
  // Sensitivity ablation: on a graph with dangling nodes, the self-loop
  // policy must produce different (not necessarily better) scores.
  const Graph path_heavy = GeneratePath(40);
  IndexingOptions die;
  die.num_walkers = 200;
  IndexingOptions loop = die;
  loop.dangling = DanglingPolicy::kSelfLoop;
  auto a = BuildDiagonalIndex(path_heavy, die, pool_);
  auto b = BuildDiagonalIndex(path_heavy, loop, pool_);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_diff = false;
  for (NodeId v = 0; v < path_heavy.num_nodes(); ++v) {
    if (std::fabs((*a)[v] - (*b)[v]) > 1e-9) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// Precision@10 and mean |error| against exact SimRank of the default
// single-source answer (the push pruned at 0.03 of each source's largest
// walk term) and the unpruned push, at the serving R' = 1000, over 40
// sources with in-links and 4 seeds. Both must rank well; the errors are
// recorded, not gated.
TEST(SingleSourceGroundTruthTest, DefaultErrorAndExactPushPrecision) {
  ThreadPool pool;
  const Graph graph = GenerateRmat(2000, 20000, /*seed=*/5);
  auto exact = ExactSimRank::Compute(graph, {}, &pool);
  ASSERT_TRUE(exact.ok());
  auto idx = BuildDiagonalIndex(graph, IndexingOptions{}, &pool);
  ASSERT_TRUE(idx.ok());

  const NodeId n = graph.num_nodes();
  std::vector<NodeId> sources;
  Xoshiro256 pick(29);
  while (sources.size() < 40) {
    const NodeId s = pick.UniformInt32(n);
    if (graph.InDegree(s) > 0 &&
        std::find(sources.begin(), sources.end(), s) == sources.end()) {
      sources.push_back(s);
    }
  }

  struct Score {
    double precision = 0.0;
    double error = 0.0;
    void Add(const SparseVector& est, const std::vector<double>& truth,
             NodeId s) {
      const std::vector<double> dense =
          ToDense(est, static_cast<NodeId>(truth.size()));
      precision += PrecisionAtK(TopKIndices(dense, 10, s),
                                TopKIndices(truth, 10, s), 10);
      error += ComputeErrorStats(dense, truth)->mean_abs;
    }
  };
  Score default_push, exact_push;
  int runs = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    QueryOptions qo;  // the default push
    qo.num_walkers = 1000;
    qo.seed = seed;
    QueryOptions exact_qo = qo;
    exact_qo.prune_threshold = 0.0;
    for (const NodeId s : sources) {
      const std::vector<double> truth = exact->Row(s);
      default_push.Add(SingleSourceQuery(graph, *idx, s, qo), truth, s);
      exact_push.Add(SingleSourceQuery(graph, *idx, s, exact_qo), truth, s);
      ++runs;
    }
  }
  for (Score* score : {&default_push, &exact_push}) {
    score->precision /= runs;
    score->error /= runs;
  }
  for (const auto& [name, score] : {std::pair{"default", default_push},
                                     std::pair{"exact_push", exact_push}}) {
    // RecordProperty's numeric overload takes an int.
    RecordProperty(std::string(name) + "_precision_at_10",
                   testing::PrintToString(score.precision));
    RecordProperty(std::string(name) + "_mean_abs_error",
                   testing::PrintToString(score.error));
  }
  EXPECT_GE(default_push.precision, 0.6);
  EXPECT_GE(exact_push.precision, 0.6);
}

}  // namespace
}  // namespace cloudwalker
