// End-to-end pipelines crossing module boundaries: generate -> persist ->
// index -> snapshot -> query, local and distributed, all baselines
// together.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "baselines/exact_simrank.h"
#include "baselines/fmt.h"
#include "baselines/lin.h"
#include "core/cloudwalker.h"
#include "core/distributed.h"
#include "eval/dense.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "graph/graph_io.h"

namespace cloudwalker {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(IntegrationTest, GenerateSaveLoadIndexQueryPipeline) {
  // 1. Generate a graph and persist it.
  const Graph generated = GenerateRmat(300, 2400, /*seed=*/42);
  const std::string graph_path = TempPath("cw_e2e.graph");
  ASSERT_TRUE(SaveGraphBinary(generated, graph_path).ok());

  // 2. Reload and index.
  Graph graph;
  ASSERT_TRUE(LoadGraphBinary(graph_path, &graph).ok());
  ThreadPool pool(8);
  IndexingOptions io;
  io.num_walkers = 400;
  io.jacobi_iterations = 4;
  auto cw = CloudWalker::Build(&graph, io, &pool);
  ASSERT_TRUE(cw.ok());

  // 3. Persist the engine as a snapshot and reopen it into a fresh facade.
  const std::string snapshot_path = TempPath("cw_e2e.cwk");
  ASSERT_TRUE(cw->WriteSnapshot(snapshot_path).ok());
  auto cw2 = CloudWalker::Open(snapshot_path);
  ASSERT_TRUE(cw2.ok());

  // 4. Queries agree across the save/load boundary.
  QueryOptions qo;
  qo.num_walkers = 2000;
  for (NodeId i : {0u, 10u, 100u}) {
    for (NodeId j : {5u, 50u, 250u}) {
      const QueryRequest request = QueryRequest::Pair(i, j).WithOptions(qo);
      const QueryResponse a = cw->Execute(request);
      const QueryResponse b = (*cw2)->Execute(request);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_DOUBLE_EQ(a.score(), b.score());
    }
  }
  std::remove(graph_path.c_str());
  std::remove(snapshot_path.c_str());
}

TEST(IntegrationTest, DistributedIndexFeedsLocalQueries) {
  const Graph graph = GenerateRmat(250, 1800, 7);
  ThreadPool pool(8);
  IndexingOptions io;
  io.num_walkers = 300;
  auto dist = DistributedBuildIndex(graph, io, ExecutionModel::kRdd,
                                    ClusterConfig{}, CostModel::Default(),
                                    &pool);
  ASSERT_TRUE(dist.ok());
  ASSERT_TRUE(dist->cost.feasible);
  auto cw = CloudWalker::FromIndex(Graph(graph), std::move(dist->index));
  ASSERT_TRUE(cw.ok());
  QueryOptions qo;
  qo.num_walkers = 1000;
  const QueryResponse top =
      (*cw)->Execute(QueryRequest::SourceTopK(3, 10).WithOptions(qo));
  ASSERT_TRUE(top.ok());
  EXPECT_LE(top.topk()->size(), 10u);
}

TEST(IntegrationTest, AllMethodsRankSimilarNodesConsistently) {
  // CloudWalker, LIN and exact SimRank should broadly agree on which nodes
  // are most similar to a query node on a structured graph.
  GraphBuilder b(62);
  // Two "communities" citing from shared hubs 60 and 61.
  for (NodeId v = 0; v < 30; ++v) b.AddEdge(60, v);
  for (NodeId v = 30; v < 60; ++v) b.AddEdge(61, v);
  const Graph graph = std::move(b.Build()).value();

  IndexingOptions io;
  io.num_walkers = 500;
  io.jacobi_iterations = 5;
  auto cw = CloudWalker::Build(&graph, io);
  ASSERT_TRUE(cw.ok());
  QueryOptions qo;
  qo.num_walkers = 5000;
  qo.prune_threshold = 0.0;

  auto exact = ExactSimRank::Compute(graph);
  ASSERT_TRUE(exact.ok());

  // Node 0's true peers are exactly nodes 1..29 (score c), never 30..59.
  const QueryResponse response =
      cw->Execute(QueryRequest::SingleSource(0).WithOptions(qo));
  ASSERT_TRUE(response.ok());
  const SingleSourcePtr& scores = response.scores();
  for (NodeId v = 1; v < 30; ++v) {
    EXPECT_NEAR(scores->Get(v), exact->Similarity(0, v), 0.05) << v;
    EXPECT_GT(scores->Get(v), 0.5);
  }
  for (NodeId v = 30; v < 60; ++v) {
    EXPECT_NEAR(scores->Get(v), 0.0, 1e-9) << v;
  }
}

TEST(IntegrationTest, BaselinesAgreeOnCommunityGraph) {
  const Graph graph = GenerateRmat(150, 1200, 8);
  auto exact = ExactSimRank::Compute(graph);
  ASSERT_TRUE(exact.ok());

  LinIndex::Options lo;
  lo.prune_threshold = 0.0;
  lo.jacobi_iterations = 6;
  auto lin = LinIndex::Build(graph, lo);
  ASSERT_TRUE(lin.ok());

  FmtIndex::Options fo;
  fo.num_fingerprints = 2000;
  auto fmt = FmtIndex::Build(graph, fo);
  ASSERT_TRUE(fmt.ok());

  IndexingOptions io;
  io.num_walkers = 1000;
  io.jacobi_iterations = 6;
  auto cw = CloudWalker::Build(&graph, io);
  ASSERT_TRUE(cw.ok());
  QueryOptions qo;
  qo.num_walkers = 10000;

  double cw_err = 0.0, lin_err = 0.0, fmt_err = 0.0;
  int pairs = 0;
  for (NodeId i = 0; i < 12; ++i) {
    for (NodeId j = i + 1; j < 12; ++j) {
      const double truth = exact->Similarity(i, j);
      const QueryRequest request = QueryRequest::Pair(i, j).WithOptions(qo);
      cw_err += std::fabs(cw->Execute(request).score() - truth);
      lin_err += std::fabs(lin->SinglePair(i, j) - truth);
      fmt_err += std::fabs(fmt->SinglePair(i, j) - truth);
      ++pairs;
    }
  }
  // All three methods should be decent approximations on average.
  EXPECT_LT(cw_err / pairs, 0.05);
  EXPECT_LT(lin_err / pairs, 0.02);
  EXPECT_LT(fmt_err / pairs, 0.08);
}

TEST(IntegrationTest, PaperDatasetSmokeTestThroughFullStack) {
  // Tiny-scale wiki-vote stand-in through distributed indexing + queries
  // under both execution models.
  const PaperDatasetInstance ds =
      MakePaperDataset(PaperDataset::kWikiVote, 1, /*scale=*/0.1);
  ThreadPool pool(8);
  IndexingOptions io;
  io.num_walkers = 100;
  QueryOptions qo;
  qo.num_walkers = 1000;
  for (ExecutionModel model :
       {ExecutionModel::kBroadcasting, ExecutionModel::kRdd}) {
    auto dist =
        DistributedBuildIndex(ds.graph, io, model, ClusterConfig{},
                              CostModel::Default(), &pool);
    ASSERT_TRUE(dist.ok()) << ExecutionModelName(model);
    ASSERT_TRUE(dist->cost.feasible);
    auto pair = DistributedSinglePair(ds.graph, dist->index, 0, 1, qo, model,
                                      ClusterConfig{}, CostModel::Default(),
                                      &pool);
    ASSERT_TRUE(pair.ok());
    EXPECT_GE(pair->value, 0.0);
    auto source = DistributedSingleSource(ds.graph, dist->index, 0, qo,
                                          model, ClusterConfig{},
                                          CostModel::Default(), &pool);
    ASSERT_TRUE(source.ok());
    EXPECT_GT(source->cost.TotalSeconds(), 0.0);
  }
}

TEST(IntegrationTest, MetricsPipelineOnRealScores) {
  const Graph graph = GenerateRmat(100, 700, 9);
  auto exact = ExactSimRank::Compute(graph);
  ASSERT_TRUE(exact.ok());
  IndexingOptions io;
  io.num_walkers = 800;
  io.jacobi_iterations = 5;
  auto cw = CloudWalker::Build(&graph, io);
  ASSERT_TRUE(cw.ok());
  QueryOptions qo;
  qo.num_walkers = 8000;
  qo.prune_threshold = 0.0;

  // Choose a query node that actually has similar peers (largest
  // off-diagonal ground-truth row mass) so ranking metrics are meaningful.
  NodeId q = 0;
  double best_mass = -1.0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::vector<double> row = exact->Row(v);
    double mass = 0.0;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      if (u != v) mass += row[u];
    }
    if (mass > best_mass) {
      best_mass = mass;
      q = v;
    }
  }
  ASSERT_GT(best_mass, 0.1);

  const QueryResponse est_sparse =
      cw->Execute(QueryRequest::SingleSource(q).WithOptions(qo));
  ASSERT_TRUE(est_sparse.ok());
  std::vector<double> est = ToDense(*est_sparse.scores(), graph.num_nodes());
  std::vector<double> truth = exact->Row(q);

  auto err = ComputeErrorStats(est, truth);
  ASSERT_TRUE(err.ok());
  EXPECT_LT(err->mean_abs, 0.05);

  // Exclude the trivial self entry from both rankings.
  truth[q] = 0.0;
  est[q] = 0.0;
  const auto est_top = TopKIndices(est, 10, q);
  const auto true_top = TopKIndices(truth, 10, q);
  EXPECT_GT(PrecisionAtK(est_top, true_top, 10), 0.5);
  EXPECT_GT(NdcgAtK(est_top, truth, 10), 0.8);
}

}  // namespace
}  // namespace cloudwalker
