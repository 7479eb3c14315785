// TSan-targeted stress of the parallel walk executor behind the serving
// layer (DESIGN.md section 12): concurrent Submit() to engines wrapped by
// CloudWalker::Parallelize while Publish() hot-swaps engine versions
// mid-stream. Every request fans its walk phase out over the executor's
// worker pool while serving workers race on the snapshot registry — the
// test asserts loss-free completion and bit-identity to the
// single-threaded direct answers, and under TSan (tests/serve/ job
// filter) it certifies the executor's pool-sharing race-free.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cloudwalker.h"
#include "engine/parallel_walk.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "ooc/reorder.h"
#include "serve/query_service.h"

namespace cloudwalker {
namespace {

std::shared_ptr<const CloudWalker> BuildWalker(uint64_t graph_seed) {
  Graph graph = GenerateRmat(/*num_nodes=*/300, /*num_edges=*/2400,
                             graph_seed);
  IndexingOptions options;
  options.num_walkers = 8;
  options.params.num_steps = 4;
  auto built = CloudWalker::Build(std::move(graph), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? *built : nullptr;
}

TEST(ParallelServeStressTest, ConcurrentSubmitAcrossHotSwapWithWalkThreads) {
  auto v1 = BuildWalker(/*graph_seed=*/21);
  auto v2 = BuildWalker(/*graph_seed=*/22);
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);

  ServeOptions options;
  options.query.num_walkers = 200;
  options.cache_capacity = 0;  // every request runs its walk phase
  options.max_queue_depth = 0;

  const uint32_t k = 8;
  std::vector<NodeId> sources;
  for (NodeId s = 0; s < 24; ++s) sources.push_back(s * 7 % 300);
  // Ground truth from the unwrapped single-threaded engines.
  std::vector<TopKResult> truth1, truth2;
  for (const NodeId s : sources) {
    const QueryRequest r = QueryRequest::SourceTopK(s, k);
    const QueryResponse t1 = v1->Execute(r.WithOptions(options.query));
    const QueryResponse t2 = v2->Execute(r.WithOptions(options.query));
    ASSERT_TRUE(t1.ok() && t2.ok());
    truth1.push_back(*t1.topk());
    truth2.push_back(*t2.topk());
  }

  // The caller wraps each version before it constructs or publishes.
  ParallelWalkOptions parallel_options;
  parallel_options.num_threads = 3;
  auto p1 = CloudWalker::Parallelize(v1, parallel_options);
  auto p2 = CloudWalker::Parallelize(v2, parallel_options);
  ASSERT_TRUE(p1.ok() && p2.ok());
  ThreadPool pool(4);
  QueryService service(*p1, options, &pool);

  // Phase 1: pile requests onto the wrapped v1 (4 serving workers, each
  // fanning walks over the executor's 3 walk threads) and swap while
  // they are in flight.
  std::vector<QueryFuture> phase1;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const NodeId s : sources) {
      phase1.push_back(service.Submit(QueryRequest::SourceTopK(s, k)));
    }
  }

  auto epoch = service.Publish(*p2);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  std::vector<QueryFuture> phase2;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const NodeId s : sources) {
      phase2.push_back(service.Submit(QueryRequest::SourceTopK(s, k)));
    }
  }

  const std::vector<QueryResponse> r1 = WhenAll(phase1);
  const std::vector<QueryResponse> r2 = WhenAll(phase2);
  for (size_t i = 0; i < r1.size(); ++i) {
    ASSERT_TRUE(r1[i].ok()) << r1[i].status.ToString();
    EXPECT_EQ(*r1[i].topk(), truth1[i % sources.size()])
        << "phase-1 source " << sources[i % sources.size()];
  }
  for (size_t i = 0; i < r2.size(); ++i) {
    ASSERT_TRUE(r2[i].ok()) << r2[i].status.ToString();
    EXPECT_EQ(*r2[i].topk(), truth2[i % sources.size()])
        << "phase-2 source " << sources[i % sources.size()];
  }
  EXPECT_EQ(service.Stats().errors, 0u);
}

TEST(ParallelServeStressTest, PreWrappedEnginePassesThroughUnchanged) {
  // An engine that already carries a walk backend (here: one the caller
  // parallelized) is published as it is.
  auto base = BuildWalker(/*graph_seed=*/5);
  ASSERT_NE(base, nullptr);
  ParallelWalkOptions popts;
  popts.num_threads = 2;
  auto wrapped = CloudWalker::Parallelize(base, popts);
  ASSERT_TRUE(wrapped.ok());
  const WalkBackend* backend = (*wrapped)->walk_backend();
  ASSERT_NE(backend, nullptr);

  ServeOptions options;
  options.query.num_walkers = 100;
  ThreadPool pool(2);
  QueryService service(*wrapped, options, &pool);
  // The published engine still carries the caller's backend instance.
  EXPECT_EQ(service.CurrentSnapshot()->walker->walk_backend(), backend);
  const QueryResponse r =
      service.Submit(QueryRequest::SourceTopK(3, 5)).Wait();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  const QueryResponse direct = base->Execute(
      QueryRequest::SourceTopK(3, 5).WithOptions(options.query));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*r.topk(), *direct.topk());
}

TEST(ParallelServeStressTest, ReorderedSnapshotIsParallelizedAtPublish) {
  // A locality-reordered snapshot opens with no walk backend of its own
  // (its walks key on external ids through the walk context), so
  // Parallelize wraps it like any other engine — and the wrapped walks,
  // split into walker ranges, answer exactly as the direct engine does.
  auto base = BuildWalker(/*graph_seed=*/9);
  ASSERT_NE(base, nullptr);
  const std::string path =
      ::testing::TempDir() + "/parallel_serve_reordered.cwk";
  ASSERT_TRUE(base->WriteReorderedSnapshot(path, ReorderKind::kBfs).ok());
  auto reordered = CloudWalker::Open(path);
  ASSERT_TRUE(reordered.ok()) << reordered.status().ToString();
  ASSERT_FALSE((*reordered)->permutation().empty());
  ASSERT_EQ((*reordered)->walk_backend(), nullptr);

  ServeOptions options;
  options.query.num_walkers = 1200;  // three ranges of >= 256 walkers
  options.cache_capacity = 0;
  ParallelWalkOptions parallel_options;
  parallel_options.num_threads = 3;
  auto parallel = CloudWalker::Parallelize(*reordered, parallel_options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ThreadPool pool(2);
  QueryService service(*parallel, options, &pool);
  EXPECT_NE(dynamic_cast<const ParallelWalkExecutor*>(
                service.CurrentSnapshot()->walker->walk_backend()),
            nullptr);

  for (const NodeId s : {0u, 41u, 177u, 299u}) {
    const QueryRequest pair = QueryRequest::Pair(s, (s + 13) % 300);
    const QueryResponse served_pair = service.Submit(pair).Wait();
    const QueryResponse direct_pair =
        (*reordered)->Execute(pair.WithOptions(options.query));
    ASSERT_TRUE(served_pair.ok() && direct_pair.ok());
    EXPECT_EQ(served_pair.score(), direct_pair.score()) << "pair " << s;
    for (const QueryRequest& request :
         {QueryRequest::SourceTopK(s, 8),
          QueryRequest::PersonalizedPageRank(s, 8),
          QueryRequest::Node2Vec(s, 8)}) {
      const QueryResponse served = service.Submit(request).Wait();
      const QueryResponse direct =
          (*reordered)->Execute(request.WithOptions(options.query));
      ASSERT_TRUE(served.ok()) << served.status.ToString();
      ASSERT_TRUE(direct.ok()) << direct.status.ToString();
      EXPECT_EQ(*served.topk(), *direct.topk())
          << "kind " << static_cast<int>(request.kind) << " source " << s;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cloudwalker
