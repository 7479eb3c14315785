// Hot swap under concurrent load (DESIGN.md section 9): publishing a new
// engine version mid-stream must lose nothing and mix nothing.
//
// The invariants under test:
//   1. Loss-free: every request submitted around a Publish() completes OK
//      (no failures, no drops).
//   2. Version-deterministic: a request answers exactly per the snapshot
//      that was current when it was admitted — requests admitted before
//      the swap match v1's direct kernel answers bit for bit, requests
//      admitted after match v2's.
//   3. Zero cross-version cache hits: the same (source, k) is queried in
//      both phases with the cache enabled; a stale epoch-1 entry serving
//      an epoch-2 request would surface as a v1-valued answer in phase 2.
//
// Runs under TSan in CI (tests/serve/ job filter).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "serve/query_service.h"

namespace cloudwalker {
namespace {

std::shared_ptr<const CloudWalker> BuildWalker(uint64_t graph_seed) {
  // Same node count, different edges: the two versions answer differently
  // for most sources, which is what makes version mixing detectable.
  Graph graph = GenerateRmat(/*num_nodes=*/300, /*num_edges=*/2400,
                             graph_seed);
  IndexingOptions options;
  options.num_walkers = 8;
  options.params.num_steps = 4;
  auto built = CloudWalker::Build(std::move(graph), options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return built.ok() ? *built : nullptr;
}

TEST(HotSwapTest, PublishMidStreamIsLossFreeAndUnmixed) {
  auto v1 = BuildWalker(/*graph_seed=*/21);
  auto v2 = BuildWalker(/*graph_seed=*/22);
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);

  ServeOptions options;
  options.query.num_walkers = 200;
  options.cache_capacity = 1 << 12;
  options.max_queue_depth = 0;  // unbounded: loss-free must mean zero drops

  // Ground truth per version, computed directly on the kernels.
  const uint32_t k = 8;
  std::vector<NodeId> sources;
  for (NodeId s = 0; s < 40; ++s) sources.push_back(s * 7 % 300);
  std::vector<TopKResult> truth1, truth2;
  size_t differing = 0;
  for (const NodeId s : sources) {
    const QueryRequest r =
        QueryRequest::SourceTopK(s, k).WithOptions(options.query);
    const QueryResponse t1 = v1->Execute(r);
    const QueryResponse t2 = v2->Execute(r);
    ASSERT_TRUE(t1.ok() && t2.ok());
    if (*t1.topk() != *t2.topk()) ++differing;
    truth1.push_back(*t1.topk());
    truth2.push_back(*t2.topk());
  }
  // Sanity: the versions genuinely disagree, so a mixed answer can't hide.
  ASSERT_GT(differing, sources.size() / 2);

  std::weak_ptr<const CloudWalker> watch = v1;
  std::optional<ThreadPool> pool(std::in_place, 4);
  std::optional<QueryService> service(std::in_place, v1, options, &*pool);
  EXPECT_EQ(service->CurrentSnapshot()->version, 1u);

  // Phase 1: submit every source twice (the repeat engages the cache and
  // dedup) without waiting — workers are still running when we swap.
  std::vector<QueryFuture> phase1;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const NodeId s : sources) {
      phase1.push_back(service->Submit(QueryRequest::SourceTopK(s, k)));
    }
  }

  // Swap mid-stream.
  auto epoch = service->Publish(v2);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(service->CurrentSnapshot()->version, 2u);
  EXPECT_EQ(service->CurrentSnapshot()->epoch, *epoch);

  // Phase 2: same sources again — any cross-version cache hit would make
  // one of these answer with v1 values.
  std::vector<QueryFuture> phase2;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const NodeId s : sources) {
      phase2.push_back(service->Submit(QueryRequest::SourceTopK(s, k)));
    }
  }

  const std::vector<QueryResponse> r1 = WhenAll(phase1);
  const std::vector<QueryResponse> r2 = WhenAll(phase2);

  size_t cache_hits2 = 0;
  for (size_t i = 0; i < r1.size(); ++i) {
    const NodeId s = sources[i % sources.size()];
    ASSERT_TRUE(r1[i].ok()) << r1[i].status.ToString();
    EXPECT_EQ(*r1[i].topk(), truth1[i % sources.size()])
        << "phase-1 request for source " << s
        << " did not answer per its pinned v1";
  }
  for (size_t i = 0; i < r2.size(); ++i) {
    const NodeId s = sources[i % sources.size()];
    ASSERT_TRUE(r2[i].ok()) << r2[i].status.ToString();
    EXPECT_EQ(*r2[i].topk(), truth2[i % sources.size()])
        << "phase-2 request for source " << s
        << " leaked an answer from the retired v1";
    if (r2[i].cache_hit) ++cache_hits2;
  }
  // The epoch-keyed cache still works *within* the new version: the
  // repeat pass of phase 2 should mostly hit.
  EXPECT_GT(cache_hits2, 0u);

  const ServeStats stats = service->Stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.topk_queries, r1.size() + r2.size());
  EXPECT_EQ(stats.snapshot_version, 2u);

  // The retired version can be dropped from the registry, and once the
  // service and pool are torn down (the pool join is what guarantees the
  // workers' task closures — each holding a pinned snapshot — are gone),
  // nothing keeps v1 alive.
  ASSERT_TRUE(service->registry().Retire(1).ok());
  service.reset();
  pool.reset();
  v1.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(HotSwapTest, InFlightRequestFinishesOnItsPinnedVersion) {
  auto v1 = BuildWalker(/*graph_seed=*/31);
  auto v2 = BuildWalker(/*graph_seed=*/32);
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);

  ServeOptions options;
  options.query.num_walkers = 400;  // slow enough to still be in flight
  options.cache_capacity = 0;       // force kernel runs
  ThreadPool pool(2);
  QueryService service(v1, options, &pool);

  const QueryRequest probe =
      QueryRequest::SourceTopK(5, 10).WithOptions(options.query);
  const QueryResponse direct1 = v1->Execute(probe);
  const QueryResponse direct2 = v2->Execute(probe);
  ASSERT_TRUE(direct1.ok() && direct2.ok());
  ASSERT_NE(*direct1.topk(), *direct2.topk());

  // Admit against v1, swap immediately (the worker may not even have
  // started), then verify the answer is v1's.
  QueryFuture f = service.Submit(QueryRequest::SourceTopK(5, 10));
  ASSERT_TRUE(service.Publish(v2).ok());
  const QueryResponse r = f.Wait();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(*r.topk(), *direct1.topk());

  // And a post-swap admission answers per v2.
  const QueryResponse after = service.Execute(QueryRequest::SourceTopK(5, 10));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after.topk(), *direct2.topk());
}

TEST(HotSwapTest, SwapBetweenHeapBuildAndSnapshotIsInvisible) {
  // Publishing the *same* logical engine reloaded from a snapshot file
  // must not change a single answer: build v1, persist, reopen via mmap,
  // publish the reopened instance, and compare answers across the swap.
  auto v1 = BuildWalker(/*graph_seed=*/41);
  ASSERT_NE(v1, nullptr);
  const std::string path = ::testing::TempDir() + "/hot_swap_reload.cwk";
  ASSERT_TRUE(v1->WriteSnapshot(path).ok());
  auto reopened = CloudWalker::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  ServeOptions options;
  options.query.num_walkers = 150;
  ThreadPool pool(2);
  QueryService service(v1, options, &pool);
  const QueryResponse before = service.Execute(QueryRequest::SourceTopK(9, 6));
  ASSERT_TRUE(service.Publish(*reopened).ok());
  const QueryResponse after = service.Execute(QueryRequest::SourceTopK(9, 6));
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before.topk(), *after.topk());
  EXPECT_FALSE(after.cache_hit);  // new epoch: recomputed, not replayed
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cloudwalker
