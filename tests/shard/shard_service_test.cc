// Shard routing behind the serving layer (DESIGN.md section 11.3): a
// sharded CloudWalker dropped behind QueryService must fan walk phases out
// across shards transparently — same answers as the single-node service,
// same cache keys (hits on resubmit), same in-flight dedup, and the same
// deadline / cancellation contract: a stopped request reports its error
// and never caches a partial answer, so the resubmit computes the full
// one.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "serve/query_service.h"
#include "shard/sharding.h"

namespace cloudwalker {
namespace {

std::shared_ptr<const CloudWalker> BuildBase() {
  IndexingOptions opts;
  opts.num_walkers = 40;
  auto built =
      CloudWalker::Build(GenerateRmat(220, 1600, /*seed=*/31), opts);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

std::shared_ptr<const CloudWalker> ShardIt(
    const std::shared_ptr<const CloudWalker>& base, int shards) {
  ShardingOptions opts;
  opts.num_shards = shards;
  auto sharded = CloudWalker::Shard(base, opts);
  EXPECT_TRUE(sharded.ok()) << sharded.status().message();
  return std::move(sharded).value();
}

QueryOptions FastOptions(uint32_t walkers = 150) {
  QueryOptions q;
  q.num_walkers = walkers;
  return q;
}

void ExpectSameTopK(const TopKResult& a, const TopKResult& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << what << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " rank " << i;
  }
}

TEST(ShardServiceTest, ShardedServiceAnswersMatchSingleNodeService) {
  const auto base = BuildBase();
  QueryService single(base);
  QueryService sharded(ShardIt(base, 3));
  const QueryOptions q = FastOptions();
  const std::vector<QueryRequest> requests = {
      QueryRequest::Pair(3, 140).WithOptions(q),
      QueryRequest::SourceTopK(7, 12).WithOptions(q),
      QueryRequest::PersonalizedPageRank(7, 12).WithOptions(q),
      QueryRequest::Node2Vec(7, 12).WithOptions(q),
  };
  for (const QueryRequest& r : requests) {
    const QueryResponse want = single.Execute(r);
    const QueryResponse got = sharded.Execute(r);
    ASSERT_TRUE(want.ok() && got.ok());
    if (r.kind == QueryKind::kPair) {
      EXPECT_EQ(want.score(), got.score());
    } else {
      ExpectSameTopK(*want.Get<QueryKind::kSourceTopK>(),
                     *got.Get<QueryKind::kSourceTopK>(),
                     "kind " + std::to_string(static_cast<int>(r.kind)));
    }
  }
}

TEST(ShardServiceTest, CacheKeysAndHitsSurviveSharding) {
  QueryService service(ShardIt(BuildBase(), 4));
  const QueryRequest request =
      QueryRequest::SourceTopK(11, 10).WithOptions(FastOptions());
  const QueryResponse first = service.Execute(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(service.Stats().computed, 1u);
  const QueryResponse second = service.Execute(request);
  ASSERT_TRUE(second.ok());
  // Warm answer: served from the result cache, not recomputed — the cache
  // key (epoch, kind, options, source, k) is oblivious to the backend.
  EXPECT_EQ(service.Stats().computed, 1u);
  EXPECT_GE(service.Stats().cache_hits, 1u);
  ExpectSameTopK(*first.topk(), *second.topk(), "cache hit");
}

TEST(ShardServiceTest, ExpiredDeadlineNeverCachesAPartialAnswer) {
  const auto base = BuildBase();
  QueryService service(ShardIt(base, 3));
  // Heavy enough that an already-expired deadline stops the walk phase at
  // the first superstep poll.
  const QueryOptions heavy = FastOptions(20000);
  const QueryRequest request =
      QueryRequest::SourceTopK(5, 10).WithOptions(heavy);
  const QueryResponse expired =
      service.Execute(request.WithTimeout(1e-9));
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(
      std::holds_alternative<std::monostate>(expired.payload));
  EXPECT_GE(service.Stats().deadline_exceeded, 1u);

  // The resubmit without a deadline must compute the *full* answer — if
  // the stopped run had poisoned the cache, this would serve a truncated
  // top-k instead of matching the direct facade call.
  const QueryResponse full = service.Execute(request);
  ASSERT_TRUE(full.ok()) << full.status.message();
  const TopKResult direct = *ShardIt(base, 3)->Execute(request).topk();
  ExpectSameTopK(direct, *full.topk(), "post-deadline resubmit");
}

TEST(ShardServiceTest, CancelledRequestNeverCachesAPartialAnswer) {
  const auto base = BuildBase();
  ThreadPool pool(2);
  QueryService service(ShardIt(base, 2), ServeOptions{}, &pool);
  const QueryOptions heavy = FastOptions(20000);
  const QueryRequest request =
      QueryRequest::Node2Vec(9, 10).WithOptions(heavy);
  QueryFuture future = service.Submit(request);
  future.Cancel();
  const QueryResponse maybe = future.Wait();
  // The cancel races the worker: either it landed (kCancelled, no
  // payload) or the run finished first (full answer). Both are legal;
  // a *partial* cached answer never is — checked by the resubmit below.
  if (!maybe.ok()) {
    EXPECT_EQ(maybe.status.code(), StatusCode::kCancelled);
    EXPECT_TRUE(std::holds_alternative<std::monostate>(maybe.payload));
  }
  const QueryResponse full = service.Execute(request);
  ASSERT_TRUE(full.ok());
  ExpectSameTopK(*base->Execute(request).topk(), *full.topk(),
                 "post-cancel resubmit");
}

TEST(ShardServiceTest, HotSwapToShardedEngineKeepsServing) {
  const auto base = BuildBase();
  QueryService service(base);
  const QueryRequest request =
      QueryRequest::SourceTopK(21, 8).WithOptions(FastOptions());
  const QueryResponse before = service.Execute(request);
  ASSERT_TRUE(before.ok());
  const uint64_t epoch_before = service.Stats().snapshot_epoch;

  auto published = service.Publish(ShardIt(base, 4));
  ASSERT_TRUE(published.ok());
  const QueryResponse after = service.Execute(request);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(service.Stats().snapshot_epoch, epoch_before);
  // New epoch, new cache namespace, same bits: the sharded engine answers
  // exactly what the single-node version did.
  ExpectSameTopK(*before.topk(), *after.topk(), "hot swap");
  EXPECT_EQ(service.Stats().computed, 2u);
}

TEST(ShardServiceTest, BatchWithDedupOverShardedEngine) {
  const auto base = BuildBase();
  ThreadPool pool(3);
  QueryService service(ShardIt(base, 3), ServeOptions{}, &pool);
  const QueryRequest request =
      QueryRequest::PersonalizedPageRank(13, 10).WithOptions(FastOptions());
  std::vector<QueryRequest> batch(8, request);
  const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  const QueryResponse want = base->Execute(request);
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.ok());
    ExpectSameTopK(*want.topk(), *r.topk(), "batch");
  }
  // Identical concurrent requests collapse: computed + dedup + cache hits
  // account for the whole batch with exactly one kernel run.
  EXPECT_EQ(service.Stats().computed, 1u);
}

}  // namespace
}  // namespace cloudwalker
