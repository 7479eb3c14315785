// The asynchronous serving surface: Submit -> QueryFuture, WhenAll,
// per-request deadlines and cancellation, bounded-queue admission, and
// per-request option overrides (DESIGN.md section 6).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "graph/generators.h"
#include "serve/query_service.h"

namespace cloudwalker {
namespace {

// Occupies every worker of a pool until Release() is called: lets tests
// pin requests in the admission queue deterministically.
class PoolBlocker {
 public:
  PoolBlocker(ThreadPool* pool, int workers) {
    for (int w = 0; w < workers; ++w) {
      pool->Submit([this] {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return released_; });
      });
    }
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

bool SameSparse(const SparseVector& a, const SparseVector& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

class AsyncServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(GenerateRmat(150, 1050, /*seed=*/11));
    IndexingOptions o;
    o.num_walkers = 60;
    o.seed = 12;
    ThreadPool pool(4);
    auto cw = CloudWalker::Build(graph_, o, &pool);
    ASSERT_TRUE(cw.ok());
    cloudwalker_ = std::make_shared<const CloudWalker>(std::move(cw).value());
  }
  static void TearDownTestSuite() {
    cloudwalker_.reset();
    delete graph_;
    graph_ = nullptr;
  }

  static ServeOptions Options() {
    ServeOptions options;
    options.query.num_walkers = 300;
    options.query.seed = 17;
    return options;
  }

  static Graph* graph_;
  static std::shared_ptr<const CloudWalker> cloudwalker_;
};

Graph* AsyncServiceTest::graph_ = nullptr;
std::shared_ptr<const CloudWalker> AsyncServiceTest::cloudwalker_;

// --- Submit/Wait bit-identity: all four kinds round-trip. ----------------

TEST_F(AsyncServiceTest, SubmitPairBitIdenticalToFacade) {
  ThreadPool pool(2);
  QueryService service(cloudwalker_, Options(), &pool);
  QueryFuture f = service.Submit(QueryRequest::Pair(5, 77));
  const QueryResponse r = f.Wait();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  const QueryResponse direct = cloudwalker_->Execute(
      QueryRequest::Pair(5, 77).WithOptions(Options().query));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(r.score(), direct.score());  // exact, not approximate
  EXPECT_GT(r.stats.walk_steps, 0u);
}

TEST_F(AsyncServiceTest, SubmitSingleSourceBitIdenticalToFacade) {
  ThreadPool pool(2);
  QueryService service(cloudwalker_, Options(), &pool);
  const QueryResponse r =
      service.Submit(QueryRequest::SingleSource(7)).Wait();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.kind, QueryKind::kSingleSource);
  const QueryResponse direct = cloudwalker_->Execute(
      QueryRequest::SingleSource(7).WithOptions(Options().query));
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameSparse(*r.scores(), *direct.scores()));
}

TEST_F(AsyncServiceTest, SubmitTopKBitIdenticalToFacade) {
  ThreadPool pool(2);
  QueryService service(cloudwalker_, Options(), &pool);
  const QueryResponse r =
      service.Submit(QueryRequest::SourceTopK(42, 8)).Wait();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  const QueryResponse direct = cloudwalker_->Execute(
      QueryRequest::SourceTopK(42, 8).WithOptions(Options().query));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*r.topk(), *direct.topk());
  // The typed accessor and the template accessor agree.
  EXPECT_EQ(r.Get<QueryKind::kSourceTopK>(), r.topk());
}

TEST_F(AsyncServiceTest, SubmitAllPairsBitIdenticalToFacade) {
  ThreadPool pool(2);
  QueryService service(cloudwalker_, Options(), &pool);
  // A lighter per-request override keeps the full sweep cheap — and
  // exercises override plumbing through Submit.
  QueryOptions light = Options().query;
  light.num_walkers = 60;
  const QueryResponse r =
      service.Submit(QueryRequest::AllPairsTopK(3).WithOptions(light))
          .Wait();
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  const QueryResponse direct =
      cloudwalker_->Execute(QueryRequest::AllPairsTopK(3).WithOptions(light));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*r.all_pairs(), *direct.all_pairs());
}

// --- Deadlines. ----------------------------------------------------------

TEST_F(AsyncServiceTest, DeadlineFiresMidWalkWithoutPoisoningTheCache) {
  ThreadPool pool(2);
  ServeOptions options = Options();
  options.query.num_walkers = 300000;  // long enough to straddle 1 ms
  QueryService service(cloudwalker_, options, &pool);
  const QueryRequest heavy = QueryRequest::SourceTopK(3, 5);
  const QueryResponse r =
      service.Submit(heavy.WithTimeout(/*sec=*/1e-3)).Wait();
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  EXPECT_TRUE(std::holds_alternative<std::monostate>(r.payload));
  EXPECT_EQ(service.Stats().deadline_exceeded, 1u);

  // The aborted run must not have cached anything: the retry without a
  // deadline computes fresh and answers exactly like the facade.
  const QueryResponse retry = service.Submit(heavy).Wait();
  ASSERT_TRUE(retry.ok()) << retry.status.ToString();
  EXPECT_FALSE(retry.cache_hit);
  const QueryResponse direct = cloudwalker_->Execute(
      QueryRequest::SourceTopK(3, 5).WithOptions(options.query));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*retry.topk(), *direct.topk());
}

TEST_F(AsyncServiceTest, DeadlineExpiredInQueueSkipsTheKernel) {
  ThreadPool pool(2);
  QueryService service(cloudwalker_, Options(), &pool);
  PoolBlocker blocker(&pool, 2);
  QueryFuture f = service.Submit(
      QueryRequest::SourceTopK(3, 5).WithTimeout(/*sec=*/1e-4));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  blocker.Release();
  const QueryResponse r = f.Wait();
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  const ServeStats s = service.Stats();
  EXPECT_EQ(s.computed, 0u);  // it never reached a kernel
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.errors, 1u);
}

// --- Cancellation. -------------------------------------------------------

TEST_F(AsyncServiceTest, CancelBeforeExecutionCompletesWithoutKernelRun) {
  ThreadPool pool(2);
  QueryService service(cloudwalker_, Options(), &pool);
  PoolBlocker blocker(&pool, 2);
  QueryFuture f = service.Submit(QueryRequest::SourceTopK(4, 5));
  EXPECT_FALSE(f.done());
  f.Cancel();
  blocker.Release();
  const QueryResponse r = f.Wait();
  EXPECT_TRUE(r.status.IsCancelled()) << r.status.ToString();
  const ServeStats s = service.Stats();
  EXPECT_EQ(s.computed, 0u);
  EXPECT_EQ(s.cancelled, 1u);
}

TEST_F(AsyncServiceTest, CancelDuringExecutionStopsTheWalk) {
  ThreadPool pool(2);
  ServeOptions options = Options();
  // Ten levels of two million walkers: far more work than can complete
  // between Submit returning and Cancel being observed at the next
  // level checkpoint.
  options.query.num_walkers = 2000000;
  QueryService service(cloudwalker_, options, &pool);
  QueryFuture f = service.Submit(QueryRequest::SourceTopK(4, 5));
  f.Cancel();
  const QueryResponse r = f.Wait();
  EXPECT_TRUE(r.status.IsCancelled()) << r.status.ToString();
  EXPECT_EQ(service.Stats().cancelled, 1u);
}

// --- Bounded-queue admission control. ------------------------------------

TEST_F(AsyncServiceTest, OverloadRejectsWithResourceExhausted) {
  ThreadPool pool(2);
  ServeOptions options = Options();
  options.max_queue_depth = 2;
  QueryService service(cloudwalker_, options, &pool);
  PoolBlocker blocker(&pool, 2);

  std::vector<QueryFuture> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(service.Submit(QueryRequest::SourceTopK(6, 4)));
  }
  // The queue admits exactly max_queue_depth; the overflow is rejected
  // immediately (already done, kResourceExhausted) instead of buffering.
  int rejected = 0;
  for (const QueryFuture& f : futures) {
    if (f.done() && f.Wait().status.IsResourceExhausted()) ++rejected;
  }
  EXPECT_EQ(rejected, 3);

  blocker.Release();
  const std::vector<QueryResponse> responses = WhenAll(futures);
  int completed_ok = 0;
  for (const QueryResponse& r : responses) completed_ok += r.ok() ? 1 : 0;
  EXPECT_EQ(completed_ok, 2);
  const ServeStats s = service.Stats();
  EXPECT_EQ(s.rejected, 3u);
  EXPECT_EQ(s.errors, 3u);
  // Rejections complete their futures but stay out of the served-traffic
  // accounting (kind counters, histogram, QPS).
  EXPECT_EQ(s.topk_queries, 2u);
  EXPECT_EQ(s.total_queries(), 2u);

  // The blocking shims apply backpressure instead: no rejection even
  // though the batch exceeds the queue depth.
  const std::vector<QueryRequest> batch(8, QueryRequest::SourceTopK(6, 4));
  const std::vector<QueryResponse> served = service.ExecuteBatch(batch);
  for (const QueryResponse& r : served) {
    EXPECT_TRUE(r.ok()) << r.status.ToString();
  }
}

TEST_F(AsyncServiceTest, FollowerDeadlineHonoredWhileDedupWaiting) {
  ThreadPool pool(2);
  ServeOptions options = Options();
  options.cache_capacity = 0;  // dedup path, not cache
  // The leader walks for well over 100 ms; the follower gives up within
  // its 5 ms deadline plus one 5 ms poll tick of joining.
  options.query.num_walkers = 1000000;
  QueryService service(cloudwalker_, options, &pool);

  QueryFuture leader = service.Submit(QueryRequest::SourceTopK(8, 4));
  // The pool runs tasks in submission order, so once this marker runs the
  // leader has left the queue for the other worker: the follower joins a
  // running leader instead of racing it. (Either way the assertion below
  // holds: a follower that instead becomes a second leader has its own
  // kernel stopped by the same token.)
  std::promise<void> leader_dequeued;
  pool.Submit([&leader_dequeued] { leader_dequeued.set_value(); });
  leader_dequeued.get_future().wait();
  QueryFuture follower = service.Submit(
      QueryRequest::SourceTopK(8, 4).WithTimeout(/*sec=*/5e-3));
  const QueryResponse fast = follower.Wait();
  EXPECT_TRUE(fast.status.IsDeadlineExceeded()) << fast.status.ToString();
  // The follower gave up long before the leader finished; the leader's
  // own answer is unaffected.
  const QueryResponse slow = leader.Wait();
  ASSERT_TRUE(slow.ok()) << slow.status.ToString();
  const QueryResponse direct = cloudwalker_->Execute(
      QueryRequest::SourceTopK(8, 4).WithOptions(options.query));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*slow.topk(), *direct.topk());
}

// --- WhenAll ordering. ---------------------------------------------------

TEST_F(AsyncServiceTest, WhenAllAlignsResponsesWithSubmissionOrder) {
  ThreadPool pool(4);
  QueryService service(cloudwalker_, Options(), &pool);
  std::vector<QueryRequest> requests;
  for (NodeId v = 0; v < 12; ++v) {
    requests.push_back(v % 3 == 0
                           ? QueryRequest::Pair(v, (v * 7 + 1) % 150)
                           : QueryRequest::SourceTopK(v % 5, 4));
  }
  std::vector<QueryFuture> futures;
  for (const QueryRequest& r : requests) futures.push_back(service.Submit(r));
  const std::vector<QueryResponse> responses = WhenAll(futures);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status.ToString();
    ASSERT_EQ(responses[i].kind, requests[i].kind);
    const QueryResponse direct =
        cloudwalker_->Execute(requests[i].WithOptions(Options().query));
    if (requests[i].kind == QueryKind::kPair) {
      EXPECT_EQ(responses[i].score(), direct.score());
    } else {
      EXPECT_EQ(*responses[i].topk(), *direct.topk());
    }
  }
  // An invalid (default) future yields Internal, not a crash.
  const std::vector<QueryResponse> invalid = WhenAll({QueryFuture()});
  EXPECT_TRUE(invalid[0].status.IsInternal());
}

// --- Per-request option overrides. ---------------------------------------

TEST_F(AsyncServiceTest, OptionOverridesHitDistinctCacheKeys) {
  QueryService service(cloudwalker_, Options());
  const QueryRequest base = QueryRequest::SourceTopK(9, 6);
  QueryOptions other = Options().query;
  other.seed = 1234;  // any knob change must split the cache key

  const QueryResponse first = service.Submit(base).Wait();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);

  // Same (source, k), different options: a distinct entry, computed fresh.
  const QueryResponse override_first =
      service.Submit(base.WithOptions(other)).Wait();
  ASSERT_TRUE(override_first.ok());
  EXPECT_FALSE(override_first.cache_hit);
  const QueryResponse direct =
      cloudwalker_->Execute(QueryRequest::SourceTopK(9, 6).WithOptions(other));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*override_first.topk(), *direct.topk());

  // Both entries are now resident, each under its own key.
  EXPECT_TRUE(service.Submit(base).Wait().cache_hit);
  const QueryResponse override_again =
      service.Submit(base.WithOptions(other)).Wait();
  EXPECT_TRUE(override_again.cache_hit);
  EXPECT_EQ(override_again.topk(), override_first.topk());
  EXPECT_EQ(service.Stats().computed, 2u);

  // An explicit override equal to the defaults shares the default key.
  const QueryResponse same =
      service.Submit(base.WithOptions(Options().query)).Wait();
  EXPECT_TRUE(same.cache_hit);
  EXPECT_EQ(same.topk(), first.topk());
}

TEST_F(AsyncServiceTest, InvalidOverrideRejectedAtAdmission) {
  QueryService service(cloudwalker_, Options());
  QueryOptions zero_walkers = Options().query;
  zero_walkers.num_walkers = 0;
  // A NaN threshold equals no option set, itself included, so admitting
  // it would give every such request its own intern slot.
  QueryOptions nan_prune = Options().query;
  nan_prune.prune_threshold = std::numeric_limits<double>::quiet_NaN();
  for (const QueryOptions& bad : {zero_walkers, nan_prune}) {
    const QueryResponse r =
        service.Submit(QueryRequest::SourceTopK(1, 3).WithOptions(bad)).Wait();
    EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
    // Same message as the central validator — one source of truth.
    EXPECT_EQ(r.status, ValidateQueryOptions(bad));
  }
  EXPECT_EQ(service.Stats().computed, 0u);
}

// --- Latency is measured from admission (dedup waiters included). --------

TEST_F(AsyncServiceTest, LatencyMeasuredFromAdmissionForAllWaiters) {
  ThreadPool pool(2);
  ServeOptions options = Options();
  options.cache_capacity = 0;  // force dedup, not cache fan-out
  QueryService service(cloudwalker_, options, &pool);
  PoolBlocker blocker(&pool, 2);

  // Three identical requests admitted while every worker is blocked: the
  // first becomes the leader, the rest dedup against it once released.
  std::vector<QueryFuture> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.Submit(QueryRequest::SourceTopK(11, 5)));
  }
  constexpr double kQueuedSeconds = 0.04;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kQueuedSeconds));
  blocker.Release();
  const std::vector<QueryResponse> responses = WhenAll(futures);

  const ServeStats s = service.Stats();
  EXPECT_EQ(s.computed + s.dedup_shared, 3u);
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    // Every requester — leader, dedup waiters alike — reports wall time
    // from admission, so the blocked interval is visible in all of them.
    EXPECT_GE(r.latency_seconds, kQueuedSeconds);
  }
}

}  // namespace
}  // namespace cloudwalker
