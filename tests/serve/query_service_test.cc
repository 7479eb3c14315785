#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "graph/generators.h"
#include "serve/workload.h"

namespace cloudwalker {
namespace {

// Shared fixture: a small indexed R-MAT graph behind a CloudWalker facade.
class QueryServiceTest : public ::testing::Test {
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

  // Modest R' keeps each kernel run cheap; the seed pins every answer.
  static ServeOptions Options() {
    ServeOptions options;
    options.query.num_walkers = 300;
    options.query.seed = 17;
    return options;
  }

  static Graph* graph_;
  static std::shared_ptr<const CloudWalker> cloudwalker_;
};

Graph* QueryServiceTest::graph_ = nullptr;
std::shared_ptr<const CloudWalker> QueryServiceTest::cloudwalker_;

TEST_F(QueryServiceTest, PairBitIdenticalToDirectCall) {
  QueryService service(cloudwalker_, Options());
  for (auto [i, j] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {5, 77}, {33, 33}, {149, 2}}) {
    const QueryResponse r = service.Execute(QueryRequest::Pair(i, j));
    ASSERT_TRUE(r.status.ok());
    const QueryResponse direct = cloudwalker_->Execute(
        QueryRequest::Pair(i, j).WithOptions(Options().query));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(r.score(), direct.score());  // exact, not approximate
  }
}

TEST_F(QueryServiceTest, TopKBitIdenticalToDirectCall) {
  QueryService service(cloudwalker_, Options());
  for (NodeId source : {0u, 7u, 42u, 149u}) {
    const QueryResponse r =
        service.Execute(QueryRequest::SourceTopK(source, 8));
    ASSERT_TRUE(r.status.ok());
    const QueryResponse response = cloudwalker_->Execute(
        QueryRequest::SourceTopK(source, 8).WithOptions(Options().query));
    ASSERT_TRUE(response.ok());
    const TopKPtr& direct = response.topk();
    ASSERT_EQ(r.topk()->size(), direct->size());
    for (size_t p = 0; p < direct->size(); ++p) {
      EXPECT_EQ((*r.topk())[p].node, (*direct)[p].node);
      EXPECT_EQ((*r.topk())[p].score, (*direct)[p].score);  // bit-identical
    }
  }
}

TEST_F(QueryServiceTest, CacheHitReturnsTheSharedResult) {
  QueryService service(cloudwalker_, Options());
  const QueryResponse first =
      service.Execute(QueryRequest::SourceTopK(3, 5));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  const QueryResponse second =
      service.Execute(QueryRequest::SourceTopK(3, 5));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.topk(), first.topk());  // same object, fanned out
  // A different k is a different cache entry.
  const QueryResponse other_k =
      service.Execute(QueryRequest::SourceTopK(3, 6));
  EXPECT_FALSE(other_k.cache_hit);
  const ServeStats s = service.Stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_EQ(s.computed, 2u);
}

TEST_F(QueryServiceTest, CacheDisabledRecomputesEveryRequest) {
  ServeOptions options = Options();
  options.cache_capacity = 0;
  QueryService service(cloudwalker_, options);
  const QueryResponse a = service.Execute(QueryRequest::SourceTopK(3, 5));
  const QueryResponse b = service.Execute(QueryRequest::SourceTopK(3, 5));
  EXPECT_FALSE(b.cache_hit);
  EXPECT_EQ(service.Stats().computed, 2u);
  // Recomputation is still deterministic.
  ASSERT_EQ(a.topk()->size(), b.topk()->size());
  EXPECT_EQ(*a.topk(), *b.topk());
}

TEST_F(QueryServiceTest, ConcurrentBatchBitIdenticalToDirectCalls) {
  ThreadPool pool(4);
  QueryService service(cloudwalker_, Options(), &pool);
  std::vector<QueryRequest> requests;
  for (NodeId v = 0; v < 40; ++v) {
    requests.push_back(QueryRequest::SourceTopK(v % 13, 7));  // repeats
    requests.push_back(QueryRequest::Pair(v, (v * 31 + 1) % 150));
  }
  const std::vector<QueryResponse> responses = service.ExecuteBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    ASSERT_TRUE(responses[r].status.ok()) << responses[r].status.ToString();
    const QueryResponse direct =
        cloudwalker_->Execute(requests[r].WithOptions(Options().query));
    if (requests[r].kind == QueryKind::kPair) {
      EXPECT_EQ(responses[r].score(), direct.score());
    } else {
      EXPECT_EQ(*responses[r].topk(), *direct.topk());
    }
  }
  // Replaying the whole batch yields the same answers again.
  const std::vector<QueryResponse> replay = service.ExecuteBatch(requests);
  for (size_t r = 0; r < requests.size(); ++r) {
    if (requests[r].kind == QueryKind::kPair) {
      EXPECT_EQ(replay[r].score(), responses[r].score());
    } else {
      EXPECT_EQ(*replay[r].topk(), *responses[r].topk());
    }
  }
}

TEST_F(QueryServiceTest, DedupComputesOnceAndFansOut) {
  // Cache off isolates dedup: every request either runs the kernel or
  // joins an in-flight twin — those two counters must partition the batch
  // regardless of scheduling.
  ThreadPool pool(4);
  ServeOptions options = Options();
  options.cache_capacity = 0;
  QueryService service(cloudwalker_, options, &pool);
  const std::vector<QueryRequest> storm(64, QueryRequest::SourceTopK(9, 6));
  const std::vector<QueryResponse> responses = service.ExecuteBatch(storm);
  const ServeStats s = service.Stats();
  EXPECT_EQ(s.topk_queries, 64u);
  EXPECT_EQ(s.computed + s.dedup_shared, 64u);
  EXPECT_GE(s.computed, 1u);
  const TopKPtr direct =
      cloudwalker_->Execute(storm[0].WithOptions(options.query)).topk();
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(*r.topk(), *direct);  // fanned-out answers are bit-identical
  }
}

TEST_F(QueryServiceTest, DedupDisabledComputesEveryRequest) {
  ThreadPool pool(4);
  ServeOptions options = Options();
  options.cache_capacity = 0;
  options.dedup_in_flight = false;
  QueryService service(cloudwalker_, options, &pool);
  const std::vector<QueryRequest> storm(16, QueryRequest::SourceTopK(9, 6));
  service.ExecuteBatch(storm);
  const ServeStats s = service.Stats();
  EXPECT_EQ(s.computed, 16u);
  EXPECT_EQ(s.dedup_shared, 0u);
}

TEST_F(QueryServiceTest, StatsCountersAndLatencies) {
  QueryService service(cloudwalker_, Options());
  service.Execute(QueryRequest::Pair(0, 1));
  service.Execute(QueryRequest::Pair(1, 2));
  for (NodeId source : {4u, 4u, 4u, 8u, 8u}) {
    service.Execute(QueryRequest::SourceTopK(source, 5));
  }
  const ServeStats s = service.Stats();
  EXPECT_EQ(s.pair_queries, 2u);
  EXPECT_EQ(s.topk_queries, 5u);
  EXPECT_EQ(s.total_queries(), 7u);
  EXPECT_EQ(s.cache_hits, 3u);    // 2x source 4, 1x source 8
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_DOUBLE_EQ(s.CacheHitRate(), 3.0 / 5.0);
  EXPECT_EQ(s.computed, 4u);      // 2 pair + 2 distinct top-k
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.cache_entries, 2u);
  EXPECT_GT(s.elapsed_seconds, 0.0);
  EXPECT_GT(s.qps, 0.0);
  EXPECT_GT(s.p50_ms, 0.0);
  EXPECT_LE(s.p50_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.p99_ms);
}

TEST_F(QueryServiceTest, ResetStatsZeroesTheWindow) {
  QueryService service(cloudwalker_, Options());
  service.Execute(QueryRequest::SourceTopK(2, 5));
  service.ResetStats();
  ServeStats s = service.Stats();
  EXPECT_EQ(s.total_queries(), 0u);
  EXPECT_EQ(s.cache_misses, 0u);
  EXPECT_EQ(s.p99_ms, 0.0);
  // The cache itself survives the reset: the replay is a hit.
  const QueryResponse r = service.Execute(QueryRequest::SourceTopK(2, 5));
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
}

TEST_F(QueryServiceTest, ProgramKindsBitIdenticalCachedAndCounted) {
  QueryService service(cloudwalker_, Options());
  const QueryResponse ppr =
      service.Execute(QueryRequest::PersonalizedPageRank(7, 6));
  ASSERT_TRUE(ppr.status.ok()) << ppr.status.ToString();
  const QueryResponse ppr_direct = cloudwalker_->Execute(
      QueryRequest::PersonalizedPageRank(7, 6).WithOptions(Options().query));
  ASSERT_TRUE(ppr_direct.ok());
  EXPECT_EQ(*ppr.topk(), *ppr_direct.topk());  // bit-identical to the facade

  const QueryResponse n2v = service.Execute(QueryRequest::Node2Vec(7, 6));
  ASSERT_TRUE(n2v.status.ok()) << n2v.status.ToString();
  const QueryResponse n2v_direct = cloudwalker_->Execute(
      QueryRequest::Node2Vec(7, 6).WithOptions(Options().query));
  ASSERT_TRUE(n2v_direct.ok());
  EXPECT_EQ(*n2v.topk(), *n2v_direct.topk());

  // Same (source, k) under three different kinds: three distinct cache
  // entries (the kind sits in the key), each replaying as a hit that
  // shares the cached object.
  const QueryResponse topk = service.Execute(QueryRequest::SourceTopK(7, 6));
  EXPECT_FALSE(topk.cache_hit);
  const QueryResponse ppr2 =
      service.Execute(QueryRequest::PersonalizedPageRank(7, 6));
  EXPECT_TRUE(ppr2.cache_hit);
  EXPECT_EQ(ppr2.topk(), ppr.topk());
  const QueryResponse n2v2 = service.Execute(QueryRequest::Node2Vec(7, 6));
  EXPECT_TRUE(n2v2.cache_hit);
  EXPECT_EQ(n2v2.topk(), n2v.topk());

  const ServeStats s = service.Stats();
  EXPECT_EQ(s.ppr_queries, 2u);
  EXPECT_EQ(s.n2v_queries, 2u);
  EXPECT_EQ(s.topk_queries, 1u);
  EXPECT_EQ(s.total_queries(), 5u);
  EXPECT_EQ(s.cache_entries, 3u);
}

TEST_F(QueryServiceTest, ProgramOptionKnobsSplitTheCacheKey) {
  QueryService service(cloudwalker_, Options());
  const QueryResponse base =
      service.Execute(QueryRequest::PersonalizedPageRank(3, 5));
  ASSERT_TRUE(base.status.ok());
  QueryOptions tweaked = Options().query;
  tweaked.ppr_alpha = 0.4;
  const QueryRequest request =
      QueryRequest::PersonalizedPageRank(3, 5).WithOptions(tweaked);
  const QueryResponse other = service.Execute(request);
  ASSERT_TRUE(other.status.ok());
  EXPECT_FALSE(other.cache_hit);  // alpha is part of the options id
  const QueryResponse replay = service.Execute(request);
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_EQ(replay.topk(), other.topk());
}

TEST_F(QueryServiceTest, ProgramKindsSubmitAsyncAndDedup) {
  ThreadPool pool(4);
  ServeOptions options = Options();
  options.cache_capacity = 0;  // isolate dedup
  QueryService service(cloudwalker_, options, &pool);
  std::vector<QueryRequest> storm;
  for (int r = 0; r < 16; ++r) {
    storm.push_back(QueryRequest::PersonalizedPageRank(11, 4));
    storm.push_back(QueryRequest::Node2Vec(11, 4));
  }
  const std::vector<QueryResponse> responses = service.ExecuteBatch(storm);
  const QueryResponse ppr_direct = cloudwalker_->Execute(
      QueryRequest::PersonalizedPageRank(11, 4).WithOptions(options.query));
  const QueryResponse n2v_direct = cloudwalker_->Execute(
      QueryRequest::Node2Vec(11, 4).WithOptions(options.query));
  ASSERT_TRUE(ppr_direct.ok());
  ASSERT_TRUE(n2v_direct.ok());
  for (size_t r = 0; r < storm.size(); ++r) {
    ASSERT_TRUE(responses[r].status.ok()) << responses[r].status.ToString();
    const auto& expect = storm[r].kind == QueryKind::kPersonalizedPageRank
                             ? *ppr_direct.topk()
                             : *n2v_direct.topk();
    EXPECT_EQ(*responses[r].topk(), expect);  // never cross-kind answers
  }
  const ServeStats s = service.Stats();
  EXPECT_EQ(s.ppr_queries, 16u);
  EXPECT_EQ(s.n2v_queries, 16u);
  EXPECT_EQ(s.computed + s.dedup_shared, 32u);
}

TEST_F(QueryServiceTest, OutOfRangeRequestsReportErrors) {
  QueryService service(cloudwalker_, Options());
  const QueryResponse pair = service.Execute(QueryRequest::Pair(0, 100000));
  EXPECT_FALSE(pair.status.ok());
  EXPECT_TRUE(pair.status.IsOutOfRange());
  const QueryResponse topk =
      service.Execute(QueryRequest::SourceTopK(100000, 5));
  EXPECT_FALSE(topk.status.ok());
  // A failed request never carries a payload.
  EXPECT_TRUE(std::holds_alternative<std::monostate>(topk.payload));
  EXPECT_EQ(service.Stats().errors, 2u);
}

// --- Workload generation and replay files. -------------------------------

TEST(WorkloadTest, GenerationIsDeterministic) {
  WorkloadSpec spec;
  spec.num_requests = 200;
  auto a = GenerateWorkload(500, spec);
  auto b = GenerateWorkload(500, spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  spec.seed = 43;
  auto c = GenerateWorkload(500, spec);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*a, *c);
}

TEST(WorkloadTest, RespectsSpecShape) {
  WorkloadSpec spec;
  spec.num_requests = 400;
  spec.pair_fraction = 0.0;
  spec.topk = 12;
  auto requests = GenerateWorkload(100, spec);
  ASSERT_TRUE(requests.ok());
  ASSERT_EQ(requests->size(), 400u);
  for (const QueryRequest& r : *requests) {
    EXPECT_EQ(r.kind, QueryKind::kSourceTopK);
    EXPECT_EQ(r.k, 12u);
    EXPECT_LT(r.a, 100u);
  }
}

TEST(WorkloadTest, ZipfSkewsTowardLowRanks) {
  WorkloadSpec spec;
  spec.num_requests = 2000;
  spec.pair_fraction = 0.0;
  spec.skew = WorkloadSkew::kZipf;
  auto requests = GenerateWorkload(1000, spec);
  ASSERT_TRUE(requests.ok());
  std::map<NodeId, int> counts;
  for (const QueryRequest& r : *requests) ++counts[r.a];
  // The hottest decile must dominate the coldest decile decisively.
  int hot = 0, cold = 0;
  for (const auto& [node, n] : counts) {
    if (node < 100) hot += n;
    if (node >= 900) cold += n;
  }
  EXPECT_GT(hot, 10 * std::max(cold, 1));
}

TEST(WorkloadTest, SaveLoadRoundTrip) {
  WorkloadSpec spec;
  spec.num_requests = 50;
  spec.pair_fraction = 0.4;
  spec.source_fraction = 0.2;  // exercises the 'source <q>' verb too
  auto requests = GenerateWorkload(64, spec);
  ASSERT_TRUE(requests.ok());
  bool saw_source = false;
  for (const QueryRequest& r : *requests) {
    saw_source |= r.kind == QueryKind::kSingleSource;
  }
  EXPECT_TRUE(saw_source);
  const std::string path = ::testing::TempDir() + "workload_roundtrip.txt";
  ASSERT_TRUE(SaveWorkloadText(*requests, path).ok());
  auto loaded = LoadWorkloadText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, *requests);
  std::remove(path.c_str());
}

TEST(WorkloadTest, LoadRejectsMalformedLines) {
  const std::string path = ::testing::TempDir() + "workload_bad.txt";
  for (const char* body : {"# fine\npair 1 2\nfetch 3 4\n",
                           "topk 4294967296 10\n"}) {  // id wider than 32 bits
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(body, f);
    std::fclose(f);
    auto loaded = LoadWorkloadText(path);
    EXPECT_FALSE(loaded.ok()) << body;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(WorkloadTest, ValidatesSpec) {
  WorkloadSpec spec;
  spec.pair_fraction = 1.5;
  EXPECT_FALSE(GenerateWorkload(10, spec).ok());
  spec = WorkloadSpec{};
  spec.num_requests = 0;
  EXPECT_FALSE(GenerateWorkload(10, spec).ok());
  spec = WorkloadSpec{};
  spec.pair_fraction = 0.7;
  spec.source_fraction = 0.7;  // fractions must sum to at most 1
  EXPECT_FALSE(GenerateWorkload(10, spec).ok());
  spec = WorkloadSpec{};
  EXPECT_FALSE(GenerateWorkload(0, spec).ok());
}

}  // namespace
}  // namespace cloudwalker
