// Query-level bit-identity of CloudWalker::Distribute (DESIGN.md
// section 13): all six QueryKinds, answered over real sockets by 2- and
// 3-worker fleets, must equal both the single-node facade and the
// in-process sharded engine exactly — the wire moves walkers, never
// changes what they draw. Plus the serving integration the error model
// exists for: a dead fleet surfaces kUnavailable, QueryService refuses
// to cache it, and the same service recovers once workers return. Last,
// the same fleets, shards and threads over a locality-reordered snapshot,
// whose walks every backend keys on external ids from its own copy of
// the artifact.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cloudwalker.h"
#include "engine/parallel_walk.h"
#include "graph/generators.h"
#include "net/remote_backend.h"
#include "ooc/reorder.h"
#include "serve/query_service.h"
#include "shard/sharding.h"
#include "worker_fleet.h"

namespace cloudwalker {
namespace {

class DistributedQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    IndexingOptions opts;
    opts.num_walkers = 40;
    auto built = CloudWalker::Build(GenerateRmat(220, 1600, 31), opts);
    ASSERT_TRUE(built.ok()) << built.status().message();
    path_ = new std::string(::testing::TempDir() + "/distributed_query.cwk");
    ASSERT_TRUE((*built)->WriteSnapshot(*path_).ok());
    auto opened = CloudWalker::Open(*path_);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    base_ = new std::shared_ptr<const CloudWalker>(std::move(*opened));
  }

  static void TearDownTestSuite() {
    delete base_;
    delete path_;
  }

  static const std::string& path() { return *path_; }
  static const std::shared_ptr<const CloudWalker>& base() { return *base_; }

  static std::vector<QueryRequest> MixedRequests() {
    QueryOptions q;
    q.num_walkers = 150;
    return {
        QueryRequest::Pair(3, 140).WithOptions(q),
        QueryRequest::SingleSource(7).WithOptions(q),
        QueryRequest::SourceTopK(7, 12).WithOptions(q),
        QueryRequest::AllPairsTopK(3).WithOptions(q),
        QueryRequest::PersonalizedPageRank(7, 12).WithOptions(q),
        QueryRequest::Node2Vec(7, 12).WithOptions(q),
    };
  }

  static std::string* path_;
  static std::shared_ptr<const CloudWalker>* base_;
};

std::string* DistributedQueryTest::path_ = nullptr;
std::shared_ptr<const CloudWalker>* DistributedQueryTest::base_ = nullptr;

TEST_F(DistributedQueryTest, AllSixKindsBitIdenticalAtTwoAndThreeWorkers) {
  const std::vector<QueryRequest> requests = MixedRequests();
  std::vector<QueryResponse> single;
  for (const QueryRequest& r : requests) single.push_back(base()->Execute(r));

  for (const int workers : {2, 3}) {
    WorkerFleet fleet(path(), workers);
    RemoteBackendOptions options;
    options.workers = fleet.Addresses();
    auto remote = CloudWalker::Distribute(base(), options);
    ASSERT_TRUE(remote.ok()) << remote.status().message();

    // The in-process sharded engine at the same shard count is the
    // second reference: remote must match it term for term, because both
    // resolve the same plan and draw the same walkers.
    ShardingOptions sharding;
    sharding.num_shards = workers;
    auto sharded = CloudWalker::Shard(base(), sharding);
    ASSERT_TRUE(sharded.ok());

    for (size_t i = 0; i < requests.size(); ++i) {
      const std::string what =
          "kind " + std::to_string(static_cast<int>(requests[i].kind)) +
          " workers " + std::to_string(workers);
      const QueryResponse got = (*remote)->Execute(requests[i]);
      ASSERT_TRUE(single[i].ok()) << what;
      ASSERT_TRUE(got.ok()) << what << ": " << got.status.message();
      EXPECT_TRUE(BitIdentical(got, single[i])) << what << " vs single";
      EXPECT_TRUE(BitIdentical(got, (*sharded)->Execute(requests[i])))
          << what << " vs sharded";
    }
  }
}

TEST_F(DistributedQueryTest, WorkerRestartMidWorkloadStaysBitIdentical) {
  QueryOptions q;
  q.num_walkers = 120;
  const QueryRequest pair_request = QueryRequest::Pair(9, 60).WithOptions(q);
  const QueryRequest ppr_request =
      QueryRequest::PersonalizedPageRank(9, 8).WithOptions(q);
  const double pair = base()->Execute(pair_request).score();
  const TopKResult topk = *base()->Execute(ppr_request).topk();

  WorkerFleet fleet(path(), 2);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  options.retry_backoff_seconds = 0.05;
  options.superstep_timeout_seconds = 5.0;
  auto remote = CloudWalker::Distribute(base(), options);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ((*remote)->Execute(pair_request).score(), pair);

  // Kill worker 1 and bring it back on the same port: the next query
  // must reconnect (possibly after a retry) and answer identically.
  fleet.Stop(1);
  fleet.Restart(1, path());
  const QueryResponse got = (*remote)->Execute(ppr_request);
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  ASSERT_EQ(got.topk()->size(), topk.size());
  for (size_t i = 0; i < topk.size(); ++i) {
    EXPECT_EQ((*got.topk())[i].node, topk[i].node);
    EXPECT_EQ((*got.topk())[i].score, topk[i].score);
  }
}

TEST_F(DistributedQueryTest, QueryServiceNeverCachesUnavailable) {
  auto fleet = std::make_unique<WorkerFleet>(path(), 2);
  RemoteBackendOptions options;
  options.workers = fleet->Addresses();
  options.connect_timeout_seconds = 0.5;
  options.superstep_timeout_seconds = 0.5;
  options.max_attempts = 2;
  options.retry_backoff_seconds = 0.01;
  auto remote = CloudWalker::Distribute(base(), options);
  ASSERT_TRUE(remote.ok());

  ServeOptions serve;
  serve.query.num_walkers = 120;
  QueryService service(*remote, serve);
  const QueryRequest request = QueryRequest::SourceTopK(5, 10);

  // Warm answer with a live fleet (this one IS cached).
  const QueryResponse warm = service.Execute(request);
  ASSERT_TRUE(warm.ok()) << warm.status.message();
  EXPECT_EQ(service.Execute(request).status.code(), StatusCode::kOk);
  EXPECT_GE(service.Stats().cache_hits, 1u);

  // Different source so the cache cannot answer; fleet dead -> the error
  // must surface and must not be cached.
  const std::vector<RemoteWorkerAddress> addresses = fleet->Addresses();
  fleet.reset();
  const QueryRequest cold = QueryRequest::SourceTopK(6, 10);
  const QueryResponse dead = service.Execute(cold);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status.code(), StatusCode::kUnavailable)
      << dead.status.ToString();
  EXPECT_GE(service.Stats().errors, 1u);

  // Workers return on the same ports: the very same request now
  // succeeds — proof the failure was not cached as an answer.
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::thread> threads;
  for (const RemoteWorkerAddress& addr : addresses) {
    ShardWorkerOptions wopts;
    wopts.snapshot_path = path();
    wopts.port = addr.port;
    auto worker = ShardWorker::Create(wopts);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    workers.push_back(std::move(*worker));
    threads.emplace_back(
        [w = workers.back().get()] { (void)w->Serve(); });
  }
  const QueryResponse recovered = service.Execute(cold);
  EXPECT_TRUE(recovered.ok()) << recovered.status.message();
  if (warm.ok() && recovered.ok()) {
    // And the recovered answer matches the single-node truth.
    QueryOptions q;
    q.num_walkers = 120;
    const TopKResult want =
        *base()->Execute(QueryRequest::SourceTopK(6, 10).WithOptions(q)).topk();
    const TopKResult& got = *recovered.topk();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node);
      EXPECT_EQ(got[i].score, want[i].score);
    }
  }
  for (auto& worker : workers) worker->Stop();
  for (auto& thread : threads) thread.join();
}

TEST(ReorderedBackendsTest, ShardsThreadsAndWorkersServeReorderedSnapshots) {
  // One engine written twice: plain, and renumbered by a BFS locality
  // order. Every backend over the reordered artifact must answer all six
  // kinds and a biased node2vec exactly as its plain Open does; PPR and
  // node2vec are also exact against the plain artifact (their answers
  // are endpoint frequencies, translated to external ids).
  IndexingOptions opts;
  opts.num_walkers = 40;
  auto built = CloudWalker::Build(GenerateRmat(220, 1600, 31), opts);
  ASSERT_TRUE(built.ok()) << built.status().message();
  const std::string plain_path =
      ::testing::TempDir() + "/reordered_backends_plain.cwk";
  const std::string bfs_path =
      ::testing::TempDir() + "/reordered_backends_bfs.cwk";
  ASSERT_TRUE((*built)->WriteSnapshot(plain_path).ok());
  ASSERT_TRUE(
      (*built)->WriteReorderedSnapshot(bfs_path, ReorderKind::kBfs).ok());
  auto plain = CloudWalker::Open(plain_path);
  auto reordered = CloudWalker::Open(bfs_path);
  ASSERT_TRUE(plain.ok() && reordered.ok());
  ASSERT_FALSE((*reordered)->permutation().empty());

  QueryOptions q;
  q.num_walkers = 150;
  QueryOptions biased = q;
  biased.n2v_return_p = 0.5;
  biased.n2v_in_out_q = 2.0;
  const std::vector<QueryRequest> requests = {
      QueryRequest::Pair(3, 140).WithOptions(q),
      QueryRequest::SingleSource(7).WithOptions(q),
      QueryRequest::SourceTopK(7, 12).WithOptions(q),
      QueryRequest::AllPairsTopK(3).WithOptions(q),
      QueryRequest::PersonalizedPageRank(7, 12).WithOptions(q),
      QueryRequest::Node2Vec(7, 12).WithOptions(q),
      QueryRequest::Node2Vec(150, 12).WithOptions(biased),
  };

  ShardingOptions sharding;
  sharding.num_shards = 3;
  sharding.num_threads = 2;
  auto sharded = CloudWalker::Shard(*reordered, sharding);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ParallelWalkOptions threads;
  threads.num_threads = 3;
  threads.min_walkers_per_range = 16;
  auto parallel = CloudWalker::Parallelize(*reordered, threads);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  WorkerFleet fleet(bfs_path, 2);
  RemoteBackendOptions remote_options;
  remote_options.workers = fleet.Addresses();
  auto distributed = CloudWalker::Distribute(*reordered, remote_options);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();

  const std::vector<std::pair<std::string, std::shared_ptr<const CloudWalker>>>
      backends = {{"Shard(3)", *sharded},
                  {"Parallelize(3)", *parallel},
                  {"Distribute(2)", *distributed}};
  for (const QueryRequest& request : requests) {
    const QueryResponse want = (*reordered)->Execute(request);
    const std::string kind =
        "kind " + std::to_string(static_cast<int>(request.kind));
    ASSERT_TRUE(want.ok()) << kind;
    if (request.kind == QueryKind::kPersonalizedPageRank ||
        request.kind == QueryKind::kNode2Vec) {
      EXPECT_TRUE(BitIdentical((*plain)->Execute(request), want))
          << kind << " reordered Open vs plain";
    }
    for (const auto& [name, engine] : backends) {
      EXPECT_TRUE(BitIdentical(engine->Execute(request), want))
          << kind << " " << name;
    }
  }
}

}  // namespace
}  // namespace cloudwalker
