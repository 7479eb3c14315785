// Query-level bit-identity of CloudWalker::Shard (DESIGN.md section 11):
// all six QueryKinds, answered through the sharded BSP walk engine at
// shard counts {1, 2, 3, 8}, must equal the single-node facade's answers
// exactly — same scores, same entries, same ordering — because the walk
// backend changes where walkers run, never what they draw.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "shard/sharding.h"

namespace cloudwalker {
namespace {

constexpr int kShardCounts[] = {1, 2, 3, 8};

std::shared_ptr<const CloudWalker> BuildBase(NodeId nodes = 220,
                                             uint64_t edges = 1600,
                                             uint64_t seed = 31) {
  IndexingOptions opts;
  opts.num_walkers = 40;
  auto built = CloudWalker::Build(GenerateRmat(nodes, edges, seed), opts);
  EXPECT_TRUE(built.ok()) << built.status().message();
  return std::move(built).value();
}

QueryOptions FastOptions() {
  QueryOptions q;
  q.num_walkers = 150;
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

void ExpectSameSparse(const SparseVector& a, const SparseVector& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " entry " << i;
  }
}

TEST(ShardedQueryTest, AllSixKindsBitIdenticalAtEveryShardCount) {
  const auto base = BuildBase();
  const QueryOptions q = FastOptions();
  const std::vector<QueryRequest> requests = {
      QueryRequest::Pair(3, 140).WithOptions(q),
      QueryRequest::SingleSource(7).WithOptions(q),
      QueryRequest::SourceTopK(7, 12).WithOptions(q),
      QueryRequest::AllPairsTopK(3).WithOptions(q),
      QueryRequest::PersonalizedPageRank(7, 12).WithOptions(q),
      QueryRequest::Node2Vec(7, 12).WithOptions(q),
  };
  std::vector<QueryResponse> expected;
  for (const QueryRequest& r : requests) expected.push_back(base->Execute(r));

  for (const int shards : kShardCounts) {
    ShardingOptions opts;
    opts.num_shards = shards;
    auto sharded_or = CloudWalker::Shard(base, opts);
    ASSERT_TRUE(sharded_or.ok()) << sharded_or.status().message();
    const auto sharded = std::move(sharded_or).value();
    ASSERT_NE(sharded->walk_backend(), nullptr);
    for (size_t i = 0; i < requests.size(); ++i) {
      const QueryResponse got = sharded->Execute(requests[i]);
      const QueryResponse& want = expected[i];
      const std::string what =
          "kind " + std::to_string(static_cast<int>(requests[i].kind)) +
          " shards " + std::to_string(shards);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status.message();
      ASSERT_TRUE(want.ok()) << what;
      switch (requests[i].kind) {
        case QueryKind::kPair:
          EXPECT_EQ(got.score(), want.score()) << what;
          break;
        case QueryKind::kSingleSource:
          ExpectSameSparse(*got.scores(), *want.scores(), what);
          break;
        case QueryKind::kSourceTopK:
        case QueryKind::kPersonalizedPageRank:
        case QueryKind::kNode2Vec:
          ExpectSameTopK(*got.Get<QueryKind::kSourceTopK>(),
                         *want.Get<QueryKind::kSourceTopK>(), what);
          break;
        case QueryKind::kAllPairsTopK: {
          const AllPairsResult& g = *got.all_pairs();
          const AllPairsResult& w = *want.all_pairs();
          ASSERT_EQ(g.size(), w.size()) << what;
          for (size_t s = 0; s < g.size(); ++s) {
            ExpectSameTopK(g[s], w[s], what + " source " + std::to_string(s));
          }
          break;
        }
      }
    }
  }
}

TEST(ShardedQueryTest, ShardedInstanceSurvivesBaseRelease) {
  // The sharded engine shares ownership of the graph, so dropping
  // the base facade must not invalidate it.
  std::shared_ptr<const CloudWalker> sharded;
  const QueryRequest pair =
      QueryRequest::Pair(1, 50).WithOptions(FastOptions());
  double expected = 0.0;
  {
    const auto base = BuildBase(100, 700, 3);
    expected = base->Execute(pair).score();
    ShardingOptions opts;
    opts.num_shards = 3;
    sharded = CloudWalker::Shard(base, opts).value();
  }
  EXPECT_EQ(sharded->Execute(pair).score(), expected);
}

TEST(ShardedQueryTest, ShardValidatesInputs) {
  EXPECT_FALSE(CloudWalker::Shard(nullptr, ShardingOptions{}).ok());
  const auto base = BuildBase(50, 300, 1);
  ShardingOptions bad;
  bad.num_shards = 0;
  EXPECT_FALSE(CloudWalker::Shard(base, bad).ok());
}

TEST(ShardedQueryTest, SnapshotRoundTripThenShardBitIdentical) {
  // Open() -> Shard(): the sharded engine built over a view-backed graph
  // answers exactly like the in-memory build it came from.
  const auto base = BuildBase(150, 1100, 17);
  const std::string path = ::testing::TempDir() + "/sharded_query.cwk";
  ASSERT_TRUE(base->WriteSnapshot(path).ok());
  auto opened = CloudWalker::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  ShardingOptions opts;
  opts.num_shards = 4;
  const auto sharded = CloudWalker::Shard(*opened, opts).value();
  const QueryOptions q = FastOptions();
  const QueryRequest pair = QueryRequest::Pair(3, 80).WithOptions(q);
  EXPECT_EQ(base->Execute(pair).score(), sharded->Execute(pair).score());
  const QueryRequest topk = QueryRequest::SourceTopK(3, 10).WithOptions(q);
  ExpectSameTopK(*base->Execute(topk).topk(), *sharded->Execute(topk).topk(),
                 "snapshot round trip");
}

}  // namespace
}  // namespace cloudwalker
