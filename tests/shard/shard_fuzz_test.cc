// Randomized cross-shard bit-identity fuzz (DESIGN.md section 11): ~200
// seeded random graphs — dangling nodes, self-loops, parallel edges,
// disconnected components, empty graphs of every small size — each queried
// through a sharded engine (cycling shard counts {1, 2, 3, 8}, placements,
// dangling policies, and all six QueryKinds) and
// asserted exactly equal to the single-node answer. Any divergence in the
// exchange, routing, or merge logic shows up as a seed to replay.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/cloudwalker.h"
#include "graph/graph.h"
#include "shard/sharding.h"

namespace cloudwalker {
namespace {

constexpr int kShardCounts[] = {1, 2, 3, 8};
constexpr ShardingOptions::Placement kPlacements[] = {
    ShardingOptions::Placement::kAuto, ShardingOptions::Placement::kHash,
    ShardingOptions::Placement::kRange};

Graph RandomGraph(uint64_t seed) {
  Xoshiro256 rng(seed);
  const NodeId n = 1 + rng.UniformInt32(40);
  GraphBuilder b(n);
  // Up to ~3 edges per node on average; small graphs frequently come out
  // with isolated (dangling) nodes and disconnected components. Self loops
  // and duplicates are kept — the walk semantics must shard through them
  // unchanged.
  const uint32_t m = rng.UniformInt32(3 * n + 1);
  for (uint32_t e = 0; e < m; ++e) {
    b.AddEdge(rng.UniformInt32(n), rng.UniformInt32(n));
  }
  GraphBuildOptions opts;
  opts.dedup = (seed % 3 == 0);
  opts.remove_self_loops = (seed % 2 == 0);
  auto built = b.Build(opts);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

QueryRequest RandomRequest(Xoshiro256& rng, NodeId n,
                           const QueryOptions& q) {
  const NodeId a = rng.UniformInt32(n);
  const uint32_t k = 1 + rng.UniformInt32(6);
  switch (rng.UniformInt32(6)) {
    case 0:
      return QueryRequest::Pair(a, rng.UniformInt32(n)).WithOptions(q);
    case 1:
      return QueryRequest::SingleSource(a).WithOptions(q);
    case 2:
      return QueryRequest::SourceTopK(a, k).WithOptions(q);
    case 3:
      return QueryRequest::AllPairsTopK(k).WithOptions(q);
    case 4:
      return QueryRequest::PersonalizedPageRank(a, k).WithOptions(q);
    default:
      return QueryRequest::Node2Vec(a, k).WithOptions(q);
  }
}

TEST(ShardFuzzTest, TwoHundredRandomGraphsShardBitIdentically) {
  constexpr uint64_t kNumGraphs = 200;
  for (uint64_t seed = 1; seed <= kNumGraphs; ++seed) {
    Graph graph = RandomGraph(seed);
    const NodeId n = graph.num_nodes();

    IndexingOptions idx;
    idx.num_walkers = 12;
    idx.dangling =
        (seed % 5 == 0) ? DanglingPolicy::kSelfLoop : DanglingPolicy::kDie;
    auto base_or = CloudWalker::Build(std::move(graph), idx);
    ASSERT_TRUE(base_or.ok()) << "seed " << seed;
    const auto base = std::move(base_or).value();

    QueryOptions q;
    q.num_walkers = 24 + static_cast<uint32_t>(seed % 3) * 17;
    q.seed = seed * 1000003;
    q.dangling = idx.dangling;
    q.ppr_alpha = (seed % 4 == 0) ? 0.5 : 0.85;
    q.n2v_return_p = (seed % 2 == 0) ? 0.25 : 2.0;
    q.n2v_in_out_q = (seed % 3 == 0) ? 4.0 : 0.5;

    ShardingOptions shard;
    shard.num_shards = kShardCounts[seed % 4];
    shard.placement = kPlacements[seed % 3];
    shard.num_threads = (seed % 7 == 0) ? 2 : 0;
    auto sharded_or = CloudWalker::Shard(base, shard);
    ASSERT_TRUE(sharded_or.ok())
        << "seed " << seed << ": " << sharded_or.status().message();
    const auto sharded = std::move(sharded_or).value();

    Xoshiro256 rng(seed ^ 0xf0f0f0f0ull);
    for (int r = 0; r < 3; ++r) {
      const QueryRequest request = RandomRequest(rng, n, q);
      EXPECT_TRUE(
          BitIdentical(base->Execute(request), sharded->Execute(request)))
          << "seed " << seed << " kind " << static_cast<int>(request.kind)
          << " shards " << shard.num_shards;
    }
  }
}

}  // namespace
}  // namespace cloudwalker
