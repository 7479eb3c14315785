// Backend-level bit-identity of the in-process sharded BSP walk engine
// (DESIGN.md section 11): for every walk program, every shard count, and
// every placement, ShardedWalkEngine must reproduce
// the single-node kernel's aggregated distributions *exactly* — plus the
// walker-exchange edge cases (empty shards, total emigration, cooperative
// stop mid-job) and the ShardPlan structural invariants.

#include "shard/sharded_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "engine/walk.h"
#include "engine/walk_program.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "shard/sharding.h"

namespace cloudwalker {
namespace {

constexpr int kShardCounts[] = {1, 2, 3, 8};

WalkConfig TestConfig(uint32_t batch_width = 256) {
  WalkConfig cfg;
  cfg.num_steps = 6;
  cfg.num_walkers = 300;
  cfg.seed = 77;
  cfg.batch_width = batch_width;
  return cfg;
}

std::shared_ptr<const ShardedWalkEngine> MakeEngine(
    const Graph& graph, int num_shards,
    ShardingOptions::Placement placement = ShardingOptions::Placement::kAuto,
    int num_threads = 0) {
  ShardingOptions opts;
  opts.num_shards = num_shards;
  opts.placement = placement;
  opts.num_threads = num_threads;
  auto engine =
      ShardedWalkEngine::Build(graph, /*context_or_null=*/nullptr, opts);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  return std::move(engine).value();
}

void ExpectSameVector(const SparseVector& a, const SparseVector& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " entry " << i;
  }
}

void ExpectSameDistributions(const WalkDistributions& a,
                             const WalkDistributions& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_levels(), b.num_levels()) << what;
  for (size_t t = 0; t < a.num_levels(); ++t) {
    ExpectSameVector(a.levels[t], b.levels[t],
                     what + " level " + std::to_string(t));
  }
}

// The tentpole matrix: program x shard count x placement, against the
// single-node kernel at several batch widths (batch
// width is a single-node scheduling knob; the sharded engine must match
// them all because they are all bit-identical to each other).

TEST(ShardedEngineTest, SimRankLevelsMatchSingleNodeAcrossMatrix) {
  const Graph g = GenerateRmat(400, 3200, /*seed=*/5);
  for (const uint32_t width : {1u, 32u, 256u}) {
    const WalkConfig cfg = TestConfig(width);
    for (const NodeId source : {0u, 17u, 399u}) {
      const WalkDistributions single =
          SimulateWalkDistributions(g, source, cfg);
      for (const int shards : kShardCounts) {
        for (const auto placement : {ShardingOptions::Placement::kAuto,
                                     ShardingOptions::Placement::kHash,
                                     ShardingOptions::Placement::kRange}) {
          const auto engine = MakeEngine(g, shards, placement);
          const WalkDistributions sharded =
              engine->SimRankLevels(source, cfg, nullptr);
          ExpectSameDistributions(
              single, sharded,
              "source " + std::to_string(source) + " shards " +
                  std::to_string(shards) + " placement " +
                  std::to_string(static_cast<int>(placement)) + " width " +
                  std::to_string(width));
        }
      }
    }
  }
}

TEST(ShardedEngineTest, PprEndpointsMatchSingleNodeAcrossMatrix) {
  const Graph g = GenerateRmat(400, 3200, /*seed=*/5);
  const WalkConfig cfg = TestConfig();
  PprParams params;
  for (const double alpha : {0.5, 0.85}) {
    params.alpha = alpha;
    for (const NodeId source : {3u, 211u}) {
      const SparseVector single =
          SimulatePprEndpoints(g, source, cfg, params);
      for (const int shards : kShardCounts) {
        const auto engine = MakeEngine(g, shards);
        const SparseVector sharded =
            engine->PprEndpoints(source, cfg, params, nullptr);
        ExpectSameVector(single, sharded,
                         "alpha " + std::to_string(alpha) + " source " +
                             std::to_string(source) + " shards " +
                             std::to_string(shards));
      }
    }
  }
}

TEST(ShardedEngineTest, Node2VecLevelsMatchSingleNodeAcrossMatrix) {
  const Graph g = GenerateRmat(300, 2400, /*seed=*/11);
  WalkConfig cfg = TestConfig();
  cfg.num_walkers = 200;
  // Biased, the default p = q = 1, and q = 1: only the biased walk reads
  // In(prev), so only it fetches rows from other shards.
  const std::pair<double, double> settings[] = {
      {0.5, 2.0}, {1.0, 1.0}, {2.0, 1.0}};
  uint64_t biased_fetches = 0;
  for (const auto& [p, q] : settings) {
    Node2VecParams params;
    params.return_p = p;
    params.in_out_q = q;
    for (const NodeId source : {1u, 120u, 299u}) {
      const WalkDistributions single =
          SimulateNode2VecVisits(g, nullptr, source, cfg, params);
      for (const int shards : kShardCounts) {
        const auto engine = MakeEngine(g, shards);
        const WalkDistributions sharded =
            engine->Node2VecLevels(source, cfg, params, nullptr);
        const std::string what =
            "p " + std::to_string(p) + " q " + std::to_string(q) +
            " source " + std::to_string(source) + " shards " +
            std::to_string(shards);
        ExpectSameDistributions(single, sharded, what);
        const uint64_t fetches = engine->exchange_stats().remote_row_fetches;
        if (q == 1.0) {
          EXPECT_EQ(fetches, 0u) << what;
        } else {
          biased_fetches += fetches;
        }
      }
    }
  }
  EXPECT_GT(biased_fetches, 0u);
}

TEST(ShardedEngineTest, SelfLoopDanglingPolicyMatchesSingleNode) {
  // A star pulls every walker into the dangling hub by step 1; both
  // dangling policies must shard identically.
  const Graph g = GenerateStarInward(64);
  for (const DanglingPolicy policy :
       {DanglingPolicy::kDie, DanglingPolicy::kSelfLoop}) {
    WalkConfig cfg = TestConfig();
    cfg.dangling = policy;
    const WalkDistributions single =
        SimulateWalkDistributions(g, 5, cfg);
    for (const int shards : kShardCounts) {
      const auto engine = MakeEngine(g, shards);
      ExpectSameDistributions(
          single, engine->SimRankLevels(5, cfg, nullptr),
          "policy " + std::to_string(static_cast<int>(policy)) +
              " shards " + std::to_string(shards));
    }
  }
}

TEST(ShardedEngineTest, ThreadedSuperstepsBitIdentical) {
  const Graph g = GenerateRmat(300, 2400, /*seed=*/8);
  const WalkConfig cfg = TestConfig();
  const auto serial = MakeEngine(g, 4);
  const auto threaded = MakeEngine(g, 4, ShardingOptions::Placement::kAuto,
                                   /*num_threads=*/3);
  PprParams ppr;
  Node2VecParams n2v;
  for (const NodeId source : {0u, 150u, 299u}) {
    ExpectSameDistributions(serial->SimRankLevels(source, cfg, nullptr),
                            threaded->SimRankLevels(source, cfg, nullptr),
                            "simrank source " + std::to_string(source));
    ExpectSameVector(serial->PprEndpoints(source, cfg, ppr, nullptr),
                     threaded->PprEndpoints(source, cfg, ppr, nullptr),
                     "ppr source " + std::to_string(source));
    ExpectSameDistributions(
        serial->Node2VecLevels(source, cfg, n2v, nullptr),
        threaded->Node2VecLevels(source, cfg, n2v, nullptr),
        "n2v source " + std::to_string(source));
  }
}

// --- Walker-exchange edge cases ---

TEST(ShardedEngineTest, EmptyShardsNeverReceiveWalkers) {
  // Range placement with more shards than nodes leaves trailing shards
  // empty; the exchange must simply never route anything to them.
  const Graph g = GenerateCycle(5);
  const auto engine = MakeEngine(g, 8, ShardingOptions::Placement::kRange);
  int empty = 0;
  for (int s = 0; s < engine->num_shards(); ++s) {
    if (engine->plan().slice(s).nodes.empty()) ++empty;
  }
  EXPECT_GT(empty, 0);
  const WalkConfig cfg = TestConfig();
  ExpectSameDistributions(SimulateWalkDistributions(g, 2, cfg),
                          engine->SimRankLevels(2, cfg, nullptr),
                          "cycle with empty shards");
}

TEST(ShardedEngineTest, AllWalkersEmigrateEverySuperstep) {
  // Two nodes, one per range shard, edges only across: every alive walker
  // crosses the boundary at every level, so the exchange carries the full
  // population each superstep.
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  auto built = b.Build();
  ASSERT_TRUE(built.ok());
  const Graph g = std::move(built).value();
  const auto engine = MakeEngine(g, 2, ShardingOptions::Placement::kRange);
  ASSERT_NE(engine->plan().Owner(0), engine->plan().Owner(1));

  WalkConfig cfg = TestConfig();
  cfg.num_walkers = 128;
  WalkStats stats;
  const WalkDistributions sharded = engine->SimRankLevels(0, cfg, &stats);
  EXPECT_EQ(stats.steps, uint64_t{128} * cfg.num_steps);
  EXPECT_EQ(stats.partition_crossings, stats.steps);
  const ShardExchangeStats ex = engine->exchange_stats();
  EXPECT_EQ(ex.supersteps, cfg.num_steps);
  EXPECT_EQ(ex.walkers_exchanged, stats.steps);
  ExpectSameDistributions(SimulateWalkDistributions(g, 0, cfg),
                          sharded, "total emigration");
}

TEST(ShardedEngineTest, CancelledJobTruncatesLikeSingleNode) {
  const Graph g = GenerateRmat(200, 1600, /*seed=*/2);
  CancelToken cancel;
  cancel.Cancel();
  WalkConfig cfg = TestConfig();
  cfg.cancel = &cancel;
  const auto engine = MakeEngine(g, 3);
  const WalkDistributions sharded = engine->SimRankLevels(9, cfg, nullptr);
  // A pre-stopped job still reports T + 1 levels, but only level 0 (the
  // source) is populated — the same truncated shape the single-node
  // kernel returns, which the caller discards after observing the token.
  ASSERT_EQ(sharded.num_levels(), cfg.num_steps + 1u);
  EXPECT_EQ(sharded.levels[0].size(), 1u);
  for (size_t t = 1; t < sharded.num_levels(); ++t) {
    EXPECT_TRUE(sharded.levels[t].empty()) << "level " << t;
  }
  ExpectSameDistributions(SimulateWalkDistributions(g, 9, cfg),
                          sharded, "pre-cancelled");
}

TEST(ShardedEngineTest, ExpiredDeadlineStopsSupersteps) {
  const Graph g = GenerateRmat(200, 1600, /*seed=*/2);
  CancelToken deadline;
  deadline.SetDeadline(1e-9);
  while (!deadline.ShouldStop()) {
  }
  WalkConfig cfg = TestConfig();
  cfg.cancel = &deadline;
  const auto engine = MakeEngine(g, 2);
  const uint64_t before = engine->exchange_stats().supersteps;
  const SparseVector endpoints =
      engine->PprEndpoints(9, cfg, PprParams{}, nullptr);
  EXPECT_EQ(engine->exchange_stats().supersteps, before);
  EXPECT_TRUE(deadline.ShouldStop());
  ExpectSameVector(SimulatePprEndpoints(g, 9, cfg, PprParams{}),
                   endpoints, "expired deadline");
}

TEST(ShardedEngineTest, BuildRejectsInvalidShardCounts) {
  const Graph g = GenerateCycle(8);
  ShardingOptions opts;
  opts.num_shards = 0;
  EXPECT_FALSE(ShardedWalkEngine::Build(g, nullptr, opts).ok());
  opts.num_shards = -3;
  EXPECT_FALSE(ShardedWalkEngine::Build(g, nullptr, opts).ok());
}

// --- ShardPlan structural invariants ---

TEST(ShardPlanTest, SlicesPartitionTheNodeSpace) {
  const Graph g = GenerateRmat(257, 2000, /*seed=*/13);
  for (const int shards : kShardCounts) {
    for (const auto placement : {ShardingOptions::Placement::kHash,
                                 ShardingOptions::Placement::kRange}) {
      ShardingOptions opts;
      opts.num_shards = shards;
      opts.placement = placement;
      const ShardPlan plan = ShardPlan::Build(g, opts);
      std::vector<int> seen(g.num_nodes(), 0);
      uint64_t edges = 0;
      for (int s = 0; s < plan.num_shards(); ++s) {
        const ShardSlice& sl = plan.slice(s);
        ASSERT_EQ(sl.offsets.size(), sl.nodes.size() + 1);
        edges += sl.num_edges();
        for (uint32_t r = 0; r < sl.nodes.size(); ++r) {
          const NodeId v = sl.nodes[r];
          ++seen[v];
          EXPECT_EQ(plan.Owner(v), s);
          EXPECT_EQ(plan.LocalRow(v), r);
          ASSERT_EQ(sl.RowDegree(r), g.InDegree(v));
          const auto row = sl.Row(r);
          const auto expect = g.InNeighbors(v);
          for (size_t i = 0; i < row.size(); ++i) {
            EXPECT_EQ(row[i], expect[i]);
          }
        }
      }
      for (const int count : seen) EXPECT_EQ(count, 1);
      EXPECT_EQ(edges, g.num_edges());
    }
  }
}

TEST(ShardPlanTest, InRowFlagsRemoteFetches) {
  const Graph g = GenerateCycle(6);
  ShardingOptions opts;
  opts.num_shards = 3;
  opts.placement = ShardingOptions::Placement::kRange;
  const ShardPlan plan = ShardPlan::Build(g, opts);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int owner = plan.Owner(v);
    bool remote = true;
    const auto own_row = plan.InRow(v, owner, &remote);
    EXPECT_FALSE(remote);
    EXPECT_EQ(own_row.size(), g.InDegree(v));
    bool remote2 = false;
    plan.InRow(v, (owner + 1) % plan.num_shards(), &remote2);
    EXPECT_TRUE(remote2);
  }
}

TEST(ShardPlanTest, AutoPlacementPicksTheCheaperScore) {
  // Range partitioning keeps a cycle's neighbors co-located; hash scatters
  // them. Auto must agree with whichever Score() says is cheaper, and the
  // chosen score can never be worse than the alternative.
  const Graph g = GenerateCycle(512);
  ShardingOptions opts;
  opts.num_shards = 4;
  const ShardPlan plan = ShardPlan::Build(g, opts);
  EXPECT_LE(plan.chosen_score().superstep_seconds,
            plan.other_score().superstep_seconds);
  const PlacementScore hash = ShardPlan::Score(
      g, PartitionStrategy::kHash, opts.num_shards, opts.cost_model);
  const PlacementScore range = ShardPlan::Score(
      g, PartitionStrategy::kRange, opts.num_shards, opts.cost_model);
  EXPECT_LT(range.crossing_edges, hash.crossing_edges);
  EXPECT_EQ(plan.strategy(), range.superstep_seconds < hash.superstep_seconds
                                 ? PartitionStrategy::kRange
                                 : PartitionStrategy::kHash);
}

}  // namespace
}  // namespace cloudwalker
