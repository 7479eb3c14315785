// Determinism contract of the batched walk kernel (DESIGN.md section 8):
// bit-identical distributions across batch widths and scratch reuse, and
// every move is the canonical in-row pick. Thread counts are covered by
// the ParallelWalkExecutor matrices (tests/engine/parallel_walk_test.cc).

#include "engine/walk.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/generators.h"

namespace cloudwalker {
namespace {

void ExpectSameDistributions(const WalkDistributions& a,
                             const WalkDistributions& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_levels(), b.num_levels()) << what;
  for (size_t t = 0; t < a.num_levels(); ++t) {
    ASSERT_EQ(a.levels[t].size(), b.levels[t].size())
        << what << " level " << t;
    for (size_t k = 0; k < a.levels[t].size(); ++k) {
      EXPECT_EQ(a.levels[t][k], b.levels[t][k])
          << what << " level " << t << " entry " << k;
    }
  }
}

WalkConfig TestConfig(uint32_t batch_width = 256) {
  WalkConfig cfg;
  cfg.num_steps = 6;
  cfg.num_walkers = 300;
  cfg.seed = 77;
  cfg.batch_width = batch_width;
  return cfg;
}

TEST(BatchedWalkTest, FirstStepIsTheCanonicalInRowPick) {
  // Walker w's first move from s is in_targets[in_offsets[s] + slot] with
  // slot = PickSlot(CounterRandom(DeriveSeed(seed, s), w << 32 | 1), deg)
  // — the pick every backend (shards, workers, out-of-core) reproduces.
  const Graph g = GenerateRmat(512, 4096, /*seed=*/3);
  const WalkConfig cfg = TestConfig();
  for (NodeId source : {0u, 17u, 300u, 511u}) {
    const uint32_t deg = g.InDegree(source);
    if (deg == 0) continue;
    std::vector<uint32_t> count(g.num_nodes(), 0);
    const uint64_t key = DeriveSeed(cfg.seed, source);
    for (uint64_t w = 0; w < cfg.num_walkers; ++w) {
      const uint64_t raw = CounterRandom(key, (w << 32) | 1);
      ++count[g.InNeighbor(source, PickSlot(raw, deg))];
    }
    const WalkDistributions d = SimulateWalkDistributions(g, source, cfg);
    size_t k = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (count[v] == 0) continue;
      ASSERT_LT(k, d.levels[1].size()) << "source " << source;
      EXPECT_EQ(d.levels[1][k].index, v) << "source " << source;
      EXPECT_EQ(d.levels[1][k].value,
                count[v] * (1.0 / static_cast<double>(cfg.num_walkers)))
          << "source " << source;
      ++k;
    }
    EXPECT_EQ(k, d.levels[1].size()) << "source " << source;
  }
}

TEST(BatchedWalkTest, BitIdenticalAcrossBatchWidths) {
  const Graph g = GenerateRmat(1024, 8192, /*seed=*/4);
  const WalkDistributions narrow =
      SimulateWalkDistributions(g, 42, TestConfig(/*batch_width=*/1));
  for (uint32_t width : {3u, 64u, 256u, 100000u /* clamped */}) {
    const WalkDistributions wide =
        SimulateWalkDistributions(g, 42, TestConfig(width));
    ExpectSameDistributions(narrow, wide, "W=" + std::to_string(width));
  }
}

TEST(BatchedWalkTest, ScratchReuseDoesNotChangeResults) {
  const Graph g = GenerateRmat(512, 4096, /*seed=*/6);
  const WalkConfig cfg = TestConfig();
  WalkScratch scratch(cfg.num_walkers);
  for (NodeId source : {9u, 10u, 11u}) {
    const WalkDistributions reused =
        SimulateWalkDistributions(g, source, cfg, &scratch);
    const WalkDistributions fresh =
        SimulateWalkDistributions(g, source, cfg);
    ExpectSameDistributions(reused, fresh,
                            "source " + std::to_string(source));
  }
}

TEST(BatchedWalkTest, MassConservedOnDanglingFreeGraph) {
  const Graph g = GenerateErdosRenyi(200, 4000, /*seed=*/7);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_GT(g.InDegree(v), 0u) << "need no dangling nodes";
  }
  const WalkDistributions d = SimulateWalkDistributions(g, 0, TestConfig());
  for (size_t t = 0; t < d.num_levels(); ++t) {
    EXPECT_NEAR(d.levels[t].Sum(), 1.0, 1e-9) << "level " << t;
  }
}

TEST(BatchedWalkTest, DanglingPolicies) {
  const Graph g = GeneratePath(4);  // node 0 has no in-neighbors
  WalkConfig cfg = TestConfig();
  cfg.num_steps = 5;

  const WalkDistributions die = SimulateWalkDistributions(g, 3, cfg);
  EXPECT_DOUBLE_EQ(die.levels[3].Sum(), 1.0);
  EXPECT_EQ(die.levels[3][0].index, 0u);
  EXPECT_DOUBLE_EQ(die.levels[4].Sum(), 0.0);

  cfg.dangling = DanglingPolicy::kSelfLoop;
  const WalkDistributions park = SimulateWalkDistributions(g, 3, cfg);
  EXPECT_NEAR(park.levels[5].Sum(), 1.0, 1e-9);
  EXPECT_EQ(park.levels[5][0].index, 0u);
}

TEST(BatchedWalkTest, StatsCountStepsAndCrossings) {
  const Graph g = GenerateCycle(6);
  WalkConfig cfg;
  cfg.num_steps = 4;
  cfg.num_walkers = 10;
  const NodeOwnerFn owner = [](NodeId v) { return static_cast<int>(v % 2); };

  WalkStats stats;
  SimulateWalkDistributions(g, 0, cfg, nullptr, &owner, &stats);
  EXPECT_EQ(stats.steps, 40u);  // no deaths on a cycle
  // Every cycle step flips node parity, so every step crosses.
  EXPECT_EQ(stats.partition_crossings, 40u);
}

TEST(BatchedWalkTest, WorkerStateIsPaddedToCacheLines) {
  // The false-sharing fix: per-worker kernel state occupies whole cache
  // lines, so arrays of worker states can never share one.
  static_assert(alignof(WalkScratch) >= kCacheLineBytes);
  static_assert(sizeof(WalkScratch) % kCacheLineBytes == 0);
  static_assert(alignof(WalkWorkerState) >= kCacheLineBytes);
  static_assert(sizeof(WalkWorkerState) % kCacheLineBytes == 0);
  std::vector<WalkWorkerState> states(3);
  for (const WalkWorkerState& s : states) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&s) % kCacheLineBytes, 0u);
  }
}

}  // namespace
}  // namespace cloudwalker
