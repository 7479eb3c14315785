// Determinism and distribution contracts of the non-SimRank walk programs
// (DESIGN.md section 10): personalized PageRank endpoints and second-order
// node2vec visits must be bit-identical across batch widths and scratch
// reuse — and, for node2vec, across a renumbering whose in-rows are sorted
// by external id — and must conserve the walker mass their semantics
// promise.

#include "engine/walk_program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "ooc/reorder.h"

namespace cloudwalker {
namespace {

WalkConfig TestConfig(uint32_t batch_width = 256) {
  WalkConfig cfg;
  cfg.num_steps = 6;
  cfg.num_walkers = 400;
  cfg.seed = 77;
  cfg.batch_width = batch_width;
  return cfg;
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

double Mass(const SparseVector& v) {
  double total = 0.0;
  for (const SparseEntry& e : v) total += e.value;
  return total;
}

TEST(PprProgramTest, BitIdenticalAcrossBatchWidthsAndScratchReuse) {
  const Graph g = GenerateRmat(1024, 8192, /*seed=*/4);
  PprParams params;
  const SparseVector narrow = SimulatePprEndpoints(
      g, 42, TestConfig(/*batch_width=*/1), params);
  WalkScratch scratch;
  for (uint32_t width : {3u, 64u, 256u, 100000u /* clamped */}) {
    const SparseVector wide = SimulatePprEndpoints(
        g, 42, TestConfig(width), params, &scratch);
    ExpectSameVector(narrow, wide, "width " + std::to_string(width));
  }
}

TEST(PprProgramTest, EndpointMassIsOneWithoutDanglingNodes) {
  // A cycle has no dangling nodes, so no walker ever dies: every walker
  // contributes exactly one endpoint and the distribution sums to 1.
  const Graph g = GenerateCycle(64);
  const WalkConfig cfg = TestConfig();
  PprParams params;
  const SparseVector endpoints =
      SimulatePprEndpoints(g, 5, cfg, params);
  EXPECT_NEAR(Mass(endpoints), 1.0, 1e-12);
}

TEST(PprProgramTest, SmallAlphaConcentratesMassAtTheSource) {
  // With alpha -> 0 nearly every walker stops before its first move, so
  // nearly all endpoint mass sits on the source itself.
  const Graph g = GenerateRmat(256, 2048, /*seed=*/9);
  WalkConfig cfg = TestConfig();
  cfg.num_walkers = 2000;
  PprParams params;
  params.alpha = 0.05;
  const SparseVector endpoints =
      SimulatePprEndpoints(g, 7, cfg, params);
  EXPECT_GT(endpoints.Get(7), 0.85);
}

TEST(PprProgramTest, DifferentAlphaDifferentDistribution) {
  const Graph g = GenerateRmat(256, 2048, /*seed=*/9);
  const WalkConfig cfg = TestConfig();
  PprParams low, high;
  low.alpha = 0.2;
  high.alpha = 0.95;
  const SparseVector a = SimulatePprEndpoints(g, 7, cfg, low);
  const SparseVector b = SimulatePprEndpoints(g, 7, cfg, high);
  EXPECT_GT(a.Get(7), b.Get(7));
}

// Maps every level of a walk on a renumbered graph back to external ids.
WalkDistributions ToExternal(const WalkDistributions& internal,
                             const std::vector<NodeId>& perm) {
  WalkDistributions out;
  for (const SparseVector& level : internal.levels) {
    std::vector<SparseEntry> entries;
    for (const SparseEntry& e : level) {
      entries.push_back(SparseEntry{perm[e.index], e.value});
    }
    std::sort(entries.begin(), entries.end(),
              [](const SparseEntry& a, const SparseEntry& b) {
                return a.index < b.index;
              });
    out.levels.push_back(SparseVector::FromSorted(std::move(entries)));
  }
  return out;
}

TEST(Node2VecProgramTest, ExternalIdRowOrderReproducesTheOriginalGraph) {
  // A locality renumbering stores every in-row sorted by external id, so
  // a draw picks the same external node; with the permutation in the
  // context, the membership test searches those rows correctly and the
  // walk matches the original graph's exactly.
  const Graph g = GenerateRmat(300, 2400, /*seed=*/3);
  const std::vector<double> diagonal(g.num_nodes(), 0.5);
  auto art = ReorderForLocality(g, diagonal, ReorderKind::kBfs);
  ASSERT_TRUE(art.ok()) << art.status().ToString();
  std::vector<NodeId> to_internal(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) to_internal[art->perm[u]] = u;
  const WalkContext ctx(art->graph, art->perm);
  Node2VecParams params;
  params.return_p = 0.5;
  params.in_out_q = 2.0;
  bool order_mattered = false;
  for (NodeId source : {0u, 17u, 150u, 299u}) {
    const WalkDistributions original =
        SimulateNode2VecVisits(g, nullptr, source, TestConfig(), params);
    WalkConfig keyed = TestConfig();
    const WalkDistributions renumbered = SimulateNode2VecVisits(
        art->graph, &ctx, to_internal[source], keyed, params);
    ExpectSameDistributions(original, ToExternal(renumbered, art->perm),
                            "source " + std::to_string(source));
    // Without the permutation the binary search runs on rows that are not
    // sorted by id and misclassifies candidates.
    const WalkDistributions unordered = SimulateNode2VecVisits(
        art->graph, nullptr, to_internal[source], keyed, params);
    const WalkDistributions mapped = ToExternal(unordered, art->perm);
    for (size_t t = 0; t < mapped.num_levels(); ++t) {
      order_mattered |=
          !std::equal(mapped.levels[t].begin(), mapped.levels[t].end(),
                      original.levels[t].begin(), original.levels[t].end());
    }
  }
  EXPECT_TRUE(order_mattered);
}

TEST(Node2VecProgramTest, BitIdenticalAcrossBatchWidthsAndScratchReuse) {
  const Graph g = GenerateRmat(1024, 8192, /*seed=*/4);
  const WalkContext ctx(g);
  Node2VecParams params;
  params.return_p = 0.25;
  params.in_out_q = 4.0;
  const WalkDistributions narrow = SimulateNode2VecVisits(
      g, &ctx, 42, TestConfig(/*batch_width=*/1), params);
  WalkScratch scratch;
  for (uint32_t width : {3u, 64u, 256u, 100000u /* clamped */}) {
    const WalkDistributions wide = SimulateNode2VecVisits(
        g, &ctx, 42, TestConfig(width), params, &scratch);
    ExpectSameDistributions(narrow, wide, "width " + std::to_string(width));
  }
}

TEST(Node2VecProgramTest, UnitParametersMatchTheCanonicalUniformWalk) {
  // p == q == 1 makes every acceptance certain, so the very first trial
  // draw decides each move — but via the trial channel, not the canonical
  // move stream, so only distributions (not trajectories) are comparable.
  // On a cycle both walks are the deterministic rotation, so the levels
  // must match SimRank's exactly.
  const Graph g = GenerateCycle(32);
  const WalkConfig cfg = TestConfig();
  const WalkDistributions n2v =
      SimulateNode2VecVisits(g, nullptr, 3, cfg, Node2VecParams{});
  const WalkDistributions simrank = SimulateWalkDistributions(g, 3, cfg);
  ExpectSameDistributions(n2v, simrank, "cycle");
}

TEST(Node2VecProgramTest, LevelMassIsOneWithoutDanglingNodes) {
  const Graph g = GenerateCycle(64);
  const WalkConfig cfg = TestConfig();
  Node2VecParams params;
  params.return_p = 0.5;
  const WalkDistributions dists =
      SimulateNode2VecVisits(g, nullptr, 8, cfg, params);
  for (size_t t = 0; t < dists.num_levels(); ++t) {
    EXPECT_NEAR(Mass(dists.levels[t]), 1.0, 1e-12) << "level " << t;
  }
}

TEST(Node2VecProgramTest, SmallReturnPKeepsWalkersOscillating) {
  // On an undirected-style graph (edges both ways), p << 1 makes the walk
  // bounce home: the level-2 distribution should put most of its mass
  // back on the source, far more than the uniform second-order walk does.
  const NodeId n = 64;
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v) {
    builder.AddEdge(v, (v + 1) % n);
    builder.AddEdge((v + 1) % n, v);
    builder.AddEdge(v, (v + 7) % n);
    builder.AddEdge((v + 7) % n, v);
  }
  const Graph g = std::move(builder.Build()).value();
  WalkConfig cfg = TestConfig();
  cfg.num_walkers = 4000;
  Node2VecParams returny, uniform;
  returny.return_p = 0.01;
  const WalkDistributions r =
      SimulateNode2VecVisits(g, nullptr, 9, cfg, returny);
  const WalkDistributions u =
      SimulateNode2VecVisits(g, nullptr, 9, cfg, uniform);
  EXPECT_GT(r.levels[2].Get(9), 0.8);
  EXPECT_GT(r.levels[2].Get(9), 2.0 * u.levels[2].Get(9));
}

TEST(Node2VecProgramTest, WalkersDieAtDanglingNodesUnderKDie) {
  // A star pointing at node 0 reversed: from 0 the walker moves to a leaf
  // (in-neighbors of 0), and every leaf has no in-neighbors, so all
  // walkers die on the second step.
  GraphBuilder builder(8);
  for (NodeId leaf = 1; leaf < 8; ++leaf) builder.AddEdge(leaf, 0);
  const Graph g = std::move(builder.Build()).value();
  WalkConfig cfg = TestConfig();
  const WalkDistributions dists =
      SimulateNode2VecVisits(g, nullptr, 0, cfg, Node2VecParams{});
  EXPECT_NEAR(Mass(dists.levels[1]), 1.0, 1e-12);
  EXPECT_EQ(dists.levels[2].size(), 0u);
}

TEST(Node2VecProgramTest, SelfLoopPolicyKeepsWalkersAlive) {
  GraphBuilder builder(8);
  for (NodeId leaf = 1; leaf < 8; ++leaf) builder.AddEdge(leaf, 0);
  const Graph g = std::move(builder.Build()).value();
  WalkConfig cfg = TestConfig();
  cfg.dangling = DanglingPolicy::kSelfLoop;
  const WalkDistributions dists =
      SimulateNode2VecVisits(g, nullptr, 0, cfg, Node2VecParams{});
  for (size_t t = 1; t < dists.num_levels(); ++t) {
    EXPECT_NEAR(Mass(dists.levels[t]), 1.0, 1e-12) << "level " << t;
  }
}

}  // namespace
}  // namespace cloudwalker
