// Parameterized property sweeps: invariants that must hold for every graph
// family, size and parameter combination.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "core/cloudwalker.h"
#include "core/indexer.h"
#include "core/queries.h"
#include "graph/generators.h"
#include "graph/stats.h"

namespace cloudwalker {
namespace {

enum class Family { kCycle, kStar, kComplete, kErdosRenyi, kRmat, kBa };

std::string FamilyName(Family f) {
  switch (f) {
    case Family::kCycle:
      return "Cycle";
    case Family::kStar:
      return "Star";
    case Family::kComplete:
      return "Complete";
    case Family::kErdosRenyi:
      return "ErdosRenyi";
    case Family::kRmat:
      return "Rmat";
    case Family::kBa:
      return "BarabasiAlbert";
  }
  return "?";
}

Graph MakeGraph(Family f, NodeId n, uint64_t seed) {
  switch (f) {
    case Family::kCycle:
      return GenerateCycle(n);
    case Family::kStar:
      return GenerateStarInward(n);
    case Family::kComplete:
      return GenerateComplete(std::min<NodeId>(n, 40));
    case Family::kErdosRenyi:
      return GenerateErdosRenyi(n, n * 8, seed);
    case Family::kRmat:
      return GenerateRmat(n, n * 8, seed);
    case Family::kBa:
      return GenerateBarabasiAlbert(n, 4, seed);
  }
  return Graph();
}

using GraphParam = std::tuple<Family, NodeId>;

class GraphFamilyTest : public ::testing::TestWithParam<GraphParam> {
 protected:
  Graph MakeParamGraph() const {
    const auto [family, n] = GetParam();
    return MakeGraph(family, n, /*seed=*/99);
  }
};

TEST_P(GraphFamilyTest, CsrWellFormed) {
  const Graph g = MakeParamGraph();
  uint64_t in_sum = 0, out_sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    in_sum += g.InDegree(v);
    out_sum += g.OutDegree(v);
    const auto out = g.OutNeighbors(v);
    for (size_t i = 1; i < out.size(); ++i) {
      ASSERT_LT(out[i - 1], out[i]);  // sorted, no duplicates
    }
    for (NodeId t : out) {
      ASSERT_LT(t, g.num_nodes());
      ASSERT_NE(t, v);  // no self loops by default
    }
  }
  EXPECT_EQ(in_sum, g.num_edges());
  EXPECT_EQ(out_sum, g.num_edges());
}

TEST_P(GraphFamilyTest, WalkDistributionsAreSubStochastic) {
  const Graph g = MakeParamGraph();
  WalkConfig cfg;
  cfg.num_steps = 6;
  cfg.num_walkers = 50;
  for (NodeId s : {NodeId{0}, static_cast<NodeId>(g.num_nodes() / 2),
                   static_cast<NodeId>(g.num_nodes() - 1)}) {
    const WalkDistributions d = SimulateWalkDistributions(g, s, cfg);
    double prev_mass = 2.0;
    for (const SparseVector& level : d.levels) {
      const double mass = level.Sum();
      EXPECT_LE(mass, 1.0 + 1e-9);
      EXPECT_GE(mass, 0.0);
      EXPECT_LE(mass, prev_mass + 1e-9);  // mass can only die, never grow
      prev_mass = mass;
      for (const SparseEntry& e : level) {
        EXPECT_GT(e.value, 0.0);
        EXPECT_LT(e.index, g.num_nodes());
      }
    }
  }
}

TEST_P(GraphFamilyTest, IndexDiagonalBounded) {
  const Graph g = MakeParamGraph();
  IndexingOptions o;
  o.num_walkers = 100;
  o.seed = 3;
  auto idx = BuildDiagonalIndex(g, o, nullptr);
  ASSERT_TRUE(idx.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE((*idx)[v], -0.5) << FamilyName(std::get<0>(GetParam()));
    EXPECT_LE((*idx)[v], 1.0 + 1e-9);
    // Dangling nodes solve trivially to exactly 1.
    if (g.InDegree(v) == 0) {
      EXPECT_DOUBLE_EQ((*idx)[v], 1.0);
    }
  }
}

TEST_P(GraphFamilyTest, PairQueryInvariants) {
  const Graph g = MakeParamGraph();
  IndexingOptions o;
  o.num_walkers = 100;
  auto idx = BuildDiagonalIndex(g, o, nullptr);
  ASSERT_TRUE(idx.ok());
  QueryOptions q;
  q.num_walkers = 500;
  const NodeId a = 0;
  const NodeId b = static_cast<NodeId>(g.num_nodes() / 2);
  // Self-similarity, symmetry, determinism.
  EXPECT_DOUBLE_EQ(SinglePairQuery(g, *idx, a, a, q), 1.0);
  const double ab = SinglePairQuery(g, *idx, a, b, q);
  EXPECT_DOUBLE_EQ(ab, SinglePairQuery(g, *idx, b, a, q));
  EXPECT_DOUBLE_EQ(ab, SinglePairQuery(g, *idx, a, b, q));
  EXPECT_GE(ab, 0.0);
}

TEST_P(GraphFamilyTest, FacadeClampsAndValidates) {
  const Graph g = MakeParamGraph();
  IndexingOptions o;
  o.num_walkers = 60;
  auto cw = CloudWalker::Build(&g, o);
  ASSERT_TRUE(cw.ok());
  QueryOptions q;
  q.num_walkers = 300;
  const QueryResponse ss =
      cw->Execute(QueryRequest::SingleSource(0).WithOptions(q));
  ASSERT_TRUE(ss.ok());
  for (const SparseEntry& e : *ss.scores()) {
    EXPECT_GE(e.value, 0.0);
    EXPECT_LE(e.value, 1.0);
  }
  EXPECT_FALSE(
      cw->Execute(QueryRequest::Pair(0, g.num_nodes()).WithOptions(q)).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Families, GraphFamilyTest,
    ::testing::Combine(::testing::Values(Family::kCycle, Family::kStar,
                                         Family::kComplete,
                                         Family::kErdosRenyi, Family::kRmat,
                                         Family::kBa),
                       ::testing::Values(NodeId{16}, NodeId{128},
                                         NodeId{512})),
    [](const ::testing::TestParamInfo<GraphParam>& info) {
      return FamilyName(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// Parameter-sweep properties of the indexing options.
class IndexParamTest
    : public ::testing::TestWithParam<std::tuple<double, uint32_t>> {};

TEST_P(IndexParamTest, DiagonalRespondsToDecayAndSteps) {
  const auto [decay, steps] = GetParam();
  const Graph g = GenerateRmat(100, 800, 5);
  IndexingOptions o;
  o.params.decay = decay;
  o.params.num_steps = steps;
  o.num_walkers = 100;
  auto idx = BuildDiagonalIndex(g, o, nullptr);
  ASSERT_TRUE(idx.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE((*idx)[v], 1.0 + 1e-9);
    EXPECT_GE((*idx)[v], 1.0 - decay - 0.6);  // loose sanity band
  }
}

INSTANTIATE_TEST_SUITE_P(
    DecayAndSteps, IndexParamTest,
    ::testing::Combine(::testing::Values(0.2, 0.4, 0.6, 0.8),
                       ::testing::Values(1u, 3u, 10u)),
    [](const ::testing::TestParamInfo<std::tuple<double, uint32_t>>& info) {
      std::string name = "c";
      name += std::to_string(static_cast<int>(std::get<0>(info.param) * 10));
      name += "_T";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// Push pruning sweep: unpruned (0), the default (0.03) and fully pruned
// (1e3: every push moves nothing, and the answer is the source's own
// term) obey the same invariants.
class QueryParamTest : public ::testing::TestWithParam<double> {};

TEST_P(QueryParamTest, SingleSourceInvariants) {
  const Graph g = GenerateRmat(150, 1200, 6);
  IndexingOptions io;
  io.num_walkers = 150;
  auto idx = BuildDiagonalIndex(g, io, nullptr);
  ASSERT_TRUE(idx.ok());
  QueryOptions q;
  q.num_walkers = 1000;
  q.prune_threshold = GetParam();
  QueryStats stats;
  const SparseVector s = SingleSourceQuery(g, *idx, 4, q, &stats);
  EXPECT_GT(stats.walk_steps, 0u);
  for (const SparseEntry& e : s) {
    EXPECT_LT(e.index, g.num_nodes());
    EXPECT_GE(e.value, 0.0);  // all mass and weights are non-negative
  }
  // Determinism for identical options.
  const SparseVector s2 = SingleSourceQuery(g, *idx, 4, q);
  ASSERT_EQ(s.size(), s2.size());
  for (size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], s2[i]);
}

INSTANTIATE_TEST_SUITE_P(
    PruneThresholds, QueryParamTest, ::testing::Values(0.0, 0.03, 1e3),
    [](const ::testing::TestParamInfo<double>& info) {
      if (info.param == 0.0) return std::string("Unpruned");
      if (info.param == 1e3) return std::string("FullyPruned");
      return std::string("Default");
    });

}  // namespace
}  // namespace cloudwalker
