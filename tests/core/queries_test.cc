#include "core/queries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "baselines/exact_simrank.h"
#include "common/radix_sort.h"
#include "core/indexer.h"
#include "engine/walk_program.h"
#include "graph/generators.h"
#include "mcss_reference.h"

namespace cloudwalker {
namespace {

// Shared fixture: a small R-MAT graph with a well-converged index.
class QueriesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(GenerateRmat(120, 840, /*seed=*/3));
    IndexingOptions o;
    o.num_walkers = 1500;
    o.jacobi_iterations = 6;
    o.seed = 4;
    ThreadPool pool(8);
    auto idx = BuildDiagonalIndex(*graph_, o, &pool);
    ASSERT_TRUE(idx.ok());
    index_ = new DiagonalIndex(std::move(idx).value());
    auto exact = ExactSimRank::Compute(*graph_);
    ASSERT_TRUE(exact.ok());
    exact_ = new ExactSimRank(std::move(exact).value());
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete index_;
    delete exact_;
    graph_ = nullptr;
    index_ = nullptr;
    exact_ = nullptr;
  }

  static QueryOptions BigQuery() {
    QueryOptions q;
    q.num_walkers = 20000;
    q.seed = 7;
    return q;
  }

  static Graph* graph_;
  static DiagonalIndex* index_;
  static ExactSimRank* exact_;
};

Graph* QueriesTest::graph_ = nullptr;
DiagonalIndex* QueriesTest::index_ = nullptr;
ExactSimRank* QueriesTest::exact_ = nullptr;

TEST_F(QueriesTest, SelfPairIsOne) {
  EXPECT_DOUBLE_EQ(SinglePairQuery(*graph_, *index_, 5, 5, BigQuery()), 1.0);
}

TEST_F(QueriesTest, WalkContextDoesNotChangeAnswers) {
  // A context without a permutation carries nothing but the graph:
  // queries through it must be bit-identical to passing none (this is what
  // lets the CloudWalker facade always pass its context).
  const QueryOptions q = BigQuery();
  const WalkContext ctx(*graph_);
  EXPECT_DOUBLE_EQ(
      SinglePairQuery(*graph_, *index_, 3, 97, q),
      SinglePairQuery(*graph_, *index_, 3, 97, q, nullptr, nullptr, &ctx));
  const SparseVector plain = SingleSourceQuery(*graph_, *index_, 12, q);
  const SparseVector with_ctx =
      SingleSourceQuery(*graph_, *index_, 12, q, nullptr, nullptr, &ctx);
  ASSERT_EQ(plain.size(), with_ctx.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], with_ctx[i]);
  }
}

TEST_F(QueriesTest, PairIsExactlySymmetric) {
  const QueryOptions q = BigQuery();
  for (auto [i, j] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {3, 97}, {40, 41}, {7, 119}}) {
    EXPECT_DOUBLE_EQ(SinglePairQuery(*graph_, *index_, i, j, q),
                     SinglePairQuery(*graph_, *index_, j, i, q));
  }
}

TEST_F(QueriesTest, PairDeterministicForSeed) {
  const QueryOptions q = BigQuery();
  EXPECT_DOUBLE_EQ(SinglePairQuery(*graph_, *index_, 2, 9, q),
                   SinglePairQuery(*graph_, *index_, 2, 9, q));
}

TEST_F(QueriesTest, PairMatchesExactSimRank) {
  const QueryOptions q = BigQuery();
  double max_err = 0.0;
  for (NodeId i = 0; i < 20; ++i) {
    for (NodeId j = i + 1; j < 20; ++j) {
      const double est = SinglePairQuery(*graph_, *index_, i, j, q);
      max_err = std::max(max_err,
                         std::fabs(est - exact_->Similarity(i, j)));
    }
  }
  EXPECT_LT(max_err, 0.06);
}

TEST_F(QueriesTest, PairStatsCountWalks) {
  QueryOptions q = BigQuery();
  q.num_walkers = 100;
  QueryStats stats;
  SinglePairQuery(*graph_, *index_, 0, 1, q, &stats);
  EXPECT_GT(stats.walk_steps, 0u);
  EXPECT_LE(stats.walk_steps,
            2ull * q.num_walkers * index_->params().num_steps);
}

TEST_F(QueriesTest, SingleSourceSelfEstimateNearOne) {
  // The diagonal estimate sums pushed mass landing exactly back on the
  // source; push unpruned so only walk noise and truncation remain.
  QueryOptions q = BigQuery();
  q.prune_threshold = 0.0;
  const SparseVector s = SingleSourceQuery(*graph_, *index_, 11, q);
  EXPECT_NEAR(s.Get(11), 1.0, 0.1);
}

TEST_F(QueriesTest, SingleSourceExactPushMatchesExactSimRank) {
  QueryOptions q = BigQuery();
  q.prune_threshold = 0.0;
  const NodeId src = 17;
  const SparseVector s = SingleSourceQuery(*graph_, *index_, src, q);
  double max_err = 0.0;
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    if (v == src) continue;
    max_err =
        std::max(max_err, std::fabs(s.Get(v) - exact_->Similarity(src, v)));
  }
  EXPECT_LT(max_err, 0.06);
}

TEST_F(QueriesTest, SingleSourceAgreesWithSinglePair) {
  // MCSS and MCSP estimate the same quantity; with the unpruned push and
  // the same walk seed the source's walk clouds coincide, so differences
  // are the noise of v's own walks, which the push computes exactly.
  QueryOptions q = BigQuery();
  q.prune_threshold = 0.0;
  const NodeId src = 31;
  const SparseVector ss = SingleSourceQuery(*graph_, *index_, src, q);
  for (NodeId v : {1u, 5u, 64u}) {
    const double sp = SinglePairQuery(*graph_, *index_, src, v, q);
    EXPECT_NEAR(ss.Get(v), sp, 0.05) << "node " << v;
  }
}

TEST_F(QueriesTest, SingleSourceStats) {
  QueryStats stats;
  SingleSourceQuery(*graph_, *index_, 3, BigQuery(), &stats);
  EXPECT_GT(stats.walk_steps, 0u);
  EXPECT_GT(stats.push_ops, 0u);
  EXPECT_EQ(stats.walk_crossings, 0u);  // no owner fn
}

TEST_F(QueriesTest, CrossingsCountedWithOwner) {
  const NodeOwnerFn owner = [](NodeId v) { return static_cast<int>(v % 3); };
  QueryStats stats;
  SingleSourceQuery(*graph_, *index_, 3, BigQuery(), &stats, &owner);
  EXPECT_GT(stats.walk_crossings, 0u);
  EXPECT_GT(stats.push_crossings, 0u);
}

TEST(QueriesStandaloneTest, DisconnectedNodesHaveZeroSimilarity) {
  // Two disjoint cycles: similarity across components must be ~0.
  GraphBuilder b(8);
  for (NodeId v = 0; v < 4; ++v) b.AddEdge(v, (v + 1) % 4);
  for (NodeId v = 4; v < 8; ++v) b.AddEdge(v, 4 + ((v - 4 + 1) % 4));
  const Graph g = std::move(b.Build()).value();
  IndexingOptions o;
  o.num_walkers = 200;
  auto idx = BuildDiagonalIndex(g, o, nullptr);
  ASSERT_TRUE(idx.ok());
  QueryOptions q;
  q.num_walkers = 2000;
  EXPECT_DOUBLE_EQ(SinglePairQuery(g, *idx, 0, 5, q), 0.0);
  const SparseVector ss = SingleSourceQuery(g, *idx, 0, q);
  for (NodeId v = 4; v < 8; ++v) EXPECT_DOUBLE_EQ(ss.Get(v), 0.0);
}

TEST(QueriesStandaloneTest, StarLeavesAreMaximallySimilar) {
  // All leaves of an outward star share the hub as their only in-neighbor:
  // s(leaf_a, leaf_b) = c exactly.
  GraphBuilder b(6);
  for (NodeId v = 1; v < 6; ++v) b.AddEdge(0, v);  // hub -> leaves
  const Graph g = std::move(b.Build()).value();
  IndexingOptions o;
  o.num_walkers = 500;
  o.jacobi_iterations = 5;
  auto idx = BuildDiagonalIndex(g, o, nullptr);
  ASSERT_TRUE(idx.ok());
  QueryOptions q;
  q.num_walkers = 20000;
  const double s = SinglePairQuery(g, *idx, 1, 2, q);
  EXPECT_NEAR(s, 0.6, 0.02);
}

TEST_F(QueriesTest, PairedEstimatorSelfIsOne) {
  EXPECT_DOUBLE_EQ(
      SinglePairQueryPaired(*graph_, *index_, 4, 4, BigQuery()), 1.0);
}

TEST_F(QueriesTest, PairedEstimatorSymmetric) {
  const QueryOptions q = BigQuery();
  for (auto [i, j] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {3, 97}, {40, 41}}) {
    EXPECT_DOUBLE_EQ(SinglePairQueryPaired(*graph_, *index_, i, j, q),
                     SinglePairQueryPaired(*graph_, *index_, j, i, q));
  }
}

TEST_F(QueriesTest, PairedEstimatorMatchesExactSimRank) {
  QueryOptions q = BigQuery();
  q.num_walkers = 50000;
  double max_err = 0.0;
  for (NodeId i = 0; i < 12; ++i) {
    for (NodeId j = i + 1; j < 12; ++j) {
      const double est = SinglePairQueryPaired(*graph_, *index_, i, j, q);
      max_err =
          std::max(max_err, std::fabs(est - exact_->Similarity(i, j)));
    }
  }
  EXPECT_LT(max_err, 0.08);
}

TEST_F(QueriesTest, PairedEstimatorCountsSteps) {
  QueryOptions q = BigQuery();
  q.num_walkers = 100;
  QueryStats stats;
  SinglePairQueryPaired(*graph_, *index_, 0, 1, q, &stats);
  EXPECT_GT(stats.walk_steps, 0u);
  EXPECT_LE(stats.walk_steps,
            2ull * q.num_walkers * index_->params().num_steps);
}

TEST_F(QueriesTest, EmpiricalEstimatorHasLowerVarianceThanPaired) {
  // DESIGN.md section 5.3: the distribution estimator intersects whole
  // walker clouds (R'^2 pairings) and should beat lockstep pairs at equal
  // walk cost. Compare sample variances across seeds.
  const NodeId i = 2, j = 9;
  double emp_sum = 0, emp_sq = 0, pair_sum = 0, pair_sq = 0;
  const int reps = 16;
  for (int r = 0; r < reps; ++r) {
    QueryOptions q;
    q.num_walkers = 500;
    q.seed = 40000 + r;
    const double e = SinglePairQuery(*graph_, *index_, i, j, q);
    const double p = SinglePairQueryPaired(*graph_, *index_, i, j, q);
    emp_sum += e;
    emp_sq += e * e;
    pair_sum += p;
    pair_sq += p * p;
  }
  const double emp_var = emp_sq / reps - (emp_sum / reps) * (emp_sum / reps);
  const double pair_var =
      pair_sq / reps - (pair_sum / reps) * (pair_sum / reps);
  EXPECT_LT(emp_var, pair_var);
}

TEST(TopKTest, OrdersByScoreThenId) {
  const SparseVector scores = SparseVector::FromSorted(
      {{0, 0.5}, {1, 0.9}, {2, 0.5}, {3, 0.1}, {4, 0.9}});
  const auto top = TopKFromSparse(scores, kInvalidNode, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 1u);
  EXPECT_EQ(top[1].node, 4u);
  EXPECT_EQ(top[2].node, 0u);  // ties broken by id
}

TEST(TopKTest, ExcludesRequestedNode) {
  const SparseVector scores =
      SparseVector::FromSorted({{0, 1.0}, {1, 0.5}});
  const auto top = TopKFromSparse(scores, 0, 5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].node, 1u);
}

TEST(TopKTest, KLargerThanEntries) {
  const SparseVector scores = SparseVector::FromSorted({{2, 0.3}});
  const auto top = TopKFromSparse(scores, kInvalidNode, 10);
  ASSERT_EQ(top.size(), 1u);
}

TEST(TopKTest, MatchesAFullSortOnTiedScoresAndKeepsNoSlack) {
  // Reference: the full-list partial_sort the bounded heap replaced.
  const auto reference = [](const SparseVector& scores, NodeId exclude,
                            size_t k) {
    std::vector<ScoredNode> all;
    for (const SparseEntry& e : scores) {
      if (e.index != exclude) all.push_back(ScoredNode{e.index, e.value});
    }
    const size_t keep = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                      [](const ScoredNode& a, const ScoredNode& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.node < b.node;
                      });
    all.resize(keep);
    return all;
  };
  std::mt19937 rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    // Few distinct scores, so most comparisons fall through to the id.
    std::vector<SparseEntry> entries;
    const uint32_t n = rng() % 300;
    for (uint32_t i = 0; i < n; ++i) {
      if (rng() % 3 != 0) entries.push_back({i, (rng() % 5) * 0.25});
    }
    const SparseVector scores = SparseVector::FromSorted(entries);
    const NodeId exclude = trial % 2 == 0 ? kInvalidNode : rng() % 300;
    for (const size_t k : {size_t{0}, size_t{1}, size_t{10}, size_t{500}}) {
      const std::vector<ScoredNode> top = TopKFromSparse(scores, exclude, k);
      EXPECT_EQ(top, reference(scores, exclude, k))
          << "trial " << trial << " k " << k;
      EXPECT_EQ(top.capacity(), top.size())
          << "trial " << trial << " k " << k;
    }
  }
}

// FNV-1a over the index and value bits of `v`, chained onto `h`.
uint64_t HashSparse(const SparseVector& v, uint64_t h = 0xcbf29ce484222325ull) {
  const auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const SparseEntry& e : v) {
    mix(&e.index, sizeof(e.index));
    mix(&e.value, sizeof(e.value));
  }
  return h;
}

// The golden tests' graph, index, partition owner and MCSS sources.
Graph GoldenGraph() { return GenerateRmat(3000, 24000, /*seed=*/21); }

IndexingOptions GoldenIndexing() {
  IndexingOptions io;
  io.num_walkers = 100;
  io.jacobi_iterations = 3;
  io.seed = 5;
  return io;
}

int GoldenOwner(NodeId v) { return static_cast<int>(v % 3); }

constexpr NodeId kGoldenSources[] = {0, 1, 7, 42, 199, 1024, 2047, 2999};

// The golden MCSS and MCSP runs' options: R' = 1000, seed 11.
QueryOptions GoldenQueryOptions() {
  QueryOptions q;
  q.num_walkers = 1000;
  q.seed = 11;
  return q;
}

// One pinned MCSS run over kGoldenSources.
struct McssGolden {
  double prune_threshold;
  uint64_t hash;
  uint64_t push_ops;
  uint64_t push_crossings;
};

// Pins the single-source (MCSS), single-pair (MCSP), PPR, node2vec and
// index-row answers bit for bit on a fixed R-MAT graph, the walk step and
// crossing counts of the query runs, and one first- and one second-order
// walk that parks at dangling nodes (kSelfLoop). A change to any draw, to
// the order of the draws, to what counts as a step, or to the order in
// which one node's contributions are summed moves these values; a pure
// speedup of the walk, the push or the drains must not. The MCSS rows
// pin the Horner combine, one push per level. The constants assume
// IEEE-754 doubles without FMA contraction, as on x86-64.
TEST(QueriesGoldenTest, AnswersArePinnedBitForBit) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden constants are recorded for x86-64";
#endif
  const Graph g = GoldenGraph();
  const IndexingOptions io = GoldenIndexing();
  auto idx = BuildDiagonalIndex(g, io, /*pool=*/nullptr);
  ASSERT_TRUE(idx.ok());

  const NodeOwnerFn owner = GoldenOwner;
  // The push, unpruned and at the default threshold 0.03 of each source's
  // largest walk term under the record budget. It draws nothing, so only
  // the walks, the terms each node sums, their order, or which entries
  // survive can move these. Unpruned, the golden graph's lower levels make
  // 19k-21k records, which the step adds into its accumulator; pruned, it
  // sorts them.
  const McssGolden expected[] = {
      {0.0, 0x11adfbc0e55abad3ull, 1210131, 810491},
      {0.03, 0x0c7257f61b07dc0bull, 103185, 68810},
  };
  for (const McssGolden& want : expected) {
    SCOPED_TRACE(testing::Message() << "prune " << want.prune_threshold);
    QueryOptions q = GoldenQueryOptions();
    q.prune_threshold = want.prune_threshold;
    uint64_t h = 0xcbf29ce484222325ull;
    QueryStats stats;
    for (const NodeId s : kGoldenSources) {
      h = HashSparse(SingleSourceQuery(g, *idx, s, q, &stats, &owner), h);
    }
    EXPECT_EQ(h, want.hash) << std::hex << h;
    EXPECT_EQ(stats.push_ops, want.push_ops);
    EXPECT_EQ(stats.push_crossings, want.push_crossings);
    EXPECT_EQ(stats.walk_steps, 57344u);
    EXPECT_EQ(stats.walk_crossings, 36594u);
  }

  // PPR: the stop coin's channel and when a retirement counts as a step.
  QueryOptions ppr;
  ppr.num_walkers = 1000;
  ppr.seed = 17;
  ppr.ppr_alpha = 0.7;
  uint64_t ppr_hash = 0xcbf29ce484222325ull;
  QueryStats ppr_stats;
  for (const NodeId s : kGoldenSources) {
    ppr_hash = HashSparse(
        PersonalizedPageRankQuery(g, *idx, s, ppr, &ppr_stats, &owner),
        ppr_hash);
  }
  EXPECT_EQ(ppr_hash, 0x6e5637ab07e0e092ull);
  EXPECT_EQ(ppr_stats.walk_steps, 14717u);
  EXPECT_EQ(ppr_stats.walk_crossings, 9057u);

  // Walkers parked at dangling nodes (kSelfLoop), first and second order.
  const auto hash_levels = [](const WalkDistributions& d) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const SparseVector& level : d.levels) h = HashSparse(level, h);
    return h;
  };
  WalkConfig parked;
  parked.num_walkers = 1000;
  parked.seed = 19;
  parked.dangling = DanglingPolicy::kSelfLoop;
  WalkStats simrank_parked;
  EXPECT_EQ(hash_levels(SimulateWalkDistributions(g, 42, parked, nullptr,
                                                  &owner, &simrank_parked)),
            0x29f9db81b10b2813ull);
  EXPECT_EQ(simrank_parked.steps, 10000u);
  EXPECT_EQ(simrank_parked.partition_crossings, 6126u);

  // node2vec, as a query and parked: biased (In(prev) decides some
  // trials), the served default p = q = 1 (every trial accepts) and
  // q = 1 (only a return to prev is weighed apart).
  struct Node2VecExpected {
    double p;
    double q;
    uint64_t hash;
    uint64_t walk_steps;
    uint64_t walk_crossings;
    uint64_t parked_hash;
    uint64_t parked_crossings;
  };
  const Node2VecExpected n2v_expected[] = {
      {0.5, 2.0, 0xa8c0f9a066e6422full, 4615, 3099, 0xf970ffd77f50ad3bull,
       6204},
      {1.0, 1.0, 0xb74ac7d17d470182ull, 4694, 3176, 0xaeceee5ee67891eaull,
       6219},
      {2.0, 1.0, 0x9541a404cb19e2caull, 4694, 3176, 0x9d93f2e4c11f2b59ull,
       6219},
  };
  for (const Node2VecExpected& want : n2v_expected) {
    SCOPED_TRACE(testing::Message() << "p " << want.p << " q " << want.q);
    QueryOptions n2v;
    n2v.num_walkers = 500;
    n2v.seed = 13;
    n2v.n2v_return_p = want.p;
    n2v.n2v_in_out_q = want.q;
    QueryStats n2v_stats;
    EXPECT_EQ(HashSparse(Node2VecVisitQuery(g, *idx, 42, n2v, &n2v_stats,
                                            &owner)),
              want.hash);
    EXPECT_EQ(n2v_stats.walk_steps, want.walk_steps);
    EXPECT_EQ(n2v_stats.walk_crossings, want.walk_crossings);
    Node2VecParams params;
    params.return_p = want.p;
    params.in_out_q = want.q;
    WalkStats n2v_parked;
    EXPECT_EQ(hash_levels(SimulateNode2VecVisits(g, nullptr, 42, parked,
                                                 params, nullptr, &owner,
                                                 &n2v_parked)),
              want.parked_hash);
    EXPECT_EQ(n2v_parked.steps, 10000u);
    EXPECT_EQ(n2v_parked.partition_crossings, want.parked_crossings);
  }

  // MCSP over consecutive pairs of kGoldenSources: the score bits, keyed
  // by the pair's ordinal, hashed as one vector. The last two pairs never
  // meet and score +0.0.
  std::vector<SparseEntry> pair_scores;
  QueryStats pair_stats;
  for (uint32_t s = 0; s + 1 < std::size(kGoldenSources); ++s) {
    pair_scores.push_back(SparseEntry{
        s, SinglePairQuery(g, *idx, kGoldenSources[s], kGoldenSources[s + 1],
                           GoldenQueryOptions(), &pair_stats, &owner)});
  }
  EXPECT_EQ(HashSparse(SparseVector::FromSorted(std::move(pair_scores))),
            0xece59d51165d7a89ull);
  EXPECT_EQ(pair_stats.walk_steps, 104563u);
  EXPECT_EQ(pair_stats.walk_crossings, 67116u);

  const IndexRows rows = BuildIndexRows(g, io, /*pool=*/nullptr);
  ASSERT_EQ(rows.rows.size(), g.num_nodes());
  EXPECT_EQ(HashSparse(rows.rows[42]), 0x8b680ff79267caf4ull);
}

// An R-MAT graph with a tail n -> n+1 -> n+2 -> n+3 hanging off it: n has
// in-degree 0, and under kDie every walker from n+3 dies entering level 4.
Graph RmatWithTail() {
  const Graph rmat = GenerateRmat(200, 1400, /*seed=*/9);
  const NodeId n = rmat.num_nodes();
  GraphBuilder b(n + 4);
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : rmat.OutNeighbors(u)) b.AddEdge(u, v);
  }
  b.AddEdge(n, n + 1);
  b.AddEdge(n + 1, n + 2);
  b.AddEdge(n + 2, n + 3);
  b.AddEdge(n + 1, 5);
  b.AddEdge(n + 3, 17);
  return std::move(b.Build()).value();
}

// With the exact push the Horner recurrence only reassociates the nested
// form's sums, and it pushes each level's mass once: x_{t+1}'s support is
// the union of the chains' supports at that depth (masses are
// non-negative), so it never makes more push ops.
TEST(QueriesHornerTest, ExactPushMatchesNestedReference) {
  const Graph g = RmatWithTail();
  const NodeId root = g.num_nodes() - 4;  // in-degree 0
  const NodeId tail = g.num_nodes() - 1;  // walkers die after 3 steps
  ASSERT_EQ(g.InDegree(root), 0u);
  const std::vector<NodeId> sources = {0, 1, 7, 42, 150, root, tail};
  for (const uint32_t steps : {1u, 2u, 10u}) {
    for (const DanglingPolicy dangling :
         {DanglingPolicy::kDie, DanglingPolicy::kSelfLoop}) {
      IndexingOptions io;
      io.params.num_steps = steps;
      io.num_walkers = 100;
      io.dangling = dangling;
      auto idx = BuildDiagonalIndex(g, io, /*pool=*/nullptr);
      ASSERT_TRUE(idx.ok());
      QueryOptions q;
      q.num_walkers = 500;
      q.seed = 3;
      q.prune_threshold = 0.0;
      q.dangling = dangling;
      for (const NodeId s : sources) {
        SCOPED_TRACE(testing::Message()
                     << "T " << steps << " selfloop "
                     << (dangling == DanglingPolicy::kSelfLoop) << " source "
                     << s);
        const WalkDistributions dists =
            mcss_reference::QueryWalks(g, *idx, s, q);
        if (s == tail && steps == 10 && dangling == DanglingPolicy::kDie) {
          ASSERT_FALSE(dists.levels[3].empty());
          ASSERT_TRUE(dists.levels[4].empty());
        }
        QueryStats horner_stats, nested_stats;
        const SparseVector horner =
            SingleSourceQuery(g, *idx, s, q, &horner_stats);
        const SparseVector nested = mcss_reference::NestedSingleSource(
            g, *idx, q, dists, &nested_stats);
        ASSERT_FALSE(nested.empty());
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          EXPECT_NEAR(horner.Get(v), nested.Get(v), 1e-12) << "node " << v;
        }
        EXPECT_LE(horner_stats.push_ops, nested_stats.push_ops);
        if (s == root && dangling == DanglingPolicy::kDie) {
          // Level 0 alone: z_0 = D e_root, no push.
          EXPECT_EQ(horner.size(), 1u);
          EXPECT_EQ(horner_stats.push_ops, 0u);
        }
      }
    }
  }
}

// The exact push step against the accumulator step it replaced
// (mcss_reference.h), with the same relative cutoff and record budget:
// answers and push counters bit for bit. The step sorts a level of at
// most 16k records and adds a larger one into the accumulator; the cases
// put levels under the sort's insertion cutoff, just under the bound,
// over it, cut by the budget, and fully pruned. They include sources
// whose walkers all die early (RmatWithTail's root and tail) and walkers
// parked under kSelfLoop.
TEST(QueriesExactPushTest, MatchesAccumulatorReferenceBitForBit) {
  constexpr uint64_t kSortMax = 16384;
  constexpr uint64_t kPrunedMax = 4096;
  struct Case {
    const char* name;
    Graph graph;
    std::vector<NodeId> sources;
    std::vector<double> prune_thresholds;
  };
  Graph tail_graph = RmatWithTail();
  const NodeId root = tail_graph.num_nodes() - 4;
  const NodeId tail = tail_graph.num_nodes() - 1;
  const std::vector<NodeId> sources = {0, 1, 7, 42, 199, 1024, 2999};
  const Case cases[] = {
      {"tail", std::move(tail_graph), {0, 1, 7, 42, 150, root, tail},
       {0.0, 1e-2, /*fully pruned*/ 1e3}},
      {"golden", GoldenGraph(), sources, {0.0, 1e-2}},
      {"dense", GenerateRmat(3000, 150000, /*seed=*/3), sources, {0.0, 1e-3}},
  };
  const NodeOwnerFn owner = GoldenOwner;
  // Steps sorted by insertion, sorted at more than half the bound, added
  // into the accumulator, and that pushed nothing; queries the budget cut.
  uint64_t small = 0, near_bound = 0, accumulated = 0, empty = 0;
  uint64_t budgeted = 0;
  for (const Case& c : cases) {
    for (const DanglingPolicy dangling :
         {DanglingPolicy::kDie, DanglingPolicy::kSelfLoop}) {
      IndexingOptions io;
      io.num_walkers = 20;
      io.dangling = dangling;
      auto idx = BuildDiagonalIndex(c.graph, io, /*pool=*/nullptr);
      ASSERT_TRUE(idx.ok());
      for (const double prune : c.prune_thresholds) {
        QueryOptions q;
        q.num_walkers = 1000;
        q.seed = 3;
        q.prune_threshold = prune;
        q.dangling = dangling;
        for (const NodeId s : c.sources) {
          SCOPED_TRACE(testing::Message()
                       << c.name << " prune " << prune << " selfloop "
                       << (dangling == DanglingPolicy::kSelfLoop) << " source "
                       << s);
          const WalkDistributions dists =
              mcss_reference::QueryWalks(c.graph, *idx, s, q);
          QueryStats got_stats, want_stats;
          std::vector<uint64_t> level_records;
          const SparseVector got =
              SingleSourceQuery(c.graph, *idx, s, q, &got_stats, &owner);
          const SparseVector want =
              mcss_reference::AccumulatorExactSingleSource(
                  c.graph, *idx, q, dists, kPrunedMax, &want_stats, &owner,
                  &level_records);
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].index, want[i].index) << "entry " << i;
            ASSERT_EQ(std::bit_cast<uint64_t>(got[i].value),
                      std::bit_cast<uint64_t>(want[i].value))
                << "node " << got[i].index;
          }
          EXPECT_EQ(got_stats.push_ops, want_stats.push_ops);
          EXPECT_EQ(got_stats.push_crossings, want_stats.push_crossings);
          std::vector<uint64_t> unbudgeted;
          mcss_reference::AccumulatorExactSingleSource(
              c.graph, *idx, q, dists, UINT64_MAX, nullptr, nullptr,
              &unbudgeted);
          budgeted += unbudgeted != level_records;
          for (const uint64_t records : level_records) {
            small += records > 0 && records < kSmallSortCutoff;
            near_bound += records > kSortMax / 2 && records <= kSortMax;
            accumulated += records > kSortMax;
            empty += records == 0;
          }
        }
      }
    }
  }
  EXPECT_GT(small, 0u);
  EXPECT_GT(near_bound, 0u);
  EXPECT_GT(accumulated, 0u);
  EXPECT_GT(empty, 0u);
  EXPECT_GT(budgeted, 0u);
}

// The default push answers a hub as fully as any other source: its cutoff
// follows the source's own largest walk term, so a first level spread
// over hundreds of in-neighbors still pushes, and the record budget keeps
// each step to its largest entries. The golden graph's five highest
// in-degree nodes each get k = 10 results at the library's R' and at the
// serving R' = 1000, each step making at most one row past 4096 records.
TEST(QueriesExactPushTest, DefaultAnswersHubSources) {
  constexpr uint64_t kPrunedMax = 4096;
  const Graph g = GoldenGraph();
  auto idx = BuildDiagonalIndex(g, GoldenIndexing(), /*pool=*/nullptr);
  ASSERT_TRUE(idx.ok());
  std::vector<NodeId> hubs(g.num_nodes());
  std::iota(hubs.begin(), hubs.end(), NodeId{0});
  std::stable_sort(hubs.begin(), hubs.end(), [&g](NodeId a, NodeId b) {
    return g.InDegree(a) > g.InDegree(b);
  });
  hubs.resize(5);
  ASSERT_EQ(hubs[0], 0u);
  ASSERT_GE(g.InDegree(hubs[4]), 100u);
  uint64_t widest_row = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    widest_row = std::max<uint64_t>(widest_row, g.OutDegree(v));
  }
  for (const uint32_t walkers : {QueryOptions{}.num_walkers, 1000u}) {
    QueryOptions q;
    q.num_walkers = walkers;
    for (const NodeId s : hubs) {
      SCOPED_TRACE(testing::Message() << "R' " << walkers << " source " << s
                                      << " in-degree " << g.InDegree(s));
      QueryStats stats;
      const SparseVector scores = SingleSourceQuery(g, *idx, s, q, &stats);
      EXPECT_EQ(TopKFromSparse(scores, s, 10).size(), 10u);
      EXPECT_GT(stats.push_ops, 0u);
      EXPECT_LE(stats.push_ops,
                idx->params().num_steps * (kPrunedMax + widest_row));
    }
  }
}

TEST(AllPairsTest, ReturnsTopKPerSource) {
  const Graph g = GenerateRmat(60, 400, 5);
  IndexingOptions o;
  o.num_walkers = 300;
  auto idx = BuildDiagonalIndex(g, o, nullptr);
  ASSERT_TRUE(idx.ok());
  QueryOptions q;
  q.num_walkers = 500;
  ThreadPool pool(4);
  uint64_t steps = 0;
  const auto all = AllPairsTopK(g, *idx, q, 5, &pool, &steps);
  ASSERT_EQ(all.size(), g.num_nodes());
  EXPECT_GT(steps, 0u);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    EXPECT_LE(all[s].size(), 5u);
    for (const ScoredNode& sn : all[s]) {
      EXPECT_NE(sn.node, s);  // self excluded
      EXPECT_LT(sn.node, g.num_nodes());
    }
    for (size_t i = 1; i < all[s].size(); ++i) {
      EXPECT_GE(all[s][i - 1].score, all[s][i].score);
    }
  }
}

}  // namespace
}  // namespace cloudwalker
