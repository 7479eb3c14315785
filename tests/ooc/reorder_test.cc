// Locality reorder (ooc/reorder.h + CloudWalker::WriteReorderedSnapshot):
// the permutation is a bijection, the relabeled artifact is structurally
// faithful, and a reordered snapshot answers every query kind for
// *external* node ids exactly as the unreordered artifact does — the
// round-trip callers rely on when they opt into --reorder.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "ooc/ooc_backend.h"
#include "ooc/reorder.h"
#include "shard/sharding.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectBijection(const std::vector<NodeId>& perm, NodeId n) {
  ASSERT_EQ(perm.size(), n);
  std::vector<NodeId> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (NodeId u = 0; u < n; ++u) EXPECT_EQ(sorted[u], u);
}

TEST(ReorderKindTest, ParsesCliNames) {
  EXPECT_EQ(*ParseReorderKind("none"), ReorderKind::kNone);
  EXPECT_EQ(*ParseReorderKind("degree"), ReorderKind::kDegree);
  EXPECT_EQ(*ParseReorderKind("bfs"), ReorderKind::kBfs);
  EXPECT_FALSE(ParseReorderKind("hilbert").ok());
}

TEST(ComputeLocalityOrderTest, ProducesBijections) {
  const Graph graph = GenerateRmat(400, 3000, /*seed=*/19);
  for (const ReorderKind kind : {ReorderKind::kDegree, ReorderKind::kBfs}) {
    ExpectBijection(ComputeLocalityOrder(graph, kind), graph.num_nodes());
  }
  // Identity for kNone.
  const std::vector<NodeId> identity =
      ComputeLocalityOrder(graph, ReorderKind::kNone);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) EXPECT_EQ(identity[u], u);
}

TEST(ComputeLocalityOrderTest, DegreeOrderIsHubsFirst) {
  const Graph graph = GenerateRmat(300, 2500, /*seed=*/23);
  const std::vector<NodeId> perm =
      ComputeLocalityOrder(graph, ReorderKind::kDegree);
  for (size_t i = 1; i < perm.size(); ++i) {
    const uint32_t prev = graph.InDegree(perm[i - 1]);
    const uint32_t cur = graph.InDegree(perm[i]);
    ASSERT_TRUE(prev > cur || (prev == cur && perm[i - 1] < perm[i]))
        << "position " << i;
  }
}

TEST(ReorderForLocalityTest, RelabelsFaithfully) {
  const Graph graph = GenerateRmat(250, 2000, /*seed=*/29);
  std::vector<double> diagonal(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    diagonal[u] = 0.5 + 0.001 * u;  // distinguishable per node
  }
  auto artifact = ReorderForLocality(graph, diagonal, ReorderKind::kBfs);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ExpectBijection(artifact->perm, graph.num_nodes());
  EXPECT_EQ(artifact->graph.num_nodes(), graph.num_nodes());
  EXPECT_EQ(artifact->graph.num_edges(), graph.num_edges());

  // Inverse of the stored permutation: external -> internal.
  std::vector<NodeId> inv(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) inv[artifact->perm[u]] = u;

  // Every original edge appears relabeled, with identical multiplicity.
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    std::vector<NodeId> expected;
    for (const NodeId v : graph.OutNeighbors(artifact->perm[u])) {
      expected.push_back(inv[v]);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<NodeId> actual(artifact->graph.OutNeighbors(u).begin(),
                               artifact->graph.OutNeighbors(u).end());
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(actual, expected) << "internal node " << u;
  }

  // Diagonal permuted exactly, never re-estimated.
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    EXPECT_EQ(artifact->diagonal[u], diagonal[artifact->perm[u]]);
  }

  // In-rows are stored in external-id order: slot k of a row holds the
  // in-neighbor the unreordered graph's row holds at slot k.
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto row = artifact->graph.InNeighbors(u);
    const auto original = graph.InNeighbors(artifact->perm[u]);
    ASSERT_EQ(row.size(), original.size()) << "internal node " << u;
    for (size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(artifact->perm[row[k]], original[k]) << "internal node " << u;
    }
  }

  EXPECT_FALSE(ReorderForLocality(graph, diagonal, ReorderKind::kNone).ok());
}

// End-to-end: build -> write reordered -> reopen (mmap and out-of-core) ->
// answers for external ids are exactly those of the unreordered artifact.
class ReorderRoundTripTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Graph graph = GenerateRmat(/*num_nodes=*/350, /*num_edges=*/2800,
                               /*seed=*/31);
    IndexingOptions options;
    options.num_walkers = 12;
    options.params.num_steps = 4;
    auto built = CloudWalker::Build(std::move(graph), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    plain_path_ = new std::string(TempPath("reorder_plain.cwk"));
    reordered_path_ = new std::string(TempPath("reorder_bfs.cwk"));
    ASSERT_TRUE((*built)->WriteSnapshot(*plain_path_).ok());
    ASSERT_TRUE(
        (*built)
            ->WriteReorderedSnapshot(*reordered_path_, ReorderKind::kBfs)
            .ok());
    auto plain = CloudWalker::Open(*plain_path_);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    plain_ = new std::shared_ptr<const CloudWalker>(std::move(*plain));
    auto reordered = CloudWalker::Open(*reordered_path_);
    ASSERT_TRUE(reordered.ok()) << reordered.status().ToString();
    reordered_ =
        new std::shared_ptr<const CloudWalker>(std::move(*reordered));
  }
  static void TearDownTestSuite() {
    std::remove(plain_path_->c_str());
    std::remove(reordered_path_->c_str());
    delete plain_;
    delete reordered_;
    delete plain_path_;
    delete reordered_path_;
    plain_ = nullptr;
    reordered_ = nullptr;
    plain_path_ = nullptr;
    reordered_path_ = nullptr;
  }

  static const CloudWalker& plain() { return **plain_; }
  static const CloudWalker& reordered() { return **reordered_; }
  static std::shared_ptr<const CloudWalker> reordered_shared() {
    return *reordered_;
  }
  static const std::string& reordered_path() { return *reordered_path_; }

  static std::shared_ptr<const CloudWalker>* plain_;
  static std::shared_ptr<const CloudWalker>* reordered_;
  static std::string* plain_path_;
  static std::string* reordered_path_;
};

std::shared_ptr<const CloudWalker>* ReorderRoundTripTest::plain_ = nullptr;
std::shared_ptr<const CloudWalker>* ReorderRoundTripTest::reordered_ =
    nullptr;
std::string* ReorderRoundTripTest::plain_path_ = nullptr;
std::string* ReorderRoundTripTest::reordered_path_ = nullptr;

TEST_F(ReorderRoundTripTest, PermutationRoundTripsThroughTheSnapshot) {
  ASSERT_FALSE(reordered().permutation().empty());
  std::vector<NodeId> perm(reordered().permutation().begin(),
                           reordered().permutation().end());
  ExpectBijection(perm, plain().graph().num_nodes());
  EXPECT_TRUE(plain().permutation().empty());
  // The snapshot itself carries the section.
  ASSERT_NE(reordered().snapshot(), nullptr);
  EXPECT_FALSE(reordered().snapshot()->permutation().empty());
}

TEST_F(ReorderRoundTripTest, WalkQueriesIdenticalForExternalIds) {
  // The endpoint top-k kinds are exactly identical (identical draw
  // streams + id translation at the boundary). kPair's combine dots
  // the two walk distributions in internal-id order, so reordering
  // reassociates that float sum — identical distributions, equality to
  // within rounding.
  for (const NodeId q : {NodeId{0}, NodeId{101}, NodeId{349}}) {
    const QueryRequest pair = QueryRequest::Pair(q, (q + 7) % 350);
    const QueryResponse pair_a = plain().Execute(pair);
    const QueryResponse pair_b = reordered().Execute(pair);
    ASSERT_TRUE(pair_a.ok() && pair_b.ok());
    EXPECT_NEAR(pair_a.score(), pair_b.score(), 1e-12) << "q=" << q;

    const QueryRequest ppr = QueryRequest::PersonalizedPageRank(q, 10);
    const QueryResponse ppr_a = plain().Execute(ppr);
    const QueryResponse ppr_b = reordered().Execute(ppr);
    ASSERT_TRUE(ppr_a.ok() && ppr_b.ok());
    EXPECT_EQ(*ppr_a.topk(), *ppr_b.topk()) << "q=" << q;

    const QueryRequest n2v = QueryRequest::Node2Vec(q, 10);
    const QueryResponse n2v_a = plain().Execute(n2v);
    const QueryResponse n2v_b = reordered().Execute(n2v);
    ASSERT_TRUE(n2v_a.ok() && n2v_b.ok());
    EXPECT_EQ(*n2v_a.topk(), *n2v_b.topk()) << "q=" << q;
  }
}

TEST_F(ReorderRoundTripTest, ExactPushSingleSourceIdentical) {
  // The push combine reassociates float sums only: the renumbering
  // changes the order in which a node's contributions add up, so on this
  // fixture some values differ in their last bits. Indices must match
  // exactly and values to rounding, so any reorder change that moves more
  // than association shows up.
  QueryOptions options;
  options.prune_threshold = 0.0;
  for (const NodeId q : {NodeId{3}, NodeId{222}}) {
    const QueryRequest r = QueryRequest::SingleSource(q).WithOptions(options);
    const QueryResponse ra = plain().Execute(r);
    const QueryResponse rb = reordered().Execute(r);
    ASSERT_TRUE(ra.ok() && rb.ok());
    const SparseVector& a = *ra.scores();
    const SparseVector& b = *rb.scores();
    ASSERT_EQ(a.entries().size(), b.entries().size()) << "q=" << q;
    for (size_t e = 0; e < a.entries().size(); ++e) {
      EXPECT_EQ(a.entries()[e].index, b.entries()[e].index);
      EXPECT_NEAR(a.entries()[e].value, b.entries()[e].value, 1e-12);
    }
  }
}

TEST_F(ReorderRoundTripTest, OutOfCoreOpenOfReorderedSnapshotAgrees) {
  auto ooc = CloudWalker::OutOfCore(reordered_path());
  ASSERT_TRUE(ooc.ok()) << ooc.status().ToString();
  ASSERT_FALSE((*ooc)->permutation().empty());
  for (const NodeId q : {NodeId{11}, NodeId{340}}) {
    const QueryRequest ppr = QueryRequest::PersonalizedPageRank(q, 8);
    const QueryResponse a = plain().Execute(ppr);
    const QueryResponse b = (*ooc)->Execute(ppr);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a.topk(), *b.topk()) << "q=" << q;
    const QueryResponse pair_a = plain().Execute(QueryRequest::Pair(q, 50));
    const QueryResponse pair_b = (*ooc)->Execute(QueryRequest::Pair(q, 50));
    ASSERT_TRUE(pair_a.ok() && pair_b.ok());
    EXPECT_NEAR(pair_a.score(), pair_b.score(), 1e-12);
  }
}

TEST_F(ReorderRoundTripTest, GuardsOnPermutedInstances) {
  // Re-reordering an already-permuted instance is rejected.
  const Status again = reordered().WriteReorderedSnapshot(
      TempPath("reorder_twice.cwk"), ReorderKind::kDegree);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.IsFailedPrecondition()) << again.ToString();
}

TEST_F(ReorderRoundTripTest, ReorderedSnapshotIsByteStableThroughRewrite) {
  // Open + WriteSnapshot of the reordered artifact reproduces it byte for
  // byte (the writer mirrors block size and permutation).
  const std::string copy = TempPath("reorder_copy.cwk");
  ASSERT_TRUE(reordered().WriteSnapshot(copy).ok());
  std::ifstream a(reordered_path(), std::ios::binary);
  std::ifstream b(copy, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(copy.c_str());
}

}  // namespace
}  // namespace cloudwalker
