// The level step every executor shares (engine/walk_step.h), checked
// against a scalar reference written here: one walker at a time, straight
// from the policy's Draw / Retire / Advance and PickSlot. AdvanceLevel's
// prefetch pipeline may visit walkers in any order, so the test compares
// multisets — survivor records, their previous nodes, endpoints,
// terminals — and the step count, over shuffled batches at several block
// widths, for every program under both dangling policies.

#include "engine/walk_step.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "ooc/reorder.h"

namespace cloudwalker {
namespace {

// Everything one level reports, in a comparable (sorted) form.
struct LevelOutcome {
  std::vector<std::tuple<uint32_t, NodeId, NodeId, NodeId>> moved;
  // (walker, cur, prev, from)
  std::vector<NodeId> endpoints;
  std::vector<NodeId> terminals;
  uint64_t steps = 0;

  void Sort() {
    std::sort(moved.begin(), moved.end());
    std::sort(endpoints.begin(), endpoints.end());
    std::sort(terminals.begin(), terminals.end());
  }
};

struct RecordingSink {
  LevelOutcome* out;
  void Step() { ++out->steps; }
  void Moved(const WalkerRec& rec, NodeId from) {
    out->moved.emplace_back(rec.walker, rec.cur, rec.prev, from);
    out->endpoints.push_back(rec.cur);
  }
  void Retired(NodeId v) { out->terminals.push_back(v); }
};

// The scalar reference: one walker at a time.
template <typename Policy>
LevelOutcome ReferenceLevel(const Graph& g, const Policy& policy, uint32_t t,
                            bool self_loop,
                            const std::vector<WalkerRec>& walkers) {
  const CsrRows rows = CsrRows::In(g);
  LevelOutcome out;
  for (const WalkerRec& rec : walkers) {
    if constexpr (Policy::kMayRetire) {
      if (policy.Retire(rec.walker, t)) {
        out.terminals.push_back(rec.cur);
        continue;
      }
    }
    ++out.steps;
    const uint32_t deg = g.InDegree(rec.cur);
    // node2vec's next step reads In(prev), so prev tracks the node the
    // walker stood on — a parked walker's own node.
    const NodeId prev = Policy::kSecondOrder ? rec.cur : rec.prev;
    NodeId next;
    if (deg == 0) {
      if (!self_loop) continue;
      next = rec.cur;
    } else if constexpr (Policy::kSecondOrder) {
      next = policy.Advance(rows, rows.Locate(rec.cur), rec.walker, t,
                            rec.prev);
    } else {
      next = g.InNeighbor(rec.cur, PickSlot(policy.Draw(rec.walker, t), deg));
    }
    out.moved.emplace_back(rec.walker, next, prev, rec.cur);
    out.endpoints.push_back(next);
  }
  out.Sort();
  return out;
}

template <typename Policy>
LevelOutcome PipelineLevel(const Graph& g, const Policy& policy, uint32_t t,
                           bool self_loop,
                           const std::vector<WalkerRec>& walkers,
                           uint32_t width) {
  LevelOutcome out;
  RecordingSink sink{&out};
  AdvanceLevel(CsrRows::In(g), policy, t, self_loop,
               std::span<const WalkerRec>(walkers), width, sink);
  out.Sort();
  return out;
}

// ~1000 walkers with shuffled, non-contiguous global ids at random nodes
// (dangling ones included); half carry a previous node.
std::vector<WalkerRec> ShuffledBatch(const Graph& g, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint32_t> ids(3000);
  std::iota(ids.begin(), ids.end(), 0u);
  std::shuffle(ids.begin(), ids.end(), rng);
  std::uniform_int_distribution<NodeId> node(0, g.num_nodes() - 1);
  std::vector<WalkerRec> batch(1000);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i] = WalkerRec{ids[i], node(rng),
                         i % 2 == 0 ? kInvalidNode : node(rng)};
  }
  return batch;
}

// Runs three chained levels: each starts from the reference's survivors,
// reshuffled, so walkers that just moved, parked or came from nowhere all
// meet the pipeline at every width.
template <typename Policy>
void ExpectPipelineMatchesReference(const Graph& g, const Policy& policy,
                                    DanglingPolicy dangling,
                                    const std::string& what) {
  const bool self_loop = dangling == DanglingPolicy::kSelfLoop;
  std::vector<WalkerRec> walkers = ShuffledBatch(g, 17);
  std::mt19937 rng(5);
  uint64_t moved_total = 0;
  uint64_t terminals_total = 0;
  for (uint32_t t = 1; t <= 3; ++t) {
    const LevelOutcome want = ReferenceLevel(g, policy, t, self_loop, walkers);
    for (const uint32_t width : {1u, 7u, 256u}) {
      const LevelOutcome got =
          PipelineLevel(g, policy, t, self_loop, walkers, width);
      const std::string where =
          what + " t=" + std::to_string(t) + " width=" + std::to_string(width);
      EXPECT_EQ(got.moved, want.moved) << where;
      EXPECT_EQ(got.endpoints, want.endpoints) << where;
      EXPECT_EQ(got.terminals, want.terminals) << where;
      EXPECT_EQ(got.steps, want.steps) << where;
    }
    moved_total += want.moved.size();
    terminals_total += want.terminals.size();
    walkers.clear();
    for (const auto& [w, cur, prev, from] : want.moved) {
      walkers.push_back(WalkerRec{w, cur, prev});
    }
    std::shuffle(walkers.begin(), walkers.end(), rng);
  }
  // The batch must exercise the paths the comparison is about.
  EXPECT_GT(moved_total, 0u) << what;
  if (Policy::kMayRetire) {
    EXPECT_GT(terminals_total, 0u) << what;
  }
}

class WalkStepTest : public ::testing::TestWithParam<DanglingPolicy> {
 protected:
  static void SetUpTestSuite() {
    // Sparse enough that many nodes have no in-neighbors.
    graph_ = new Graph(GenerateRmat(2000, 6000, /*seed=*/41));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }
  static WalkConfig Config() {
    WalkConfig cfg;
    cfg.seed = 29;
    cfg.dangling = GetParam();
    return cfg;
  }
  static std::string Name(const char* program) {
    return std::string(program) +
           (GetParam() == DanglingPolicy::kSelfLoop ? " kSelfLoop" : " kDie");
  }

  static Graph* graph_;
};

Graph* WalkStepTest::graph_ = nullptr;

TEST_P(WalkStepTest, GraphHasDanglingNodes) {
  uint32_t dangling = 0;
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    if (graph_->InDegree(v) == 0) ++dangling;
  }
  EXPECT_GT(dangling, graph_->num_nodes() / 10);
}

TEST_P(WalkStepTest, SimRankMatchesScalarReference) {
  ExpectPipelineMatchesReference(*graph_, SimRankPolicy(Config(), 3),
                                 GetParam(), Name("simrank"));
}

TEST_P(WalkStepTest, PprMatchesScalarReference) {
  ExpectPipelineMatchesReference(*graph_,
                                 PprPolicy(Config(), 3, PprParams{0.7}),
                                 GetParam(), Name("ppr"));
}

TEST_P(WalkStepTest, Node2VecMatchesScalarReference) {
  Node2VecParams params;
  params.return_p = 0.5;
  params.in_out_q = 2.0;
  ExpectPipelineMatchesReference(*graph_, Node2VecPolicy(Config(), 3, params),
                                 GetParam(), Name("node2vec"));
}

INSTANTIATE_TEST_SUITE_P(BothDanglingPolicies, WalkStepTest,
                         ::testing::Values(DanglingPolicy::kDie,
                                           DanglingPolicy::kSelfLoop));

// A level outcome with every node id mapped through `perm`, re-sorted.
LevelOutcome ToExternal(const LevelOutcome& internal,
                        const std::vector<NodeId>& perm) {
  const auto ext = [&perm](NodeId v) {
    return v == kInvalidNode ? v : perm[v];
  };
  LevelOutcome out;
  for (const auto& [w, cur, prev, from] : internal.moved) {
    out.moved.emplace_back(w, ext(cur), ext(prev), ext(from));
    out.endpoints.push_back(ext(cur));
  }
  out.steps = internal.steps;
  out.Sort();
  return out;
}

TEST(WalkStepRowOrderTest, Node2VecSearchesRowsInThePolicysOrder) {
  // A locality renumbering stores every in-row sorted by external id. Two
  // node2vec policies with the same key — the source's external id — see
  // the same draws; only the row order their membership test assumes
  // differs. The one given the permutation reproduces the original
  // graph's level exactly; the one assuming id order misclassifies.
  const Graph g = GenerateRmat(300, 2400, /*seed=*/3);
  const std::vector<double> diagonal(g.num_nodes(), 0.5);
  auto art = ReorderForLocality(g, diagonal, ReorderKind::kBfs);
  ASSERT_TRUE(art.ok()) << art.status().ToString();
  std::vector<NodeId> to_internal(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) to_internal[art->perm[u]] = u;
  WalkConfig cfg;
  cfg.seed = 29;
  Node2VecParams params;
  params.return_p = 0.5;
  params.in_out_q = 2.0;
  const NodeId source = 17;
  const Node2VecPolicy original(cfg, source, params);
  const Node2VecPolicy ordered(cfg, to_internal[source], params, art->perm);
  Node2VecPolicy unordered = ordered;
  unordered.external_ids = {};
  ASSERT_EQ(ordered.key, original.key);

  const std::vector<WalkerRec> batch = ShuffledBatch(art->graph, 23);
  std::vector<WalkerRec> external_batch;
  for (const WalkerRec& rec : batch) {
    external_batch.push_back(WalkerRec{
        rec.walker, art->perm[rec.cur],
        rec.prev == kInvalidNode ? kInvalidNode : art->perm[rec.prev]});
  }
  const LevelOutcome want = PipelineLevel(g, original, /*t=*/2,
                                          /*self_loop=*/false,
                                          external_batch, 256);
  const LevelOutcome got = ToExternal(
      PipelineLevel(art->graph, ordered, 2, false, batch, 256), art->perm);
  EXPECT_EQ(got.moved, want.moved);
  EXPECT_EQ(got.steps, want.steps);
  const LevelOutcome misread = ToExternal(
      PipelineLevel(art->graph, unordered, 2, false, batch, 256), art->perm);
  EXPECT_NE(misread.moved, want.moved);
}

}  // namespace
}  // namespace cloudwalker
