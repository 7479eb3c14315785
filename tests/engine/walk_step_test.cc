// The level step every executor shares (engine/walk_step.h), checked
// against a scalar reference written here: one walker at a time, straight
// from the policy's Draw / Retire and PickSlot, and for node2vec from its
// own copy of the rejection rule, which classifies every candidate before
// it looks at the draw. AdvanceLevel's prefetch pipeline may visit walkers
// in any order, so the test compares multisets — survivor records, their
// previous nodes, endpoints, terminals — and the step count, over shuffled
// batches at several block widths, for every program under both dangling
// policies.

#include "engine/walk_step.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/walk_program.h"
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

// node2vec's move of walker `w` at step `t` from `cur` (in-degree >= 1)
// after `prev`, from the rule itself (DESIGN.md section 10.3): the first
// step is uniform on the canonical stream `key`; after it, trial k draws
// from the trial channel, weighs its candidate 1/p (prev), 1 (in In(prev),
// found by a linear scan) or 1/q (otherwise), and accepts with probability
// weight / w_max; the last candidate stands when every trial rejects.
NodeId ReferenceNode2VecMove(const Graph& g, const Node2VecParams& params,
                             uint64_t key, uint32_t w, uint32_t t,
                             NodeId cur, NodeId prev) {
  const uint32_t deg = g.InDegree(cur);
  const uint64_t counter = WalkerStepCounter(w, t);
  if (prev == kInvalidNode) {
    return g.InNeighbor(cur, PickSlot(CounterRandom(key, counter), deg));
  }
  const double w_return = 1.0 / params.return_p;
  const double w_far = 1.0 / params.in_out_q;
  const double w_max = std::max({1.0, w_return, w_far});
  const uint64_t trial_key =
      DeriveSeed(DeriveSeed(key, kNode2VecTrialChannel), counter);
  const std::span<const NodeId> in_prev = g.InNeighbors(prev);
  NodeId candidate = kInvalidNode;
  for (uint32_t trial = 0; trial < params.max_trials; ++trial) {
    const uint64_t raw = CounterRandom(trial_key, trial);
    candidate = g.InNeighbor(cur, PickSlot(raw, deg));
    double weight = w_far;
    if (candidate == prev) {
      weight = w_return;
    } else if (std::find(in_prev.begin(), in_prev.end(), candidate) !=
               in_prev.end()) {
      weight = 1.0;
    }
    if ((raw & 0xffffffffull) < AcceptThreshold(weight / w_max)) break;
  }
  return candidate;
}

// The scalar reference: one walker at a time.
template <typename Policy>
LevelOutcome ReferenceLevel(const Graph& g, const Policy& policy, uint32_t t,
                            bool self_loop,
                            const std::vector<WalkerRec>& walkers) {
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
      next = ReferenceNode2VecMove(g, policy.params, policy.key, rec.walker,
                                   t, rec.cur, rec.prev);
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

// node2vec settings: the served default p = q = 1, q = 1 with p on
// either side (In(prev) never decides), biased both ways, and a cap of
// one trial.
struct Node2VecSetting {
  double p;
  double q;
  uint32_t max_trials;
};
constexpr Node2VecSetting kNode2VecGrid[] = {
    {1.0, 1.0, 64}, {2.0, 1.0, 64},  {0.5, 1.0, 64},
    {0.5, 2.0, 64}, {4.0, 0.25, 64}, {0.5, 2.0, 1},
};

Node2VecParams ParamsOf(const Node2VecSetting& setting) {
  Node2VecParams params;
  params.return_p = setting.p;
  params.in_out_q = setting.q;
  params.max_trials = setting.max_trials;
  return params;
}

std::string NameOf(const Node2VecSetting& setting) {
  return " p=" + std::to_string(setting.p) +
         " q=" + std::to_string(setting.q) +
         " max_trials=" + std::to_string(setting.max_trials);
}

TEST_P(WalkStepTest, Node2VecMatchesScalarReference) {
  for (const Node2VecSetting& setting : kNode2VecGrid) {
    ExpectPipelineMatchesReference(
        *graph_, Node2VecPolicy(Config(), 3, ParamsOf(setting)), GetParam(),
        Name("node2vec") + NameOf(setting));
  }
}

// A resident in-CSR that counts the In(prev) rows the step reads.
struct CountingRows : CsrRows {
  uint64_t* in_rows = nullptr;

  std::span<const NodeId> InRow(NodeId v) const {
    ++*in_rows;
    return CsrRows::InRow(v);
  }
};

TEST_P(WalkStepTest, Node2VecReadsInPrevOnlyWhenNearAndFarDiffer) {
  // With q = 1 an in-neighbor of prev weighs what any other candidate
  // does, so no trial may pay for the membership search.
  const std::vector<WalkerRec> batch = ShuffledBatch(*graph_, 43);
  for (const Node2VecSetting& setting : kNode2VecGrid) {
    const Node2VecPolicy policy(Config(), 3, ParamsOf(setting));
    EXPECT_EQ(policy.ReadsPrevRow(), setting.q != 1.0) << NameOf(setting);
    uint64_t in_rows = 0;
    LevelOutcome out;
    RecordingSink sink{&out};
    AdvanceLevel(CountingRows{CsrRows::In(*graph_), &in_rows}, policy,
                 /*t=*/2, GetParam() == DanglingPolicy::kSelfLoop,
                 std::span<const WalkerRec>(batch), 256, sink);
    ASSERT_GT(out.steps, 0u);
    if (setting.q == 1.0) {
      EXPECT_EQ(in_rows, 0u) << NameOf(setting);
    } else {
      EXPECT_GT(in_rows, 0u) << NameOf(setting);
    }
  }
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
