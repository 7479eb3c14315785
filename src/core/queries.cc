#include "core/queries.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "engine/walk.h"
#include "engine/walk_backend.h"
#include "engine/walk_program.h"

namespace cloudwalker {
namespace {

WalkConfig WalkConfigFromQuery(const DiagonalIndex& index,
                               const QueryOptions& options,
                               const CancelToken* cancel) {
  WalkConfig cfg;
  cfg.num_steps = index.params().num_steps;
  cfg.num_walkers = options.num_walkers;
  cfg.dangling = options.dangling;
  cfg.seed = options.seed;
  cfg.cancel = cancel;
  return cfg;
}

bool Stopped(const CancelToken* cancel) {
  return cancel != nullptr && cancel->ShouldStop();
}

// Records past which an exact push step adds into a SparseAccumulator
// instead of sorting: one SumByIndex over a step's records and its
// buffer, 256 KiB each at this bound, stay in L2. The unpruned push makes
// about 2.5M records a level on a 200k-node, 2.8M-edge R-MAT graph, where
// sorting ran 1.3-2.2x slower than the hash table.
constexpr uint64_t kPushSortRecordsMax = 1u << 14;

// Records past which a pruned exact push step keeps only its largest
// entries (PrunedPushCutoff). Without it, a hub's steps made up to 425k
// records each on a 200k-node R-MAT graph's zipf traffic.
constexpr uint64_t kPrunedPushRecordsMax = 1u << 12;

// Whether the exact push moves entry e of x_{t+1}: entries below a nonzero
// cutoff are dropped.
bool Survives(const SparseEntry& e, double cutoff) {
  return !(cutoff > 0.0 && std::abs(e.value) < cutoff);
}

/// The cutoff of a pruned exact push step from `x`: `prune`, or, where the
/// entries at or above it make more than kPrunedPushRecordsMax records,
/// the |entry| whose row, counted in descending order, passes that budget.
/// The step keeps its largest entries down to that one, so it always
/// pushes, and makes at most one row more than the budget, but for ties.
/// `order` is scratch.
double PrunedPushCutoff(const Graph& graph, const SparseVector& x,
                        double prune,
                        std::vector<std::pair<double, uint32_t>>& order) {
  order.clear();
  uint64_t records = 0;
  for (const SparseEntry& e : x) {
    if (!Survives(e, prune)) continue;
    const uint32_t out_deg = graph.OutDegree(e.index);
    records += out_deg;
    order.emplace_back(std::abs(e.value), out_deg);
  }
  if (records <= kPrunedPushRecordsMax) return prune;
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  size_t j = 0;
  uint64_t kept = order[0].second;
  while (kept <= kPrunedPushRecordsMax) kept += order[++j].second;
  return order[j].first;
}

/// The records the exact push step from `x` makes, Σ|Out(k)| over the
/// surviving entries, read from the out-offsets before any record is made.
/// Adds them to the stats' push_ops, and the ones whose ends `owner` puts
/// in different partitions to push_crossings.
uint64_t CountExactPush(const Graph& graph, const SparseVector& x,
                        double prune_threshold, QueryStats* stats,
                        const NodeOwnerFn* owner) {
  const uint64_t* const out_offsets = graph.OutOffsets().data();
  uint64_t records = 0;
  for (const SparseEntry& e : x) {
    if (Survives(e, prune_threshold)) {
      records += out_offsets[e.index + 1] - out_offsets[e.index];
    }
  }
  if (stats == nullptr) return records;
  stats->push_ops += records;
  if (owner == nullptr) return records;
  for (const SparseEntry& e : x) {
    if (!Survives(e, prune_threshold)) continue;
    for (const NodeId v : graph.OutNeighbors(e.index)) {
      stats->push_crossings += (*owner)(e.index) != (*owner)(v);
    }
  }
  return records;
}

/// The push half of one exact step, P^T x over x's surviving entries: calls
/// add(v, x[k] / |In(v)|) for every out-neighbor v of every surviving
/// entry k, in x's order, each row in edge order.
template <typename Add>
void ExactPushStep(const Graph& graph, const SparseVector& x,
                   double prune_threshold, Add&& add) {
  for (const SparseEntry& e : x) {
    if (!Survives(e, prune_threshold)) continue;
    for (const NodeId v : graph.OutNeighbors(e.index)) {
      add(v, e.value / static_cast<double>(graph.InDegree(v)));
    }
  }
}

}  // namespace

double SinglePairQuery(const Graph& graph, const DiagonalIndex& index,
                       NodeId i, NodeId j, const QueryOptions& options,
                       QueryStats* stats, const NodeOwnerFn* owner,
                       const WalkContext* context, const CancelToken* cancel,
                       const WalkBackend* backend) {
  CW_CHECK_LT(i, graph.num_nodes());
  CW_CHECK_LT(j, graph.num_nodes());
  CW_CHECK_EQ(index.num_nodes(), graph.num_nodes());
  if (i == j) return 1.0;

  const LocalWalkBackend local(graph, context, owner);
  if (backend == nullptr) backend = &local;
  const WalkConfig cfg = WalkConfigFromQuery(index, options, cancel);
  WalkStats wi, wj;
  const WalkDistributions di = backend->SimRankLevels(i, cfg, &wi);
  if (Stopped(cancel)) return 0.0;  // caller discards (request.h contract)
  const WalkDistributions dj = backend->SimRankLevels(j, cfg, &wj);
  if (stats != nullptr) {
    stats->walk_steps += wi.steps + wj.steps;
    stats->walk_crossings += wi.partition_crossings + wj.partition_crossings;
  }

  // t = 0 contributes nothing for i != j (e_i and e_j are disjoint).
  double estimate = 0.0;
  double ct = 1.0;
  const std::span<const double> diag = index.diagonal();
  for (size_t t = 0; t < di.levels.size(); ++t) {
    if (t > 0) {
      estimate +=
          ct * SparseVector::DotWeighted(di.levels[t], dj.levels[t], diag);
    }
    ct *= index.params().decay;
  }
  return estimate;
}

double SinglePairQueryPaired(const Graph& graph, const DiagonalIndex& index,
                             NodeId i, NodeId j, const QueryOptions& options,
                             QueryStats* stats) {
  CW_CHECK_LT(i, graph.num_nodes());
  CW_CHECK_LT(j, graph.num_nodes());
  CW_CHECK_EQ(index.num_nodes(), graph.num_nodes());
  if (i == j) return 1.0;

  // Streams are keyed by the unordered pair so that swapping (i, j) swaps
  // the walker roles but reproduces the same trajectories.
  const NodeId lo = std::min(i, j), hi = std::max(i, j);
  const uint64_t pair_key =
      DeriveSeed(options.seed, (static_cast<uint64_t>(lo) << 32) | hi);
  const std::span<const double> diag = index.diagonal();
  const double c = index.params().decay;
  const uint32_t t_steps = index.params().num_steps;

  double sum = 0.0;
  uint64_t steps = 0;
  for (uint32_t r = 0; r < options.num_walkers; ++r) {
    Xoshiro256 rng_lo = Xoshiro256::Derive(pair_key, 2ull * r);
    Xoshiro256 rng_hi = Xoshiro256::Derive(pair_key, 2ull * r + 1);
    NodeId a = lo, b = hi;
    double ct = 1.0;
    for (uint32_t t = 1; t <= t_steps; ++t) {
      a = StepReverse(graph, a, rng_lo, options.dangling);
      b = StepReverse(graph, b, rng_hi, options.dangling);
      steps += 2;
      if (a == kInvalidNode || b == kInvalidNode) break;
      ct *= c;
      if (a == b) sum += ct * diag[a];
    }
  }
  if (stats != nullptr) stats->walk_steps += steps;
  return sum / static_cast<double>(options.num_walkers);
}

SparseVector SingleSourceQuery(const Graph& graph, const DiagonalIndex& index,
                               NodeId q, const QueryOptions& options,
                               QueryStats* stats, const NodeOwnerFn* owner,
                               const WalkContext* context,
                               const CancelToken* cancel,
                               const WalkBackend* backend) {
  CW_CHECK_LT(q, graph.num_nodes());
  CW_CHECK_EQ(index.num_nodes(), graph.num_nodes());

  const LocalWalkBackend local(graph, context, owner);
  if (backend == nullptr) backend = &local;
  const WalkConfig cfg = WalkConfigFromQuery(index, options, cancel);
  WalkStats wq;
  const WalkDistributions dists = backend->SimRankLevels(q, cfg, &wq);

  if (stats != nullptr) {
    stats->walk_steps += wq.steps;
    stats->walk_crossings += wq.partition_crossings;
  }

  // Levels past the last live walker are empty; the recurrence starts at
  // the highest non-empty one. Level 0 holds q unless the backend
  // returned no walk at all.
  size_t top = dists.levels.size();
  while (top > 0 && dists.levels[top - 1].empty()) --top;
  if (top == 0) return SparseVector();
  std::vector<double> ct(top);  // c^t, the running product
  size_t widest = 0;            // entries of the largest level
  for (size_t t = 0; t < top; ++t) {
    ct[t] = t == 0 ? 1.0 : ct[t - 1] * index.params().decay;
    widest = std::max(widest, dists.levels[t].size());
  }
  // Calls add(k, z_t[k]) for the non-zeros of z_t = c^t D û_{q,t}, in
  // index order.
  const std::span<const double> diag = index.diagonal();
  const auto for_each_z = [&](size_t t, auto&& add) {
    for (const SparseEntry& e : dists.levels[t]) {
      const double v = ct[t] * diag[e.index] * e.value;
      if (v != 0.0) add(e.index, v);
    }
  };
  // The push drops the entries of x_{t+1} below prune_threshold times the
  // largest term the walks add past the source, max |z_t[k]| over t >= 1:
  // a source of in-degree d spreads its first level over about min(d, R')
  // nodes, so its scores, and the entries that carry them, shrink with d,
  // and a fixed cutoff would drop every level of a hub. A step whose
  // survivors make too many records is cut further (PrunedPushCutoff).
  double largest = 0.0;
  for (size_t t = 1; t < top; ++t) {
    for_each_z(t, [&largest](NodeId, double v) {
      largest = std::max(largest, std::abs(v));
    });
  }
  const double prune = options.prune_threshold * largest;

  // Horner form of sum_t (P^T)^t z_t: x_top = z_top, x_t = z_t + P^T
  // x_{t+1}, and the answer is x_0 — one push and one merge per level.
  std::vector<SparseEntry> x_top;
  x_top.reserve(dists.levels[top - 1].size());
  for_each_z(top - 1, [&x_top](NodeId k, double v) {
    x_top.push_back(SparseEntry{k, v});
  });
  SparseVector x = SparseVector::FromSorted(std::move(x_top));
  // Each node of x_t sums its push records in the order they are made,
  // then its z_t term, from 0.0. The records of a step of at most
  // kPushSortRecordsMax are folded with one stable sort (SumByIndex), as
  // are a pruned step's, which makes no more than its budget and one row.
  // A larger step adds them into the accumulator instead, sized like x_0,
  // the largest iterate, which holds about twice the largest level's
  // entries on R-MAT graphs.
  const uint32_t id_bits = NodeIdBits(graph.num_nodes());
  std::vector<SparseEntry> records, sort_buffer;
  const auto append = [&records](NodeId k, double v) {
    records.push_back(SparseEntry{k, v});
  };
  std::vector<std::pair<double, uint32_t>> order;  // PrunedPushCutoff's
  std::optional<SparseAccumulator> acc;  // made by the first oversized step
  for (size_t t = top - 1; t-- > 0;) {
    if (Stopped(cancel)) break;  // caller discards the truncated vector
    const double cutoff =
        prune > 0.0 ? PrunedPushCutoff(graph, x, prune, order) : 0.0;
    if (CountExactPush(graph, x, cutoff, stats, owner) <=
        kPushSortRecordsMax) {
      records.clear();
      ExactPushStep(graph, x, cutoff, append);
      for_each_z(t, append);
      x = SumByIndex(records, id_bits, sort_buffer);
    } else {
      if (!acc) acc.emplace(4 * widest);
      acc->Clear();
      const auto add = [&acc](NodeId k, double v) { acc->Add(k, v); };
      ExactPushStep(graph, x, cutoff, add);
      for_each_z(t, add);
      x = acc->ToSortedVector();
    }
  }
  return x;
}

SparseVector PersonalizedPageRankQuery(const Graph& graph,
                                       const DiagonalIndex& index, NodeId q,
                                       const QueryOptions& options,
                                       QueryStats* stats,
                                       const NodeOwnerFn* owner,
                                       const WalkContext* context,
                                       const CancelToken* cancel,
                                       const WalkBackend* backend) {
  CW_CHECK_LT(q, graph.num_nodes());
  CW_CHECK_EQ(index.num_nodes(), graph.num_nodes());
  const LocalWalkBackend local(graph, context, owner);
  if (backend == nullptr) backend = &local;
  const WalkConfig cfg = WalkConfigFromQuery(index, options, cancel);
  PprParams params;
  params.alpha = options.ppr_alpha;
  WalkStats wq;
  SparseVector endpoints = backend->PprEndpoints(q, cfg, params, &wq);
  if (stats != nullptr) {
    stats->walk_steps += wq.steps;
    stats->walk_crossings += wq.partition_crossings;
  }
  if (Stopped(cancel)) return SparseVector();  // caller discards
  return endpoints;
}

SparseVector Node2VecVisitQuery(const Graph& graph, const DiagonalIndex& index,
                                NodeId q, const QueryOptions& options,
                                QueryStats* stats, const NodeOwnerFn* owner,
                                const WalkContext* context,
                                const CancelToken* cancel,
                                const WalkBackend* backend) {
  CW_CHECK_LT(q, graph.num_nodes());
  CW_CHECK_EQ(index.num_nodes(), graph.num_nodes());
  const LocalWalkBackend local(graph, context, owner);
  if (backend == nullptr) backend = &local;
  const WalkConfig cfg = WalkConfigFromQuery(index, options, cancel);
  Node2VecParams params;
  params.return_p = options.n2v_return_p;
  params.in_out_q = options.n2v_in_out_q;
  WalkStats wq;
  const WalkDistributions dists = backend->Node2VecLevels(q, cfg, params, &wq);
  if (stats != nullptr) {
    stats->walk_steps += wq.steps;
    stats->walk_crossings += wq.partition_crossings;
  }
  if (Stopped(cancel)) return SparseVector();  // caller discards

  // Average the per-level visit frequencies over steps 1..T (level 0 is
  // the source itself and would trivially dominate its own ranking): one
  // record per visited (node, level), in level order, summed by node.
  const double inv_t = 1.0 / static_cast<double>(cfg.num_steps);
  size_t visits = 0;
  for (size_t t = 1; t < dists.levels.size(); ++t) {
    visits += dists.levels[t].size();
  }
  std::vector<SparseEntry> records, sort_buffer;
  records.reserve(visits);
  for (size_t t = 1; t < dists.levels.size(); ++t) {
    for (const SparseEntry& e : dists.levels[t]) {
      records.push_back(SparseEntry{e.index, e.value * inv_t});
    }
  }
  return SumByIndex(records, NodeIdBits(graph.num_nodes()), sort_buffer);
}

std::vector<ScoredNode> TopKFromSparse(const SparseVector& scores,
                                       NodeId exclude, size_t k) {
  // Ranks ahead: higher score, then lower node id.
  const auto ahead = [](const ScoredNode& a, const ScoredNode& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  };
  const bool has_exclude = std::binary_search(
      scores.begin(), scores.end(), SparseEntry{exclude, 0.0},
      [](const SparseEntry& a, const SparseEntry& b) {
        return a.index < b.index;
      });
  // Sized exactly: answers are cached, so no slack may ride along.
  std::vector<ScoredNode> top;
  top.reserve(std::min(k, scores.size() - (has_exclude ? 1 : 0)));
  if (k == 0) return top;
  // A bounded heap whose front is the last-ranked entry kept so far.
  for (const SparseEntry& e : scores) {
    if (e.index == exclude) continue;
    const ScoredNode candidate{e.index, e.value};
    if (top.size() < k) {
      top.push_back(candidate);
      std::push_heap(top.begin(), top.end(), ahead);
    } else if (ahead(candidate, top.front())) {
      std::pop_heap(top.begin(), top.end(), ahead);
      top.back() = candidate;
      std::push_heap(top.begin(), top.end(), ahead);
    }
  }
  std::sort_heap(top.begin(), top.end(), ahead);
  return top;
}

std::vector<std::vector<ScoredNode>> AllPairsTopK(
    const Graph& graph, const DiagonalIndex& index,
    const QueryOptions& options, size_t k, ThreadPool* pool,
    uint64_t* total_walk_steps, const WalkContext* context,
    const CancelToken* cancel, const WalkBackend* backend) {
  std::vector<std::vector<ScoredNode>> out(graph.num_nodes());
  std::atomic<uint64_t> steps{0};
  ParallelFor(pool, 0, graph.num_nodes(), /*grain=*/0,
              [&](uint64_t begin, uint64_t end) {
                uint64_t local_steps = 0;
                for (uint64_t q = begin; q < end; ++q) {
                  if (Stopped(cancel)) break;  // skip the remaining sources
                  QueryStats qs;
                  const SparseVector scores =
                      SingleSourceQuery(graph, index, static_cast<NodeId>(q),
                                        options, &qs, /*owner=*/nullptr,
                                        context, cancel, backend);
                  local_steps += qs.walk_steps;
                  out[q] = TopKFromSparse(scores, static_cast<NodeId>(q), k);
                }
                steps.fetch_add(local_steps, std::memory_order_relaxed);
              });
  if (total_walk_steps != nullptr) {
    *total_walk_steps += steps.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace cloudwalker
