#include "core/queries.h"

#include <algorithm>
#include <atomic>
#include <span>

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

// Draws a sampled push step keeps in flight, so that the out-target and
// in-offset misses of a whole batch overlap.
constexpr uint32_t kPushBatch = 64;

/// One sampled forward-push step: an unbiased one-sample estimate of
/// z' = P^T z, as records for SumByIndex. Mass at node k moves to
/// `fanout` sampled out-neighbors v, reweighted by
/// |Out(k)| / (fanout * |In(v)|). Runs as the walk kernel's three-pass
/// prefetch pipeline over batches of kPushBatch draws (DESIGN.md section
/// 5.1): draw the out-edge slots and prefetch their targets; read the
/// targets and prefetch their in-offsets; append. `out` receives one
/// record per draw, in draw order, which does not depend on the batching.
void SampledPushStep(const Graph& graph, const SparseVector& z,
                     uint32_t fanout, Xoshiro256& rng,
                     std::vector<SparseEntry>& out, QueryStats* stats,
                     const NodeOwnerFn* owner) {
  out.clear();
  const uint64_t* const out_offsets = graph.OutOffsets().data();
  const NodeId* const out_targets = graph.OutTargets().data();
  const uint64_t* const in_offsets = graph.InOffsets().data();
  uint64_t slot[kPushBatch];
  double scale[kPushBatch];
  NodeId from[kPushBatch];
  NodeId to[kPushBatch];
  size_t i = 0;    // next entry of z to draw for
  uint32_t f = 0;  // draws already made for entry i
  while (i < z.size()) {
    // Pass 1: draw in entry order; a batch may end inside an entry.
    uint32_t n = 0;
    while (n < kPushBatch && i < z.size()) {
      const NodeId k = z[i].index;
      const uint64_t row = out_offsets[k];
      const uint32_t out_deg = static_cast<uint32_t>(out_offsets[k + 1] - row);
      if (out_deg == 0) {  // k is in nobody's in-neighborhood
        ++i;
        continue;
      }
      const double s = z[i].value * static_cast<double>(out_deg) /
                       static_cast<double>(fanout);
      for (; f < fanout && n < kPushBatch; ++f, ++n) {
        slot[n] = row + rng.UniformInt32(out_deg);
        PrefetchRead(out_targets + slot[n]);
        scale[n] = s;
        from[n] = k;
      }
      if (f == fanout) {
        f = 0;
        ++i;
      }
    }
    // Pass 2: read the targets, prefetch their in-offsets.
    for (uint32_t j = 0; j < n; ++j) {
      to[j] = out_targets[slot[j]];
      PrefetchRead(in_offsets + to[j]);
    }
    // Pass 3: append, in draw order.
    for (uint32_t j = 0; j < n; ++j) {
      const NodeId v = to[j];
      const uint32_t in_deg =
          static_cast<uint32_t>(in_offsets[v + 1] - in_offsets[v]);
      CW_DCHECK(in_deg > 0);  // v has at least the edge k -> v
      out.push_back(SparseEntry{v, scale[j] / static_cast<double>(in_deg)});
      if (stats != nullptr) {
        ++stats->push_ops;
        if (owner != nullptr && (*owner)(from[j]) != (*owner)(v)) {
          ++stats->push_crossings;
        }
      }
    }
  }
}

/// Exact forward-push step z' = P^T z with optional epsilon pruning.
void ExactPushStep(const Graph& graph, const SparseVector& z,
                   double prune_threshold, SparseAccumulator& out,
                   QueryStats* stats, const NodeOwnerFn* owner) {
  out.Clear();
  for (const SparseEntry& e : z) {
    if (prune_threshold > 0.0 && std::abs(e.value) < prune_threshold) {
      continue;
    }
    for (const NodeId v : graph.OutNeighbors(e.index)) {
      out.Add(v, e.value / static_cast<double>(graph.InDegree(v)));
      if (stats != nullptr) {
        ++stats->push_ops;
        if (owner != nullptr && (*owner)(e.index) != (*owner)(v)) {
          ++stats->push_crossings;
        }
      }
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

  // Horner form of sum_t (P^T)^t z_t: x_top = z_top, x_t = z_t + P^T
  // x_{t+1}, and the answer is x_0 — one push and one merge per level.
  std::vector<SparseEntry> x_top;
  x_top.reserve(dists.levels[top - 1].size());
  for_each_z(top - 1, [&x_top](NodeId k, double v) {
    x_top.push_back(SparseEntry{k, v});
  });
  SparseVector x = SparseVector::FromSorted(std::move(x_top));
  Xoshiro256 rng =
      Xoshiro256::Derive(DeriveSeed(options.seed, 0x4d435353u /*MCSS*/), q);
  // The sampled push makes about 1.3 records per distinct node, which
  // SumByIndex folds with one stable sort: the push's records in draw
  // order, then z_t's. The exact push makes sum_k |Out(k)| records per
  // level, which the accumulator merges in place; x_0, the largest
  // iterate, holds about twice the largest level's entries on R-MAT
  // graphs, so a table sized for four times that level starts about a
  // quarter full, and the exact push grows it.
  const bool sampled = options.push == PushStrategy::kSampled;
  const uint32_t id_bits = NodeIdBits(graph.num_nodes());
  std::vector<SparseEntry> records, sort_buffer;
  SparseAccumulator acc(sampled ? 0 : 4 * widest);
  for (size_t t = top - 1; t-- > 0;) {
    if (Stopped(cancel)) break;  // caller discards the truncated vector
    if (sampled) {
      SampledPushStep(graph, x, options.push_fanout, rng, records, stats,
                      owner);
      for_each_z(t, [&records](NodeId k, double v) {
        records.push_back(SparseEntry{k, v});
      });
      x = SumByIndex(records, id_bits, sort_buffer);
    } else {
      ExactPushStep(graph, x, options.prune_threshold, acc, stats, owner);
      for_each_z(t, [&acc](NodeId k, double v) { acc.Add(k, v); });
      x = acc.ToSortedVector();
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
