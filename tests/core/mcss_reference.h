// Test-only references for SingleSourceQuery (src/core/queries.cc).
//
// NestedSingleSource is the nested MCSS combine that the Horner recurrence
// replaced. Each level's z_t = c^t D û_{q,t} is pushed through P^T t times
// on its own, unpruned, and the level chains are summed in level order:
// T(T+1)/2 pushes per query. It differs from the unpruned Horner form only
// in how the sums associate.
//
// AccumulatorExactSingleSource is the Horner recurrence with the exact
// push step that the sort-and-merge step replaced: every record of a
// level, then z_t, added into one hash accumulator. Each node's sum adds
// its terms in that order from 0.0, which the replacement keeps, so the
// two agree bit for bit.

#ifndef CLOUDWALKER_TESTS_CORE_MCSS_REFERENCE_H_
#define CLOUDWALKER_TESTS_CORE_MCSS_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/sparse.h"
#include "core/diagonal.h"
#include "core/options.h"
#include "core/queries.h"
#include "engine/walk.h"
#include "graph/graph.h"

namespace cloudwalker {
namespace mcss_reference {

/// The walk SingleSourceQuery runs for (q, options) on `index`.
inline WalkDistributions QueryWalks(const Graph& graph,
                                    const DiagonalIndex& index, NodeId q,
                                    const QueryOptions& options,
                                    WalkStats* stats = nullptr) {
  WalkConfig cfg;
  cfg.num_steps = index.params().num_steps;
  cfg.num_walkers = options.num_walkers;
  cfg.dangling = options.dangling;
  cfg.seed = options.seed;
  return SimulateWalkDistributions(graph, q, cfg, nullptr, nullptr, stats);
}

inline void CountPush(NodeId from, NodeId to, QueryStats* stats,
                      const NodeOwnerFn* owner) {
  if (stats == nullptr) return;
  ++stats->push_ops;
  if (owner != nullptr && (*owner)(from) != (*owner)(to)) {
    ++stats->push_crossings;
  }
}

/// One exact push step, dropping entries of z below `prune_threshold`, an
/// absolute cutoff (0 keeps every entry).
inline void ExactPush(const Graph& graph, const SparseVector& z,
                      double prune_threshold, SparseAccumulator& out,
                      QueryStats* stats, const NodeOwnerFn* owner) {
  out.Clear();
  for (const SparseEntry& e : z) {
    if (prune_threshold > 0.0 && std::abs(e.value) < prune_threshold) {
      continue;
    }
    for (const NodeId v : graph.OutNeighbors(e.index)) {
      out.Add(v, e.value / static_cast<double>(graph.InDegree(v)));
      CountPush(e.index, v, stats, owner);
    }
  }
}

/// The nested combine over a source's walk `dists`: s(q, ·) =
/// sum_t (P^T)^t z_t, each level's chain pushed on its own, unpruned.
inline SparseVector NestedSingleSource(const Graph& graph,
                                       const DiagonalIndex& index,
                                       const QueryOptions& options,
                                       const WalkDistributions& dists,
                                       QueryStats* stats = nullptr,
                                       const NodeOwnerFn* owner = nullptr) {
  const std::span<const double> diag = index.diagonal();
  SparseAccumulator result(options.num_walkers * 4);
  SparseAccumulator ping(options.num_walkers * 2);
  SparseAccumulator pong(options.num_walkers * 2);
  double ct = 1.0;
  for (size_t t = 0; t < dists.levels.size(); ++t) {
    std::vector<SparseEntry> z_entries;
    for (const SparseEntry& e : dists.levels[t]) {
      const double v = ct * diag[e.index] * e.value;
      if (v != 0.0) z_entries.push_back(SparseEntry{e.index, v});
    }
    SparseVector z = SparseVector::FromSorted(std::move(z_entries));
    if (t == 0) {
      for (const SparseEntry& e : z) result.Add(e.index, e.value);
    }
    for (size_t step = 0; step < t && !z.empty(); ++step) {
      SparseAccumulator& out = (step % 2 == 0) ? ping : pong;
      ExactPush(graph, z, /*prune_threshold=*/0.0, out, stats, owner);
      if (step + 1 < t) {
        z = out.ToSortedVector();
      } else {
        out.ForEach([&result](uint32_t k, double v) { result.Add(k, v); });
      }
    }
    ct *= index.params().decay;
  }
  return result.ToSortedVector();
}

/// The cutoff of a pruned step from `x` with a budget of `max_records`
/// records: `prune`, or, where the entries at or above it make more, the
/// value of the entry whose row, counted in descending order of value,
/// passes the budget.
inline double BudgetCutoff(const Graph& graph, const SparseVector& x,
                           double prune, uint64_t max_records) {
  std::vector<std::pair<double, uint32_t>> kept;
  uint64_t records = 0;
  for (const SparseEntry& e : x) {
    if (std::abs(e.value) < prune) continue;
    kept.emplace_back(std::abs(e.value), graph.OutDegree(e.index));
    records += kept.back().second;
  }
  if (records <= max_records) return prune;
  std::sort(kept.begin(), kept.end(), std::greater<>());
  records = 0;
  for (const auto& [value, out_deg] : kept) {
    records += out_deg;
    if (records > max_records) return value;
  }
  return prune;
}

/// The Horner combine over the walk `dists` of q with the accumulator's
/// exact push step: x_top = z_top, x_t = z_t + P^T x_{t+1}. A nonzero
/// options.prune_threshold drops x_{t+1}'s entries below it times the
/// largest z_t entry, t >= 1, and, past `max_records` records a step,
/// BudgetCutoff's. `level_records`, when given, receives the push records
/// each step made, top step first.
inline SparseVector AccumulatorExactSingleSource(
    const Graph& graph, const DiagonalIndex& index,
    const QueryOptions& options, const WalkDistributions& dists,
    uint64_t max_records, QueryStats* stats = nullptr,
    const NodeOwnerFn* owner = nullptr,
    std::vector<uint64_t>* level_records = nullptr) {
  size_t top = dists.levels.size();
  while (top > 0 && dists.levels[top - 1].empty()) --top;
  if (top == 0) return SparseVector();
  const std::span<const double> diag = index.diagonal();
  std::vector<double> ct(top);
  for (size_t t = 0; t < top; ++t) {
    ct[t] = t == 0 ? 1.0 : ct[t - 1] * index.params().decay;
  }
  SparseAccumulator acc;
  const auto add_z = [&](size_t t) {
    for (const SparseEntry& e : dists.levels[t]) {
      const double v = ct[t] * diag[e.index] * e.value;
      if (v != 0.0) acc.Add(e.index, v);
    }
  };
  double largest = 0.0;
  for (size_t t = 1; t < top; ++t) {
    for (const SparseEntry& e : dists.levels[t]) {
      largest = std::max(largest, std::abs(ct[t] * diag[e.index] * e.value));
    }
  }
  add_z(top - 1);
  SparseVector x = acc.ToSortedVector();
  for (size_t t = top - 1; t-- > 0;) {
    QueryStats step;
    const double prune = options.prune_threshold * largest;
    ExactPush(graph, x,
              prune > 0.0 ? BudgetCutoff(graph, x, prune, max_records) : 0.0,
              acc, &step, owner);
    if (stats != nullptr) {
      stats->push_ops += step.push_ops;
      stats->push_crossings += step.push_crossings;
    }
    if (level_records != nullptr) level_records->push_back(step.push_ops);
    add_z(t);
    x = acc.ToSortedVector();
  }
  return x;
}

}  // namespace mcss_reference
}  // namespace cloudwalker

#endif  // CLOUDWALKER_TESTS_CORE_MCSS_REFERENCE_H_
