#include "core/indexer.h"

#include <atomic>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/timer.h"
#include "engine/walk.h"
#include "engine/walk_driver.h"
#include "engine/walk_step.h"

namespace cloudwalker {
namespace {

WalkConfig WalkConfigFromIndexing(const IndexingOptions& options) {
  WalkConfig cfg;
  cfg.num_steps = options.params.num_steps;
  cfg.num_walkers = options.num_walkers;
  cfg.dangling = options.dangling;
  cfg.seed = options.seed;
  return cfg;
}

}  // namespace

SparseVector RowFromWalkDistributions(const WalkDistributions& dists,
                                      double decay,
                                      SparseAccumulator* scratch_row) {
  SparseAccumulator local(64);
  SparseAccumulator& acc = scratch_row != nullptr ? *scratch_row : local;
  acc.Clear();
  double ct = 1.0;
  for (const SparseVector& level : dists.levels) {
    for (const SparseEntry& e : level) {
      acc.Add(e.index, ct * e.value * e.value);
    }
    ct *= decay;
  }
  return acc.ToSortedVector();
}

SparseVector BuildIndexRow(const Graph& graph, NodeId k,
                           const IndexingOptions& options,
                           WalkScratch* scratch_walk,
                           IndexRowScratch* scratch_row, uint64_t* steps) {
  using Record = IndexRowScratch::Record;
  IndexRowScratch local;
  IndexRowScratch& s = scratch_row != nullptr ? *scratch_row : local;
  const WalkConfig config = WalkConfigFromIndexing(options);
  const uint32_t num_steps = config.num_steps;
  for (std::vector<NodeId>& level : s.raw_levels) level.clear();
  s.raw_levels.resize(num_steps);
  WalkStats walk_stats;
  (void)LevelLoop::Run(CsrLevels::In(graph), k, config,
                       SimRankPolicy(config, k), 0, config.num_walkers,
                       scratch_walk, &walk_stats,
                       WalkOutput{.raw_levels = &s.raw_levels});
  if (steps != nullptr) *steps += walk_stats.steps;

  // e_k as level 0, then every level's endpoints in level order: the
  // stable sort by node leaves each node's records in level order.
  s.records.clear();
  s.records.push_back(Record{k, 0});
  for (uint32_t t = 1; t <= num_steps; ++t) {
    for (const NodeId v : s.raw_levels[t - 1]) {
      s.records.push_back(Record{v, t});
    }
  }
  const uint32_t n = static_cast<uint32_t>(s.records.size());
  const Record* sorted =
      SortByKey(s.records.data(), n, NodeIdBits(graph.num_nodes()),
                s.sort_buffer, [](const Record& r) { return r.node; });

  // RowFromWalkDistributions's arithmetic in its order: a (node, level t)
  // run of length r is the level's value r / R (1 for e_k at level 0, as
  // AggregateSortedRuns and SourceLevels compute it) and adds
  // c^t * value * value, c^t the same running product of decay, to its
  // node's sum from 0.0.
  const double inv_r = 1.0 / static_cast<double>(config.num_walkers);
  std::vector<double> decay_pow(num_steps + 1);
  decay_pow[0] = 1.0;
  for (uint32_t t = 1; t <= num_steps; ++t) {
    decay_pow[t] = decay_pow[t - 1] * options.params.decay;
  }
  uint32_t distinct = 0;
  for (uint32_t i = 0; i < n; ++i) {
    distinct += i == 0 || sorted[i].node != sorted[i - 1].node;
  }
  std::vector<SparseEntry> entries;
  entries.reserve(distinct);  // exact: kStoreRows keeps every row
  for (uint32_t i = 0; i < n;) {
    const NodeId node = sorted[i].node;
    double sum = 0.0;
    while (i < n && sorted[i].node == node) {
      const uint32_t t = sorted[i].level;
      uint32_t end = i + 1;
      while (end < n && sorted[end].node == node && sorted[end].level == t) {
        ++end;
      }
      const double value =
          t == 0 ? 1.0 : static_cast<double>(end - i) * inv_r;
      sum += decay_pow[t] * value * value;
      i = end;
    }
    entries.push_back(SparseEntry{node, sum});
  }
  return SparseVector::FromSorted(std::move(entries));
}

namespace {

/// Per-chunk indexing state: padded walk scratch plus the row scratch,
/// grouped so parallel row builders share no cache lines.
struct alignas(kCacheLineBytes) IndexWorkerState {
  explicit IndexWorkerState(const IndexingOptions& options)
      : walk(options.num_walkers) {}
  WalkScratch walk;  // alignas(kCacheLineBytes) itself
  IndexRowScratch row;
};
static_assert(alignof(IndexWorkerState) >= kCacheLineBytes);

}  // namespace

IndexRows BuildIndexRows(const Graph& graph, const IndexingOptions& options,
                         ThreadPool* pool) {
  IndexRows out;
  out.rows.resize(graph.num_nodes());
  std::atomic<uint64_t> total_steps{0};
  ParallelFor(pool, 0, graph.num_nodes(), /*grain=*/0,
              [&](uint64_t begin, uint64_t end) {
                IndexWorkerState state(options);
                uint64_t steps = 0;
                for (uint64_t v = begin; v < end; ++v) {
                  out.rows[v] =
                      BuildIndexRow(graph, static_cast<NodeId>(v), options,
                                    &state.walk, &state.row, &steps);
                }
                total_steps.fetch_add(steps, std::memory_order_relaxed);
              });
  out.total_walk_steps = total_steps.load(std::memory_order_relaxed);
  return out;
}

std::vector<double> JacobiSweep(const std::vector<SparseVector>& rows,
                                const std::vector<double>& x,
                                ThreadPool* pool) {
  CW_CHECK_EQ(rows.size(), x.size());
  std::vector<double> next(x.size());
  ParallelFor(pool, 0, rows.size(), /*grain=*/0,
              [&rows, &x, &next](uint64_t begin, uint64_t end) {
                for (uint64_t k = begin; k < end; ++k) {
                  double off = 0.0;
                  double diag = 0.0;
                  for (const SparseEntry& e : rows[k]) {
                    if (e.index == k) {
                      diag = e.value;
                    } else {
                      off += e.value * x[e.index];
                    }
                  }
                  next[k] = diag != 0.0 ? (1.0 - off) / diag : x[k];
                }
              });
  return next;
}

double JacobiResidual(const std::vector<SparseVector>& rows,
                      const std::vector<double>& x, ThreadPool* pool) {
  CW_CHECK_EQ(rows.size(), x.size());
  std::atomic<uint64_t> max_bits{0};
  ParallelFor(pool, 0, rows.size(), /*grain=*/0,
              [&rows, &x, &max_bits](uint64_t begin, uint64_t end) {
                double local = 0.0;
                for (uint64_t k = begin; k < end; ++k) {
                  double ax = 0.0;
                  for (const SparseEntry& e : rows[k]) {
                    ax += e.value * x[e.index];
                  }
                  local = std::max(local, std::fabs(ax - 1.0));
                }
                // Lock-free max via the monotone bit pattern of
                // non-negative doubles.
                uint64_t bits;
                static_assert(sizeof(bits) == sizeof(local));
                std::memcpy(&bits, &local, sizeof(bits));
                uint64_t seen = max_bits.load(std::memory_order_relaxed);
                while (bits > seen && !max_bits.compare_exchange_weak(
                                          seen, bits,
                                          std::memory_order_relaxed)) {
                }
              });
  double out;
  const uint64_t bits = max_bits.load(std::memory_order_relaxed);
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

StatusOr<DiagonalIndex> BuildDiagonalIndex(const Graph& graph,
                                           const IndexingOptions& options,
                                           ThreadPool* pool,
                                           IndexingStats* stats) {
  CW_RETURN_IF_ERROR(options.Validate());
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot index an empty graph");
  }
  if (options.row_mode == RowMode::kRegenerate && options.track_residuals) {
    return Status::InvalidArgument(
        "track_residuals requires RowMode::kStoreRows (regenerate mode "
        "would double the walk work per iteration)");
  }

  IndexingStats local_stats;
  IndexingStats& st = stats != nullptr ? *stats : local_stats;
  st = IndexingStats{};

  const double x0 = options.initial_diagonal >= 0.0
                        ? options.initial_diagonal
                        : 1.0 - options.params.decay;
  std::vector<double> x(graph.num_nodes(), x0);

  if (options.row_mode == RowMode::kStoreRows) {
    WallTimer walk_timer;
    const IndexRows rows = BuildIndexRows(graph, options, pool);
    st.walk_steps = rows.total_walk_steps;
    for (const SparseVector& r : rows.rows) st.row_nonzeros += r.size();
    st.walk_seconds = walk_timer.Seconds();

    WallTimer solve_timer;
    for (uint32_t it = 0; it < options.jacobi_iterations; ++it) {
      x = JacobiSweep(rows.rows, x, pool);
      if (options.track_residuals) {
        st.residuals.push_back(JacobiResidual(rows.rows, x, pool));
      }
    }
    st.solve_seconds = solve_timer.Seconds();
  } else {
    // kRegenerate: each sweep re-derives every row from its per-node seed,
    // so all sweeps see the same matrix A without storing it.
    WallTimer solve_timer;
    std::atomic<uint64_t> total_steps{0};
    std::atomic<uint64_t> total_nnz{0};
    for (uint32_t it = 0; it < options.jacobi_iterations; ++it) {
      std::vector<double> next(x.size());
      const bool count_this_pass = it == 0;
      ParallelFor(
          pool, 0, graph.num_nodes(), /*grain=*/0,
          [&](uint64_t begin, uint64_t end) {
            IndexWorkerState state(options);
            uint64_t steps = 0, nnz = 0;
            for (uint64_t k = begin; k < end; ++k) {
              const SparseVector row =
                  BuildIndexRow(graph, static_cast<NodeId>(k), options,
                                &state.walk, &state.row, &steps);
              nnz += row.size();
              double off = 0.0, diag = 0.0;
              for (const SparseEntry& e : row) {
                if (e.index == k) {
                  diag = e.value;
                } else {
                  off += e.value * x[e.index];
                }
              }
              next[k] = diag != 0.0 ? (1.0 - off) / diag : x[k];
            }
            if (count_this_pass) {
              total_steps.fetch_add(steps, std::memory_order_relaxed);
              total_nnz.fetch_add(nnz, std::memory_order_relaxed);
            }
          });
      x = std::move(next);
      // Residual tracking in regenerate mode would double the walk work per
      // iteration; not supported (use kStoreRows for convergence studies).
    }
    st.walk_steps = total_steps.load(std::memory_order_relaxed) *
                    options.jacobi_iterations;
    st.row_nonzeros = total_nnz.load(std::memory_order_relaxed);
    st.solve_seconds = solve_timer.Seconds();
  }

  return DiagonalIndex(options.params, std::move(x));
}

}  // namespace cloudwalker
