// User-facing option structs for CloudWalker indexing and queries.
// Defaults are the paper's Table of default parameters:
//   c = 0.6, T = 10, L = 3, R = 100, R' = 10,000.

#ifndef CLOUDWALKER_CORE_OPTIONS_H_
#define CLOUDWALKER_CORE_OPTIONS_H_

#include <cstdint>

#include "common/status.h"
#include "engine/walk.h"

namespace cloudwalker {

/// The SimRank measure itself: decay factor c and series truncation T.
struct SimRankParams {
  /// Decay factor c in (0, 1).
  double decay = 0.6;
  /// Number of walk steps T (series truncated after c^T terms).
  uint32_t num_steps = 10;

  /// InvalidArgument unless 0 < decay < 1 and num_steps >= 1.
  Status Validate() const;

  bool operator==(const SimRankParams& o) const {
    return decay == o.decay && num_steps == o.num_steps;
  }
};

/// How the Jacobi solver obtains row a_k at each iteration.
enum class RowMode {
  /// Materialize all sparse rows once (O(n * R * T) memory, fastest).
  kStoreRows = 0,
  /// Re-run the (deterministically seeded) walks every Jacobi sweep
  /// (O(n) memory, L times the walk work) — the big-graph regime.
  kRegenerate = 1,
};

/// Offline indexing (estimation of diag(D)) parameters.
struct IndexingOptions {
  SimRankParams params;
  /// R — Monte-Carlo walkers per node when estimating rows of A.
  uint32_t num_walkers = 100;
  /// L — Jacobi iterations for A x = 1.
  uint32_t jacobi_iterations = 3;
  /// Master seed for all index-time randomness.
  uint64_t seed = 1;
  /// Row storage strategy (see RowMode).
  RowMode row_mode = RowMode::kStoreRows;
  /// Starting guess for diag(D); a negative value selects 1 - c, the exact
  /// solution on cycle-like graphs and the customary initialization.
  double initial_diagonal = -1.0;
  /// Behaviour at dangling (in-degree-0) nodes.
  DanglingPolicy dangling = DanglingPolicy::kDie;
  /// Also compute the residual max_k |(A x)_k - 1| after every iteration
  /// (one extra sweep each; useful for convergence studies).
  bool track_residuals = false;

  /// InvalidArgument unless params validate, num_walkers >= 1 and
  /// jacobi_iterations >= 1.
  Status Validate() const;
};

/// Online query (MCSP / MCSS / MCAP) parameters.
struct QueryOptions {
  /// R' — Monte-Carlo walkers per query source.
  uint32_t num_walkers = 10000;
  /// Seed for query-time randomness (streams derived per source node, so
  /// QueryRequest::Pair(i, j) and Pair(j, i) answer exactly alike).
  uint64_t seed = 97;
  /// The single-source push (MCSS, DESIGN.md section 5.1) is exact: each
  /// level's P^T step moves every entry of x_{t+1}, the merged mass of the
  /// levels above t, to all its out-neighbors. Entries below this times
  /// the source's largest walk term past level 0, max |z_t[k]| over
  /// t >= 1, are dropped before each push (0 disables pruning). The cutoff
  /// follows the source, so a hub, whose mass spreads over its many
  /// in-neighbors, keeps its levels; a pruned step past 4096 records keeps
  /// only its largest entries, down to the one whose row passes that
  /// budget. The default 0.03 answers bench_e2e's traffic as fully as the
  /// unpruned push, hubs included, and ranks above the absolute 1e-2
  /// cutoff it replaced on 2k-node R-MAT graphs (precision@10 0.67-0.77
  /// against exact SimRank).
  double prune_threshold = 0.03;
  /// Behaviour at dangling nodes (must match the index to be meaningful).
  DanglingPolicy dangling = DanglingPolicy::kDie;
  /// kPersonalizedPageRank: continuation probability alpha in (0, 1).
  double ppr_alpha = 0.85;
  /// kNode2Vec: return parameter p (> 0); revisiting the previous node is
  /// weighted 1/p.
  double n2v_return_p = 1.0;
  /// kNode2Vec: in-out parameter q (> 0); distance-2 nodes are weighted
  /// 1/q (distance-1 nodes keep weight 1).
  double n2v_in_out_q = 1.0;

  /// InvalidArgument unless num_walkers >= 1, prune_threshold >= 0 (NaN
  /// fails), 0 < ppr_alpha < 1, n2v_return_p > 0 and n2v_in_out_q > 0.
  /// Shim over ValidateQueryOptions() below.
  Status Validate() const;

  /// Two option sets are equal iff every knob matches — the relation the
  /// serving layer uses to fold per-request overrides into cache keys
  /// (equal options, equal answers; DESIGN.md section 6).
  bool operator==(const QueryOptions&) const = default;
};

/// The single source of truth for query-option validation. Every layer
/// that admits a QueryOptions — the CloudWalker facade, QueryService
/// admission, the CLI flag parser — calls this one function, so invalid
/// options are rejected with the same message everywhere.
Status ValidateQueryOptions(const QueryOptions& options);

/// Deterministic 64-bit digest of every QueryOptions knob. Equal options
/// hash equal (it feeds the serving layer's intern-table buckets; equality
/// is always re-verified there) and the snapshot format stamps it into the
/// build metadata so an operator can tell which default options a snapshot
/// was validated against (DESIGN.md section 9).
uint64_t QueryOptionsFingerprint(const QueryOptions& options);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_CORE_OPTIONS_H_
