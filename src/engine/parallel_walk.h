// ParallelWalkExecutor — the multi-threaded walk backend (DESIGN.md
// section 12).
//
// A walk batch of R walkers is an embarrassingly parallel job *except* for
// its aggregation: the stateless counter RNG keys every draw on
// (seed, source, walker, step), never on the executing thread, so any
// partition of the walker ids produces the same endpoint multisets. The
// executor splits [0, R) into contiguous ranges (at least
// `min_walkers_per_range` walkers each, at most one per worker thread),
// runs the level loop (engine/walk_driver.h) once per range over the
// in-CSR with its own cache-line-padded WalkScratch, seeding its records
// with their global walker ids, and merges by concatenating the ranges'
// *raw* endpoint lists before aggregating once with the shared
// sort-and-RLE pass. Summing per-range SparseVectors instead would
// reassociate doubles and break bit-identity — the merge must happen on
// node ids, not on aggregated values.
//
// The executor is a WalkBackend, so it slots behind CloudWalker /
// QueryService exactly like the sharded engine: the combine phases of the
// six query kinds never know walkers ran on more than one thread.
// Immutable and thread-safe after Build — concurrent queries share the
// worker pool (each ParallelFor call blocks only on its own chunks).

#ifndef CLOUDWALKER_ENGINE_PARALLEL_WALK_H_
#define CLOUDWALKER_ENGINE_PARALLEL_WALK_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/threading.h"
#include "engine/walk.h"
#include "engine/walk_backend.h"

namespace cloudwalker {

/// Tuning knobs of the parallel executor.
struct ParallelWalkOptions {
  /// Worker threads; 0 selects the hardware concurrency (at least 1).
  /// A resolved count of 1 runs every batch on the calling thread.
  int num_threads = 0;
  /// Minimum walkers per range: batches smaller than 2x this run serially
  /// (pool handoff would cost more than it buys). Must be >= 1.
  uint32_t min_walkers_per_range = 256;
};

/// Multi-threaded WalkBackend over one graph. Borrows `graph` and
/// `context_or_null` (both must outlive the executor); owns its thread
/// pool. Results are bit-identical to LocalWalkBackend for every thread
/// count and every option setting.
class ParallelWalkExecutor final : public WalkFront<ParallelWalkExecutor> {
 public:
  static StatusOr<std::shared_ptr<const ParallelWalkExecutor>> Build(
      const Graph& graph, const WalkContext* context_or_null,
      const ParallelWalkOptions& options = {});

  /// Resolved worker count (>= 1).
  int num_threads() const { return num_threads_; }

 private:
  friend class WalkFront<ParallelWalkExecutor>;

  ParallelWalkExecutor(const Graph& graph, const WalkContext* context_or_null,
                       const ParallelWalkOptions& options, int num_threads);

  /// Splits [0, R') into ranges honoring min_walkers_per_range (at most
  /// one per thread), runs `policy`'s walk over them and merges them into
  /// `out` (engine/walk_driver.h). One range runs the level loop directly.
  template <typename Policy>
  Status Walk(NodeId source, const WalkConfig& config, const Policy& policy,
              WalkStats* stats, const WalkOutput& out) const;

  const Graph* graph_;
  ParallelWalkOptions options_;
  int num_threads_;
  // Null when num_threads_ == 1. Mutable because enqueueing work is not
  // logically a mutation of the (immutable) executor.
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_PARALLEL_WALK_H_
