// CloudWalker facade — the library's primary public API.
//
// Quickstart:
//
//   Graph graph = GenerateRmat(10'000, 150'000, /*seed=*/7);
//   ThreadPool pool;
//   auto cw = CloudWalker::Build(&graph, IndexingOptions{}, &pool);
//   CW_CHECK_OK(cw.status());
//   // One typed request in, one typed response out.
//   QueryResponse r = cw->Execute(QueryRequest::Pair(12, 34));
//   double s = r.score();
//   auto similar =
//       cw->Execute(QueryRequest::SourceTopK(12, 10)).topk();
//
// Execute() is the only query entry point (DESIGN.md section 6.1). It
// covers every query kind — the four SimRank shapes plus the walk-program
// kinds kPersonalizedPageRank and kNode2Vec (DESIGN.md section 10) —
// honors per-request QueryOptions overrides and deadlines, and fills
// execution metadata (QueryStats, latency).
//
// The facade owns the DiagonalIndex but only observes the graph; the graph
// must outlive the CloudWalker instance.

#ifndef CLOUDWALKER_CORE_CLOUDWALKER_H_
#define CLOUDWALKER_CORE_CLOUDWALKER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/threading.h"
#include "core/diagonal.h"
#include "core/indexer.h"
#include "core/options.h"
#include "core/queries.h"
#include "core/request.h"
#include "graph/graph.h"

namespace cloudwalker {

class SnapshotView;
class WalkBackend;
class PagedSnapshot;
class OutOfCoreWalkBackend;
struct ShardingOptions;
struct ParallelWalkOptions;
struct RemoteBackendOptions;
struct OutOfCoreOptions;
struct SnapshotMetadata;
enum class ReorderKind : uint32_t;

/// An indexed graph ready to answer SimRank queries through Execute(),
/// which is const and thread-safe (independent RNG streams per call).
///
/// Lifecycle (DESIGN.md section 9): the expensive offline work — index
/// estimation — happens once, in Build(); the result can be persisted with
/// WriteSnapshot() and reopened near-instantly with Open(), which mmaps the
/// artifact and serves every flat array zero-copy. The
/// shared_ptr-returning factories own everything they need (graph, index,
/// backing mmap), which is what lets the serving layer hot-swap whole
/// engine versions by swapping one pointer.
class CloudWalker {
 public:
  /// Runs offline indexing on `graph` (threaded via `pool`, serial when
  /// null) and returns a query-ready instance. `graph` is borrowed.
  static StatusOr<CloudWalker> Build(const Graph* graph,
                                     const IndexingOptions& options = {},
                                     ThreadPool* pool = nullptr);

  /// Owning build: takes the graph by value (move it in) and returns a
  /// self-contained engine — the instance keeps the graph alive, so it can
  /// be published to a registry or handed across threads freely.
  static StatusOr<std::shared_ptr<const CloudWalker>> Build(
      Graph&& graph, const IndexingOptions& options = {},
      ThreadPool* pool = nullptr);

  /// Opens a snapshot artifact written by WriteSnapshot() (format version
  /// 2, or 1 unless it is reordered; snapshot/snapshot.h). The CSR arrays
  /// and the D-vector are consumed zero-copy out of the mapping (the
  /// returned instance pins it), so opening costs one integrity pass
  /// instead of an index rebuild — and answers are bit-identical to the
  /// instance that wrote the snapshot.
  static StatusOr<std::shared_ptr<const CloudWalker>> Open(
      const std::string& path);

  /// Out-of-core open (DESIGN.md section 14): like Open(), but only the
  /// per-node arrays become resident — the per-edge walk arrays stay on
  /// disk and page in through a block cache capped at
  /// options.budget_bytes, so an artifact larger than RAM still serves
  /// every query kind. Answers are bit-identical to Open() of the same
  /// file. Restrictions: such an instance cannot WriteSnapshot() (it
  /// cannot read back every edge at once by design) and cannot be
  /// re-backed by Shard() / Parallelize() / Distribute().
  static StatusOr<std::shared_ptr<const CloudWalker>> OutOfCore(
      const std::string& path);

  /// As above with explicit knobs.
  static StatusOr<std::shared_ptr<const CloudWalker>> OutOfCore(
      const std::string& path, const OutOfCoreOptions& options);

  /// Persists this instance as one self-contained snapshot artifact
  /// (graph + index + build metadata); reopen with Open().
  /// Snapshot-backed instances mirror their source's format extensions
  /// (block index, target block bytes, permutation), so open-then-rewrite
  /// of a version 2 artifact is byte-stable; a version 1 source comes out
  /// as version 2.
  Status WriteSnapshot(const std::string& path) const;

  /// Renumbers the graph for walk locality (ooc/reorder.h) and persists
  /// the reordered artifact with its permutation section; Open() and
  /// OutOfCore() translate external ids at the API boundary, so callers
  /// of the reopened snapshot see the original id space. kNone writes an
  /// ordinary snapshot. Fails on an out-of-core or already-reordered
  /// instance.
  Status WriteReorderedSnapshot(const std::string& path,
                                ReorderKind kind) const;

  /// Wraps a previously built index for `graph`; the returned instance
  /// keeps `graph` alive. Fails when the index and graph disagree on the
  /// node count. The incremental-maintenance path uses this to wrap a
  /// refreshed (graph, index) pair for publication without re-estimating
  /// rows.
  static StatusOr<std::shared_ptr<const CloudWalker>> FromIndex(
      Graph&& graph, DiagonalIndex index);

  /// Re-backs `base` with the in-process sharded BSP walk engine
  /// (shard/sharded_engine.h, DESIGN.md section 11): every walk phase of
  /// every query kind fans out across options.num_shards shard workers and
  /// merges at the level barriers. Results are bit-identical to `base` at
  /// every shard count, so a sharded instance can transparently replace
  /// the single-node one anywhere — including behind QueryService, which
  /// preserves cache keys, dedup, deadlines, and cancellation unchanged.
  /// The returned instance shares base's graph / index / snapshot (base
  /// itself may be released).
  static StatusOr<std::shared_ptr<const CloudWalker>> Shard(
      const std::shared_ptr<const CloudWalker>& base,
      const ShardingOptions& options);

  /// Re-backs `base` with the multi-threaded walk executor
  /// (engine/parallel_walk.h, DESIGN.md section 12): every walk phase
  /// partitions its walker batch across options.num_threads workers and
  /// merges raw endpoints before the single aggregation pass. Results are
  /// bit-identical to `base` at every thread count (the counter RNG keys
  /// on global walker ids, never threads), so a parallel instance can
  /// transparently replace the single-threaded one anywhere — including
  /// behind QueryService (wrap before constructing or publishing). The
  /// returned instance shares base's graph / index / snapshot.
  static StatusOr<std::shared_ptr<const CloudWalker>> Parallelize(
      const std::shared_ptr<const CloudWalker>& base,
      const ParallelWalkOptions& options);

  /// Re-backs `base` with the socket-connected distributed walk backend
  /// (net/remote_backend.h, DESIGN.md section 13): every walk phase splits
  /// its walkers into one contiguous range per options.workers process,
  /// and each worker walks its range to the end over its own full replica
  /// of the in-CSR — the paper's Broadcasting model, one round trip per
  /// walk. The workers must serve the *same snapshot artifact* — the
  /// handshake pins the snapshot fingerprint, so `base` must be
  /// snapshot-backed (Open()); an in-memory build fails with
  /// kFailedPrecondition. Results are bit-identical to `base` at every
  /// worker count; a worker death mid-query is recovered by deterministic
  /// job replay, and a worker lost past the retry budget surfaces as
  /// kUnavailable (never a partial answer, never cached). The returned
  /// instance shares base's graph / index / snapshot.
  static StatusOr<std::shared_ptr<const CloudWalker>> Distribute(
      const std::shared_ptr<const CloudWalker>& base,
      const RemoteBackendOptions& options);

  /// The query entry point: answers any QueryRequest kind (core/request.h),
  /// applying the request's per-request options (default QueryOptions{}
  /// otherwise) and arming its deadline on an internal CancelToken. `pool`
  /// parallelizes kAllPairsTopK only. `cancel` (borrowed, optional) takes
  /// precedence over the request's own deadline — the serving layer
  /// passes its admission-armed token here. A request that fails
  /// ValidateQueryRequest() or is stopped reports its error
  /// (kDeadlineExceeded / kCancelled when stopped) with an empty payload.
  /// SimRank scores are clamped to [0, 1] and s(a, a) is exactly 1 (a
  /// kPair with a == b, kSingleSource's self entry); the top-k kinds
  /// exclude the source. kPersonalizedPageRank and kNode2Vec rank by walk
  /// frequencies (options.ppr_alpha, n2v_return_p / n2v_in_out_q).
  QueryResponse Execute(const QueryRequest& request,
                        ThreadPool* pool = nullptr,
                        const CancelToken* cancel = nullptr) const;

  /// The offline index.
  const DiagonalIndex& index() const { return index_; }

  /// Counters from the Build() indexing run (zeros for FromIndex; restored
  /// from the build metadata for Open()).
  const IndexingStats& indexing_stats() const { return stats_; }

  /// The options the index was built under (reconstructed from metadata
  /// for Open(); params only for FromIndex).
  const IndexingOptions& indexing_options() const {
    return indexing_options_;
  }

  /// The snapshot backing this instance, or null for in-memory builds
  /// (and for out-of-core opens, which expose paged_snapshot() instead).
  const std::shared_ptr<const SnapshotView>& snapshot() const {
    return snapshot_;
  }

  /// The out-of-core backend, or null unless this instance came from
  /// OutOfCore(). Exposes the paged snapshot and the cache counters.
  const std::shared_ptr<const OutOfCoreWalkBackend>& ooc_backend() const {
    return ooc_backend_;
  }

  /// The locality permutation (internal id -> external id) when this
  /// instance serves a reordered snapshot; empty otherwise. All public
  /// APIs speak external ids — this is observability only.
  std::span<const NodeId> permutation() const { return int_to_ext_; }

  /// The graph being queried.
  const Graph& graph() const { return *graph_; }

  /// The walk context (graph plus, on a reordered snapshot, the
  /// permutation that keys its walks and orders its in-rows;
  /// engine/walk.h) every query of this instance runs through.
  const WalkContext& walk_context() const { return *walk_context_; }

  /// The walk backend installed by Shard(), Parallelize(), Distribute()
  /// or OutOfCore(), or null when queries run the single-node backend over
  /// graph() and walk_context().
  const WalkBackend* walk_backend() const { return walk_backend_.get(); }

 private:
  CloudWalker(const Graph* graph, DiagonalIndex index, IndexingStats stats,
              IndexingOptions options)
      : CloudWalker(graph, std::move(index), stats, options,
                    std::make_shared<const WalkContext>(*graph)) {}

  // Snapshot path: the context carries the snapshot's in-row order.
  CloudWalker(const Graph* graph, DiagonalIndex index, IndexingStats stats,
              IndexingOptions options,
              std::shared_ptr<const WalkContext> context)
      : graph_(graph),
        index_(std::move(index)),
        stats_(std::move(stats)),
        indexing_options_(options),
        walk_context_(std::move(context)) {}

  // Execute() past validation: runs the kind's kernel, drains the walk
  // backend's first job-fatal error (remote backends can fail mid-job; see
  // WalkBackend::TakeError) and post-processes the answer into
  // response->payload. A stopped run returns the token's error status and
  // leaves the payload empty.
  Status Answer(const QueryRequest& request, const QueryOptions& options,
                ThreadPool* pool, const CancelToken* cancel,
                QueryResponse* response) const;

  // The build-metadata block WriteSnapshot stamps (shared with
  // WriteReorderedSnapshot).
  SnapshotMetadata BuildSnapshotMetadata() const;

  // External -> internal id translation of a reordered snapshot (the
  // identity when int_to_ext_ is empty). Every public API takes and
  // returns external ids; the kernels run on internal ids.
  NodeId ToInternal(NodeId external) const {
    return ext_to_int_.empty() ? external : ext_to_int_[external];
  }
  // Re-indexes a kernel-produced sparse vector into external id space
  // (sorted; pass-through when not reordered).
  SparseVector TranslateSparse(SparseVector raw) const;

  // Installs the id-translation state for a reordered snapshot (a no-op
  // for an empty `perm`): borrows `perm` (internal -> external; the
  // instance must pin its owner) and builds the inverse. The walks key on
  // external ids on their own, through the permutation every backend
  // reads from its copy of the artifact.
  void InstallPermutation(std::span<const NodeId> perm);

  const Graph* graph_;
  DiagonalIndex index_;
  IndexingStats stats_;
  IndexingOptions indexing_options_;
  // Shared so copies of the facade (Shard(), Parallelize(), ...) keep the
  // borrowed context alive for their backends.
  std::shared_ptr<const WalkContext> walk_context_;
  // Walk backend override (Shard(), Parallelize(), Distribute(),
  // OutOfCore()); null runs the single-node backend. The backend borrows
  // graph_ / walk_context_, which this instance pins.
  std::shared_ptr<const WalkBackend> walk_backend_;
  // Ownership plumbing of the shared_ptr factories: the heap graph (owning
  // Build / FromIndex / Open) and the backing mapping (Open). Null when
  // the graph is merely borrowed. graph_ aliases owned_graph_ when set.
  std::shared_ptr<const Graph> owned_graph_;
  std::shared_ptr<const SnapshotView> snapshot_;
  // OutOfCore(): the demand-paged backend (also aliased by walk_backend_).
  // Pins the PagedSnapshot the facade's graph / index spans alias.
  std::shared_ptr<const OutOfCoreWalkBackend> ooc_backend_;
  // Locality-reorder translation (empty unless the backing snapshot
  // carries a permutation). int_to_ext_ borrows the snapshot's
  // kPermutation span; ext_to_int_ is its materialized inverse.
  std::span<const NodeId> int_to_ext_;
  std::vector<NodeId> ext_to_int_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_CORE_CLOUDWALKER_H_
