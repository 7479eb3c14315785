// WalkBackend — the seam between the query kernels and the machinery that
// actually advances walkers.
//
// Every query kind decomposes into a *walk phase* (simulate R' walkers from
// one source) and a *combine phase* (dot products, pushes, top-k) that only
// consumes the walk phase's aggregated output. The kernels in
// core/queries.cc run their walk phases through this interface, so swapping
// the backend — single-node batched kernel vs the in-process sharded BSP
// engine (DESIGN.md section 11) — changes *where* walkers run without
// touching a single combine line. Bit-identity between backends then
// reduces to one obligation: produce the same aggregated distributions,
// which the stateless counter RNG (every draw a pure function of
// (seed, source, walker, step[, trial])) plus the order-independent
// sort-and-RLE endpoint aggregation make provable by exact equality.
//
// Implementations must be immutable after construction and thread-safe:
// the serving layer calls one backend from many threads concurrently.
//
// Every backend of the library is built on WalkFront below, which writes
// the three walk methods and the error slot once: it builds each
// program's policy, keyed on the backend's reorder permutation, and hands
// it to the backend's Walk, which runs the level loop (engine/
// walk_driver.h) over the backend's executor.

#ifndef CLOUDWALKER_ENGINE_WALK_BACKEND_H_
#define CLOUDWALKER_ENGINE_WALK_BACKEND_H_

#include <mutex>
#include <span>
#include <vector>

#include "common/sparse.h"
#include "common/status.h"
#include "engine/walk.h"
#include "engine/walk_driver.h"
#include "engine/walk_program.h"
#include "engine/walk_step.h"
#include "graph/graph.h"

namespace cloudwalker {

/// The walk phases of the six query kinds. `stats` (optional) accumulates
/// steps and partition crossings; cancellation rides in `config.cancel`
/// (a stopped walk returns a truncated result the caller must discard
/// after observing the token, exactly as in engine/walk.h).
class WalkBackend {
 public:
  virtual ~WalkBackend() = default;

  /// SimRank's endpoint-per-level walk: û_{source,t} for t = 0..T.
  virtual WalkDistributions SimRankLevels(NodeId source,
                                          const WalkConfig& config,
                                          WalkStats* stats) const = 0;

  /// Personalized PageRank teleport walk: the empirical terminal-endpoint
  /// distribution (engine/walk_program.h).
  virtual SparseVector PprEndpoints(NodeId source, const WalkConfig& config,
                                    const PprParams& params,
                                    WalkStats* stats) const = 0;

  /// Second-order node2vec walk: per-level visit distributions.
  virtual WalkDistributions Node2VecLevels(NodeId source,
                                           const WalkConfig& config,
                                           const Node2VecParams& params,
                                           WalkStats* stats) const = 0;

  /// Drains the first job-fatal backend error since the last drain (e.g. a
  /// remote worker unreachable past its retry budget). The walk methods
  /// return plain values, so a backend that can fail mid-job records the
  /// error here and returns a truncated result; the facade checks this
  /// beside its cancellation checks and surfaces the error instead of the
  /// partial answer — which is also what keeps partial answers out of the
  /// serving cache (QueryService only caches ok responses). In-process
  /// backends cannot fail: the default is always Ok.
  virtual Status TakeError() const { return Status::Ok(); }
};

/// The shared front of every backend (CRTP): the three walk methods and
/// the first-error slot, written once. Each method builds its program's
/// policy keyed on `external_ids` (the reorder permutation, internal id ->
/// external id; empty when the node numbering is the original one) and
/// calls the backend's
///   template <typename Policy>
///   Status Walk(NodeId source, const WalkConfig& config,
///               const Policy& policy, WalkStats* stats,
///               const WalkOutput& out) const;
/// which runs LevelLoop::Run over the backend's executor. A failed Walk is
/// recorded for TakeError and its truncated output returned.
template <typename Backend>
class WalkFront : public WalkBackend {
 public:
  WalkDistributions SimRankLevels(NodeId source, const WalkConfig& config,
                                  WalkStats* stats) const final {
    WalkDistributions out = SourceLevels(source, config.num_steps);
    Run(source, config, SimRankPolicy(config, source, external_ids_), stats,
        WalkOutput{.levels = &out.levels});
    return out;
  }

  SparseVector PprEndpoints(NodeId source, const WalkConfig& config,
                            const PprParams& params,
                            WalkStats* stats) const final {
    std::vector<NodeId> terminals;
    Run(source, config, PprPolicy(config, source, params, external_ids_),
        stats, WalkOutput{.terminals = &terminals});
    return AggregateEndpointNodes(
        terminals, 1.0 / static_cast<double>(config.num_walkers), id_bits_);
  }

  WalkDistributions Node2VecLevels(NodeId source, const WalkConfig& config,
                                   const Node2VecParams& params,
                                   WalkStats* stats) const final {
    WalkDistributions out = SourceLevels(source, config.num_steps);
    Run(source, config, Node2VecPolicy(config, source, params, external_ids_),
        stats, WalkOutput{.levels = &out.levels});
    return out;
  }

  Status TakeError() const final {
    std::lock_guard<std::mutex> lock(error_mu_);
    Status out = std::move(first_error_);
    first_error_ = Status::Ok();
    return out;
  }

 protected:
  WalkFront(NodeId num_nodes, std::span<const NodeId> external_ids)
      : external_ids_(external_ids), id_bits_(NodeIdBits(num_nodes)) {}
  // An in-process backend over `graph`, keyed on the context's permutation.
  WalkFront(const Graph& graph, const WalkContext* context_or_null)
      : WalkFront(graph.num_nodes(), context_or_null != nullptr
                                         ? context_or_null->external_ids()
                                         : std::span<const NodeId>()) {}

  /// Radix digits of the graph's node ids (AggregateEndpointNodes).
  uint32_t id_bits() const { return id_bits_; }

 private:
  template <typename Policy>
  void Run(NodeId source, const WalkConfig& config, const Policy& policy,
           WalkStats* stats, const WalkOutput& out) const {
    const Status status = static_cast<const Backend&>(*this).Walk(
        source, config, policy, stats, out);
    if (status.ok()) return;
    std::lock_guard<std::mutex> lock(error_mu_);
    if (first_error_.ok()) first_error_ = status;
  }

  const std::span<const NodeId> external_ids_;
  const uint32_t id_bits_;
  mutable std::mutex error_mu_;
  mutable Status first_error_;  // first failed Walk since TakeError
};

/// The single-node backend: the level loop over one graph's in-CSR, as
/// one part. Cheap to construct — the query kernels stack-allocate one per
/// call when no explicit backend is supplied. Borrows everything. The
/// context (optional) supplies a reordered snapshot's permutation; `owner`
/// (optional) enables partition-crossing accounting.
class LocalWalkBackend final : public WalkFront<LocalWalkBackend> {
 public:
  LocalWalkBackend(const Graph& graph, const WalkContext* context_or_null,
                   const NodeOwnerFn* owner = nullptr)
      : WalkFront(graph, context_or_null),
        levels_(CsrLevels::In(graph, owner)) {}

 private:
  friend class WalkFront<LocalWalkBackend>;

  template <typename Policy>
  Status Walk(NodeId source, const WalkConfig& config, const Policy& policy,
              WalkStats* stats, const WalkOutput& out) const;

  const CsrLevels levels_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_WALK_BACKEND_H_
