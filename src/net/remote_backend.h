// RemoteWalkBackend — the coordinator half of cloudwalker-net-v1: a
// WalkBackend that runs every walk phase as BSP supersteps across
// socket-connected shard workers (net/shard_worker.h).
//
// The backend is an executor of the shared level loop (engine/
// walk_driver.h) with one part per worker: the coordinator holds all
// walker state, and each level the loop buckets the live walkers by the
// worker owning their node. The executor ships every non-empty bucket in
// one kSuperstep frame, then drains the kResult replies into the level
// buffers; the loop merges endpoint lists with the same order-independent
// aggregation every executor uses, and its next bucketing routes the
// survivors to their next owner. Workers are stateless, and each keys its
// draws from its own mapped snapshot — on a locality-reordered artifact,
// through that artifact's permutation; the handshake pins the fingerprint,
// so coordinator and workers serve the same artifact and the wire carries
// no key. Results are therefore bit-identical to the single-node and
// in-process sharded backends at every worker count — and a worker death
// mid-superstep is recovered by reconnecting and resending the identical
// frame (deterministic replay), bounded by
// RemoteBackendOptions::max_attempts.
//
// Error model: walk methods return plain values (the WalkBackend seam),
// so a job that exhausts its retry budget records its first error —
// typically kUnavailable naming the worker — and returns a truncated
// result. The facade drains it via TakeError() and surfaces the error
// instead of the partial answer; QueryService never caches non-ok
// responses, so no partial answer is ever cached. A reply that does not
// answer its batch — wrong step, counts that disagree with the batch or
// the program, or a node id outside the graph — is rejected the same way,
// with kInternal, before any of it reaches the level buffers.

#ifndef CLOUDWALKER_NET_REMOTE_BACKEND_H_
#define CLOUDWALKER_NET_REMOTE_BACKEND_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/partitioner.h"
#include "common/status.h"
#include "engine/walk_backend.h"
#include "net/framing.h"
#include "net/socket.h"
#include "net/wire.h"
#include "shard/sharding.h"

namespace cloudwalker {

/// One worker endpoint; workers[i] serves shard i.
struct RemoteWorkerAddress {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const {
    return host + ":" + std::to_string(port);
  }
};

/// Parses "host:port,host:port,..." (the CLI's --workers syntax).
StatusOr<std::vector<RemoteWorkerAddress>> ParseWorkerList(
    const std::string& spec);

/// Configuration of a remote backend.
struct RemoteBackendOptions {
  std::vector<RemoteWorkerAddress> workers;
  /// Node -> worker placement. kAuto scores kHash vs kRange with the cost
  /// model — the same resolution rule as the in-process ShardPlan::Build,
  /// so `--workers=N` and `--shards=N` route walkers identically.
  ShardingOptions::Placement placement = ShardingOptions::Placement::kAuto;
  CostModel cost_model = CostModel::Default();
  /// Per-connection dial + handshake budget.
  double connect_timeout_seconds = 5.0;
  /// Budget for one shard's superstep exchange (send + compute + recv).
  double superstep_timeout_seconds = 30.0;
  /// Total attempts per shard per superstep (1 initial + retries). Each
  /// retry reconnects, re-handshakes, and resends the identical frame.
  int max_attempts = 3;
  /// Pause before each retry.
  double retry_backoff_seconds = 0.05;
  /// When > 0, a job that starts after this long of inactivity first
  /// sweeps heartbeats and proactively drops dead connections (they
  /// reconnect on first use). 0 disables; Ping() is always available.
  double heartbeat_interval_seconds = 0.0;
};

/// Cumulative exchange telemetry (all jobs since Connect).
struct RemoteExchangeStats {
  uint64_t supersteps = 0;       // level barriers executed
  uint64_t walkers_shipped = 0;  // WalkerRecs sent over the wire
  uint64_t bytes_sent = 0;       // frame payload bytes, coordinator -> worker
  uint64_t bytes_received = 0;   // frame payload bytes, worker -> coordinator
  uint64_t replays = 0;          // superstep frames resent after a failure
  uint64_t reconnects = 0;       // connections re-established
};

/// The socket-connected walk backend. Borrows `graph`; CloudWalker's
/// Distribute factory pins it (plus the snapshot) for the backend's
/// lifetime. Jobs are serialized over the shared worker connections by an
/// internal mutex — concurrency lives in the workers, not in parallel
/// jobs (DESIGN.md section 13).
class RemoteWalkBackend final : public WalkFront<RemoteWalkBackend> {
 public:
  /// Resolves placement, dials every worker, and handshakes each one
  /// (protocol version, `snapshot_fingerprint`, shard plan hash). Fails
  /// fast with kUnavailable naming the first unreachable worker.
  static StatusOr<std::shared_ptr<const RemoteWalkBackend>> Connect(
      const Graph& graph, uint64_t snapshot_fingerprint,
      const RemoteBackendOptions& options);

  /// Heartbeats every worker; returns the first failure (kUnavailable
  /// naming the dead worker). Does not consume the retry budget.
  Status Ping() const;

  /// Sends kShutdown to every worker (best-effort). Not called by the
  /// destructor — workers normally outlive coordinators.
  void ShutdownWorkers() const;

  int num_workers() const { return partitioner_.num_workers(); }
  PartitionStrategy strategy() const { return partitioner_.strategy(); }
  uint64_t plan_hash() const { return plan_hash_; }
  RemoteExchangeStats exchange_stats() const;

 private:
  friend class WalkFront<RemoteWalkBackend>;
  class Levels;  // the level-loop executor of one job

  RemoteWalkBackend(const Graph& graph, uint64_t fingerprint,
                    RemoteBackendOptions options,
                    PartitionStrategy strategy);

  // Dials workers[shard] and runs the kHello exchange on the new
  // connection. Requires mu_.
  StatusOr<Socket> DialWorker(int shard) const;

  // One shard's superstep exchange with bounded reconnect-and-replay.
  // Requires mu_. `sent_ok` reports whether the initial in-pipeline send
  // succeeded (a failed send skips straight to the retry path).
  Status ExchangeOne(int shard, const std::string& request, bool sent_ok,
                     Frame* reply) const;

  // Lazy death detection: after a quiet period longer than the heartbeat
  // interval, heartbeats every connection and drops the dead ones, so the
  // first superstep reconnects eagerly instead of burning its timeout.
  // Requires mu_.
  void SweepHeartbeats() const;

  // Runs one job through the level loop over the workers, under mu_. The
  // front records a failure for TakeError, which has its own lock and so
  // never waits on a running job.
  template <typename Policy>
  Status Walk(NodeId source, const WalkConfig& config, const Policy& policy,
              WalkStats* stats, const WalkOutput& out) const;

  const Graph* graph_;
  uint64_t fingerprint_ = 0;
  RemoteBackendOptions options_;
  Partitioner partitioner_;
  uint64_t plan_hash_ = 0;

  // Job / connection state, serialized by mu_.
  mutable std::mutex mu_;
  mutable std::vector<Socket> conns_;
  mutable std::chrono::steady_clock::time_point last_activity_;
  mutable RemoteExchangeStats stats_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_NET_REMOTE_BACKEND_H_
