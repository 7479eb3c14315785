// RemoteWalkBackend — the coordinator half of cloudwalker-net-v2: a
// WalkBackend that runs every walk across socket-connected walk workers
// (net/shard_worker.h), one round trip per walk.
//
// Every worker maps the whole in-CSR — the paper's Broadcasting model
// (DESIGN.md section 4) — so walkers never move between workers. A walk
// splits its walker ids [0, R') into one contiguous range per worker
// (engine/walk_driver.h's SplitWalkerRanges; fewer when R' < W, and a
// worker without a range gets no frame), sends each range in one kWalk
// frame, and drains the kWalkResult replies. Each worker runs the shared
// level loop over its own mapped snapshot and keys its draws from it —
// on a locality-reordered artifact, through that artifact's permutation;
// the handshake pins the fingerprint, so coordinator and workers serve
// the same artifact and the wire carries no key. The ranges' raw levels
// merge with the same concatenate-then-aggregate step the parallel
// executor uses (MergeRangeWalks), so results are bit-identical to the
// single-node backend at every worker count and every R'. A worker death
// mid-job is recovered by reconnecting and resending the identical frame
// (deterministic replay), bounded by RemoteBackendOptions::max_attempts.
//
// Cancellation: a walk polls config.cancel once, before dispatch — a
// stopped walk sends nothing and returns empty. A job in flight runs to
// its end, bounded by superstep_timeout_seconds.
//
// Error model: walk methods return plain values (the WalkBackend seam),
// so a job that exhausts its retry budget records its first error —
// typically kUnavailable naming the worker — and returns a truncated
// result. The facade drains it via TakeError() and surfaces the error
// instead of the partial answer; QueryService never caches non-ok
// responses, so no partial answer is ever cached. A job whose worst-case
// reply would not fit one frame is refused with kInvalidArgument before
// anything is sent. A reply that does not answer its range — a wrong
// range echo, level or terminal counts the program cannot produce, more
// steps than count x T, or a node id outside the graph — is rejected with
// kInternal, never retried, before any of it is merged.

#ifndef CLOUDWALKER_NET_REMOTE_BACKEND_H_
#define CLOUDWALKER_NET_REMOTE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/walk_backend.h"
#include "engine/walk_driver.h"
#include "net/framing.h"
#include "net/socket.h"
#include "net/wire.h"

namespace cloudwalker {

/// One worker endpoint.
struct RemoteWorkerAddress {
  std::string host;
  uint16_t port = 0;

  std::string ToString() const {
    return host + ":" + std::to_string(port);
  }
};

/// Parses "host:port,host:port,..." (the CLI's --workers syntax). A port
/// is ASCII digits only, in [1, 65535].
StatusOr<std::vector<RemoteWorkerAddress>> ParseWorkerList(
    const std::string& spec);

/// Configuration of a remote backend.
struct RemoteBackendOptions {
  /// Workers; walker range i of a walk goes to workers[i].
  std::vector<RemoteWorkerAddress> workers;
  /// Per-connection dial + handshake budget.
  double connect_timeout_seconds = 5.0;
  /// Budget for one job's exchange with one worker (send + the whole
  /// range's walk + recv).
  double superstep_timeout_seconds = 30.0;
  /// Total attempts per worker per job (1 initial + retries). Each retry
  /// reconnects, re-handshakes, and resends the identical frame.
  int max_attempts = 3;
  /// Pause before each retry.
  double retry_backoff_seconds = 0.05;
};

/// Cumulative exchange telemetry (all jobs since Connect).
struct RemoteExchangeStats {
  uint64_t supersteps = 0;       // walk jobs: one round trip per walk
  uint64_t walkers_shipped = 0;  // walkers assigned in kWalk frames
  uint64_t bytes_sent = 0;       // frame payload bytes, coordinator -> worker
  uint64_t bytes_received = 0;   // frame payload bytes, worker -> coordinator
  uint64_t replays = 0;          // kWalk frames resent after a failure
  uint64_t reconnects = 0;       // connections re-established
};

/// The socket-connected walk backend. Borrows `graph`; CloudWalker's
/// Distribute factory pins it (plus the snapshot) for the backend's
/// lifetime. Jobs are serialized over the shared worker connections by an
/// internal mutex — concurrency lives in the workers, not in parallel
/// jobs (DESIGN.md section 13).
class RemoteWalkBackend final : public WalkFront<RemoteWalkBackend> {
 public:
  /// Dials every worker and handshakes each one (protocol version,
  /// `snapshot_fingerprint`, node count). Fails fast with kUnavailable
  /// naming the first unreachable worker.
  static StatusOr<std::shared_ptr<const RemoteWalkBackend>> Connect(
      const Graph& graph, uint64_t snapshot_fingerprint,
      const RemoteBackendOptions& options);

  /// Heartbeats every worker; returns the first failure (kUnavailable
  /// naming the dead worker). Does not consume the retry budget.
  Status Ping() const;

  /// Sends kShutdown to every worker (best-effort). Not called by the
  /// destructor — workers normally outlive coordinators.
  void ShutdownWorkers() const;

  int num_workers() const { return static_cast<int>(options_.workers.size()); }
  RemoteExchangeStats exchange_stats() const;

 private:
  friend class WalkFront<RemoteWalkBackend>;

  RemoteWalkBackend(const Graph& graph, uint64_t fingerprint,
                    RemoteBackendOptions options);

  // Dials workers[worker] and runs the kHello exchange on the new
  // connection. Requires mu_.
  StatusOr<Socket> DialWorker(int worker) const;

  // One worker's job exchange with bounded reconnect-and-replay: receives
  // the kWalkResult answering `request`, resending it over a fresh
  // connection after a transport failure. Requires mu_. `sent_ok` reports
  // whether the initial in-pipeline send succeeded (a failed send skips
  // straight to the retry path).
  Status ExchangeOne(int worker, const std::string& request, bool sent_ok,
                     Frame* reply) const;

  // Receives, decodes and validates worker `worker`'s reply to `job` into
  // replies_[worker]. Requires mu_.
  template <typename Policy>
  Status Drain(int worker, const WalkMsg& job) const;

  // Runs one walk as one job per walker range, under mu_, and merges the
  // replies. The front records a failure for TakeError, which has its own
  // lock and so never waits on a running job.
  template <typename Policy>
  Status Walk(NodeId source, const WalkConfig& config, const Policy& policy,
              WalkStats* stats, const WalkOutput& out) const;

  const Graph* graph_;
  uint64_t fingerprint_ = 0;
  RemoteBackendOptions options_;

  // Job / connection state, serialized by mu_: per worker, the
  // connection, the current job's request (kept for replay) and the reply
  // buffers, whose capacity is reused across jobs.
  mutable std::mutex mu_;
  mutable std::vector<Socket> conns_;
  mutable std::vector<std::string> requests_;
  mutable std::vector<RangeWalk> replies_;
  mutable RemoteExchangeStats stats_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_NET_REMOTE_BACKEND_H_
