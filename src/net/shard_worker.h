// ShardWorker — the serving half of cloudwalker-net-v2: one process (or
// test thread) that maps the snapshot's in-CSR and runs whole walks for
// the walker ranges its coordinator assigns, one kWalk frame per range.
//
// Every worker holds a full replica of the in-link graph — the paper's
// Broadcasting model (DESIGN.md section 4) — so a walker never leaves the
// worker that started it. A job runs the shared level loop
// (engine/walk_driver.h) over the mapped in-CSR for walker ids
// [first, first + count) and answers one kWalkResult with each level's
// raw endpoints, or PPR's terminals. Workers are completely stateless
// between frames: every kWalk carries the full job, and every draw is a
// pure function of the job's fields and the served artifact — whose
// permutation, on a locality-reordered snapshot, keys the draws on the
// source's external id (engine/walk_step.h). The coordinator can
// therefore kill, restart, and replay a worker at any frame boundary and
// provably get the identical bytes back — the property the failure-path
// tests (tests/net/) assert end to end.
//
// A worker validates its coordinator at handshake — protocol version,
// snapshot fingerprint and node count must match its own view, otherwise
// the kHello is rejected with a kError frame naming the mismatch — and
// validates every job before it allocates anything: an invalid program,
// parameter, source, step count or range, or a job whose worst-case reply
// would exceed the frame cap, is answered with kError.

#ifndef CLOUDWALKER_NET_SHARD_WORKER_H_
#define CLOUDWALKER_NET_SHARD_WORKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/socket.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {

/// Configuration of one walk worker.
struct ShardWorkerOptions {
  /// Snapshot artifact to serve (opened kSnapshotIn — a worker only ever
  /// walks in-links).
  std::string snapshot_path;
  /// TCP port to listen on; 0 picks an ephemeral port (read it back with
  /// port()).
  uint16_t port = 0;
  /// Fault injection for the failure-path tests: after serving this many
  /// frames, drop the connection once (no reply, simulating a worker
  /// killed mid-job). < 0 disables. Subsequent connections serve
  /// normally, so a retrying coordinator recovers by replay.
  int64_t fail_once_after_frames = -1;
  /// Log per-connection events to stderr.
  bool verbose = false;
};

/// A running walk worker: listener + snapshot, serving one coordinator
/// connection at a time.
class ShardWorker {
 public:
  /// Opens the snapshot (in-CSR sections only) and binds the listener;
  /// serving starts with Serve().
  static StatusOr<std::unique_ptr<ShardWorker>> Create(
      const ShardWorkerOptions& options);

  /// The bound TCP port (useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// The served snapshot's fingerprint (what kHello must match).
  uint64_t fingerprint() const { return snapshot_->fingerprint(); }

  NodeId num_nodes() const { return snapshot_->num_nodes(); }

  /// Accept-and-serve loop; blocks until Stop() (or a listener error).
  /// Connections are served sequentially — one coordinator at a time.
  Status Serve();

  /// Asks Serve() to return at its next poll slice (~100 ms). Safe from
  /// any thread / signal context.
  void Stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Frames served across all connections (telemetry / tests).
  uint64_t frames_served() const {
    return frames_served_.load(std::memory_order_relaxed);
  }

 private:
  ShardWorker(ShardWorkerOptions options,
              std::shared_ptr<const SnapshotView> snapshot, Socket listener,
              uint16_t port)
      : options_(std::move(options)),
        snapshot_(std::move(snapshot)),
        listener_(std::move(listener)),
        port_(port) {}

  // Serves one coordinator connection until it closes, errors, or the
  // worker stops. Returns true when Serve() should keep accepting.
  bool ServeConnection(Socket conn);

  ShardWorkerOptions options_;
  std::shared_ptr<const SnapshotView> snapshot_;
  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> frames_served_{0};
  bool fault_fired_ = false;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_NET_SHARD_WORKER_H_
