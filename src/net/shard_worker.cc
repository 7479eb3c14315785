#include "net/shard_worker.h"

#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/version.h"
#include "engine/walk_driver.h"
#include "net/framing.h"
#include "net/wire.h"

namespace cloudwalker {
namespace {

// IO budget for one frame once bytes have started flowing. The serve loop
// itself waits in short WaitReadable slices so Stop() stays responsive;
// this bound only caps a coordinator that stalls mid-frame.
constexpr double kFrameIoSeconds = 30.0;
// Accept / readability poll slice between stop-flag checks.
constexpr double kPollSliceSeconds = 0.1;

// Why `job` is not a walk this worker can run, or null when it is. The
// payload CRC already passed, so any violation is a coordinator bug —
// answered with kError, never retried. The reply bound also caps the
// memory a job can make the worker allocate.
const char* InvalidJob(const WalkMsg& job, NodeId num_nodes) {
  switch (static_cast<WalkPhase>(job.phase)) {
    case WalkPhase::kSimRank:
      break;
    case WalkPhase::kPpr:
      if (!(job.alpha > 0.0) || !(job.alpha < 1.0)) {
        return "PPR alpha outside (0, 1)";
      }
      break;
    case WalkPhase::kNode2Vec:
      if (!(job.return_p > 0.0) || !(job.in_out_q > 0.0) ||
          job.max_trials == 0) {
        return "invalid node2vec parameters";
      }
      break;
    default:
      return "unknown walk program";
  }
  if (job.dangling > 1) return "unknown dangling policy";
  if (job.source >= num_nodes) return "source outside the graph";
  if (job.num_steps == 0) return "walk of zero steps";
  if (job.count == 0) return "empty walker range";
  if (job.first > job.num_walkers || job.count > job.num_walkers - job.first) {
    return "walker range outside [0, R')";
  }
  if (!WalkResultFits(job.count, job.num_steps)) {
    return "reply of count x T node ids exceeds the frame cap";
  }
  return nullptr;
}

// Runs `job`'s walker range to the end with the shared level loop over
// the mapped in-CSR and encodes the kWalkResult payload. A reordered
// artifact keys the draws on the source's external id through its own
// permutation — the coordinator's artifact too, since the handshake
// pinned the fingerprint.
template <typename Policy>
std::string RunJob(const SnapshotView& snapshot, const WalkMsg& job,
                   const WalkConfig& config, const Policy& policy,
                   WalkScratch* scratch, RangeWalk* range) {
  const CsrRows rows{snapshot.in_offsets().data(),
                     snapshot.in_targets().data()};
  const CsrLevels levels{rows, snapshot.num_nodes()};
  // A mapped in-CSR cannot fail.
  (void)LevelLoop::Run(levels, job.source, config, policy, job.first,
                       job.count, scratch, &range->stats,
                       range->Reset<Policy>(job.num_steps));
  WalkResultMsg result;
  result.first = job.first;
  result.count = job.count;
  result.steps = range->stats.steps;
  return EncodeWalkResult(result, range->levels, range->terminals);
}

// Decodes, validates and runs one kWalk frame: the kWalkResult payload,
// or the status a kError carries.
StatusOr<std::string> ServeJob(const SnapshotView& snapshot,
                               std::string_view payload, WalkScratch* scratch,
                               RangeWalk* range) {
  WalkMsg job;
  CW_RETURN_IF_ERROR(DecodeWalk(payload, &job));
  if (const char* invalid = InvalidJob(job, snapshot.num_nodes())) {
    return Status::Internal(std::string("net: invalid walk job: ") + invalid);
  }
  WalkConfig config;
  config.num_steps = job.num_steps;
  config.num_walkers = job.num_walkers;
  config.dangling = static_cast<DanglingPolicy>(job.dangling);
  config.seed = job.seed;
  const std::span<const NodeId> perm = snapshot.permutation();
  switch (static_cast<WalkPhase>(job.phase)) {
    case WalkPhase::kSimRank:
      return RunJob(snapshot, job, config,
                    SimRankPolicy(config, job.source, perm), scratch, range);
    case WalkPhase::kPpr:
      return RunJob(snapshot, job, config,
                    PprPolicy(config, job.source, PprParams{job.alpha}, perm),
                    scratch, range);
    case WalkPhase::kNode2Vec:
      return RunJob(snapshot, job, config,
                    Node2VecPolicy(config, job.source,
                                   Node2VecParams{job.return_p, job.in_out_q,
                                                  job.max_trials},
                                   perm),
                    scratch, range);
  }
  // Unreachable: InvalidJob refused every other program.
  return Status::Internal("net: unknown walk program");
}

}  // namespace

StatusOr<std::unique_ptr<ShardWorker>> ShardWorker::Create(
    const ShardWorkerOptions& options) {
  // Partition-aware open: a worker walks in-links only, so the out-CSR
  // and diagonal sections are neither mapped hot nor integrity-swept.
  CW_ASSIGN_OR_RETURN(
      std::shared_ptr<const SnapshotView> snapshot,
      SnapshotView::Open(options.snapshot_path, kSnapshotIn));
  CW_ASSIGN_OR_RETURN(Socket listener, TcpListen(options.port));
  CW_ASSIGN_OR_RETURN(const uint16_t port, BoundPort(listener));
  return std::unique_ptr<ShardWorker>(new ShardWorker(
      options, std::move(snapshot), std::move(listener), port));
}

Status ShardWorker::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    StatusOr<Socket> conn = TcpAccept(listener_, kPollSliceSeconds);
    if (!conn.ok()) {
      if (conn.status().IsDeadlineExceeded()) continue;
      return conn.status();
    }
    if (options_.verbose) {
      std::fprintf(stderr, "[worker:%u] coordinator connected\n", port_);
    }
    if (!ServeConnection(std::move(conn).value())) break;
  }
  return Status::Ok();
}

bool ShardWorker::ServeConnection(Socket conn) {
  // Per-connection state: nothing but kHello is served until the
  // coordinator's view of the world has been verified. The scratch and
  // the range buffers are reused across jobs, never carried between them.
  bool greeted = false;
  WalkScratch scratch;
  RangeWalk range;

  while (!stop_.load(std::memory_order_relaxed)) {
    const Status ready = WaitReadable(conn, kPollSliceSeconds);
    if (ready.IsDeadlineExceeded()) continue;
    if (!ready.ok()) return true;  // connection gone; accept the next one
    StatusOr<Frame> frame = RecvFrame(conn, kFrameIoSeconds);
    if (!frame.ok()) {
      if (options_.verbose) {
        std::fprintf(stderr, "[worker:%u] recv: %s\n", port_,
                     frame.status().ToString().c_str());
      }
      return true;
    }
    const uint64_t served =
        1 + frames_served_.fetch_add(1, std::memory_order_relaxed);
    if (options_.fail_once_after_frames >= 0 && !fault_fired_ &&
        served > static_cast<uint64_t>(options_.fail_once_after_frames)) {
      // Injected death: drop the connection without replying, exactly as
      // a worker killed mid-job would.
      fault_fired_ = true;
      if (options_.verbose) {
        std::fprintf(stderr, "[worker:%u] injected failure at frame %llu\n",
                     port_, static_cast<unsigned long long>(served));
      }
      return true;
    }

    switch (frame->type) {
      case MsgType::kHello: {
        HelloMsg hello;
        std::string peer_build;
        Status status = DecodeHello(frame->payload, &hello, &peer_build);
        if (status.ok() && hello.protocol_version != kNetProtocolVersion) {
          status = Status::FailedPrecondition(
              "net: protocol version mismatch: coordinator speaks v" +
              std::to_string(hello.protocol_version) + ", worker speaks v" +
              std::to_string(kNetProtocolVersion) + " (" +
              std::string(kNetProtocolName) + "); peer build: " + peer_build);
        }
        if (status.ok() &&
            hello.snapshot_fingerprint != snapshot_->fingerprint()) {
          status = Status::FailedPrecondition(
              "net: snapshot fingerprint mismatch: coordinator serves " +
              std::to_string(hello.snapshot_fingerprint) +
              ", worker serves " + std::to_string(snapshot_->fingerprint()) +
              " — different artifacts cannot answer bit-identically");
        }
        if (status.ok() && hello.num_nodes != snapshot_->num_nodes()) {
          status = Status::FailedPrecondition(
              "net: node count mismatch: coordinator has " +
              std::to_string(hello.num_nodes) + ", snapshot has " +
              std::to_string(snapshot_->num_nodes()));
        }
        if (!status.ok()) {
          if (options_.verbose) {
            std::fprintf(stderr, "[worker:%u] handshake rejected: %s\n",
                         port_, status.ToString().c_str());
          }
          SendErrorFrame(conn, status, kFrameIoSeconds);
          return true;
        }
        greeted = true;
        const std::string reply = EncodeHello(
            hello, BuildInfoString("cloudwalker_shard_worker"));
        if (!SendFrame(conn, MsgType::kHelloOk, reply, kFrameIoSeconds)
                 .ok()) {
          return true;
        }
        break;
      }
      case MsgType::kWalk: {
        if (!greeted) {
          SendErrorFrame(
              conn, Status::FailedPrecondition("net: walk before handshake"),
              kFrameIoSeconds);
          return true;
        }
        StatusOr<std::string> reply =
            ServeJob(*snapshot_, frame->payload, &scratch, &range);
        if (!reply.ok()) {
          SendErrorFrame(conn, reply.status(), kFrameIoSeconds);
          return true;
        }
        if (!SendFrame(conn, MsgType::kWalkResult, *reply, kFrameIoSeconds)
                 .ok()) {
          return true;
        }
        break;
      }
      case MsgType::kHeartbeat: {
        if (!SendFrame(conn, MsgType::kHeartbeatAck, {}, kFrameIoSeconds)
                 .ok()) {
          return true;
        }
        break;
      }
      case MsgType::kShutdown: {
        if (options_.verbose) {
          std::fprintf(stderr, "[worker:%u] shutdown requested\n", port_);
        }
        Stop();
        return false;
      }
      default: {
        SendErrorFrame(conn,
                       Status::Internal(
                           "net: unexpected frame type " +
                           std::to_string(static_cast<int>(frame->type))),
                       kFrameIoSeconds);
        return true;
      }
    }
  }
  return false;
}

}  // namespace cloudwalker
