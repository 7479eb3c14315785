#include "net/shard_worker.h"

#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/partitioner.h"
#include "common/version.h"
#include "engine/walk_step.h"
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

// Row source over the snapshot's full in-CSR (engine/walk_step.h defines
// the concept). A worker maps the whole in-adjacency, so rows index by
// global node id directly; ownership only matters for the remote-row
// telemetry of second-order In(prev) reads, which the partitioner answers
// exactly like the in-process engine's slice lookup.
struct SnapshotRows : CsrRows {
  const Partitioner* partitioner = nullptr;
  int shard = 0;
  uint64_t* remote_rows = nullptr;

  std::span<const NodeId> InRow(NodeId v) const {
    if (partitioner->Owner(v) != shard) ++*remote_rows;
    return CsrRows::InRow(v);
  }
};

// Advances one resident batch one level under `policy` with the shared
// level step, collecting the survivors, endpoints and terminals the
// kResult frame carries. The wire carries no batch width, so the worker
// uses the widest.
template <typename Policy>
void AdvanceBatch(const SnapshotRows& rows, const Policy& policy,
                  const SuperstepMsg& msg, std::vector<WalkerRec>* walkers,
                  ResultMsg* result, std::vector<NodeId>* endpoints,
                  std::vector<NodeId>* terminals) {
  std::vector<WalkerRec> survivors(walkers->size());
  if constexpr (Policy::kEmitsLevels) endpoints->resize(walkers->size());
  if constexpr (Policy::kMayRetire) terminals->resize(walkers->size());
  BufferSink<Policy::kEmitsLevels> sink;
  sink.survivors = survivors.data();
  sink.endpoints = endpoints->data();
  sink.terminals = terminals->data();
  AdvanceLevel(rows, policy, msg.step,
               static_cast<DanglingPolicy>(msg.dangling) ==
                   DanglingPolicy::kSelfLoop,
               std::span<const WalkerRec>(*walkers), kMaxWalkBatchWidth, sink);
  survivors.resize(sink.num_survivors);
  endpoints->resize(sink.num_endpoints);
  terminals->resize(sink.num_terminals);
  result->steps += sink.steps;
  result->dead += static_cast<uint32_t>(walkers->size() - survivors.size() -
                                        terminals->size());
  *walkers = std::move(survivors);
}

// Sanity bounds on a decoded superstep. The payload CRC already passed,
// so any violation is a coordinator bug — reported as kInternal, never
// retried.
Status ValidateSuperstep(const SuperstepMsg& msg,
                         const std::vector<WalkerRec>& walkers,
                         NodeId num_nodes) {
  if (msg.step < 1 || msg.step > msg.num_steps) {
    return Status::Internal("net: superstep " + std::to_string(msg.step) +
                            " outside [1, " + std::to_string(msg.num_steps) +
                            "]");
  }
  if (msg.source >= num_nodes) {
    return Status::Internal("net: superstep source " +
                            std::to_string(msg.source) + " out of range");
  }
  if (msg.dangling > 1) {
    return Status::Internal("net: unknown dangling policy " +
                            std::to_string(msg.dangling));
  }
  switch (static_cast<WalkPhase>(msg.phase)) {
    case WalkPhase::kSimRank:
      break;
    case WalkPhase::kPpr:
      if (!(msg.alpha > 0.0) || !(msg.alpha < 1.0)) {
        return Status::Internal("net: PPR alpha outside (0, 1)");
      }
      break;
    case WalkPhase::kNode2Vec:
      if (!(msg.return_p > 0.0) || !(msg.in_out_q > 0.0) ||
          msg.max_trials == 0) {
        return Status::Internal("net: invalid node2vec parameters");
      }
      break;
    default:
      return Status::Internal("net: unknown walk phase " +
                              std::to_string(msg.phase));
  }
  for (const WalkerRec& rec : walkers) {
    if (rec.cur >= num_nodes ||
        (rec.prev != kInvalidNode && rec.prev >= num_nodes)) {
      return Status::Internal("net: walker positioned out of range");
    }
  }
  return Status::Ok();
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
  // Per-connection handshake state: nothing but kHello is served until
  // the coordinator's view of the world has been verified.
  std::optional<Partitioner> partitioner;
  int shard = 0;

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
      // a worker killed mid-superstep would.
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
        if (status.ok() &&
            (hello.num_shards == 0 || hello.shard >= hello.num_shards)) {
          status = Status::FailedPrecondition(
              "net: shard " + std::to_string(hello.shard) +
              " outside plan of " + std::to_string(hello.num_shards) +
              " shards");
        }
        if (status.ok() && hello.strategy > 1) {
          status = Status::FailedPrecondition(
              "net: unknown partition strategy " +
              std::to_string(hello.strategy));
        }
        if (status.ok()) {
          const uint64_t expect =
              NetPlanHash(static_cast<PartitionStrategy>(hello.strategy),
                          hello.num_shards, hello.num_nodes);
          if (hello.plan_hash != expect) {
            status = Status::FailedPrecondition(
                "net: shard plan hash mismatch (coordinator " +
                std::to_string(hello.plan_hash) + ", worker " +
                std::to_string(expect) + ")");
          }
        }
        if (!status.ok()) {
          if (options_.verbose) {
            std::fprintf(stderr, "[worker:%u] handshake rejected: %s\n",
                         port_, status.ToString().c_str());
          }
          SendErrorFrame(conn, status, kFrameIoSeconds);
          return true;
        }
        partitioner.emplace(static_cast<PartitionStrategy>(hello.strategy),
                            hello.num_nodes,
                            static_cast<int>(hello.num_shards));
        shard = static_cast<int>(hello.shard);
        const std::string reply = EncodeHello(
            hello, BuildInfoString("cloudwalker_shard_worker"));
        if (!SendFrame(conn, MsgType::kHelloOk, reply, kFrameIoSeconds)
                 .ok()) {
          return true;
        }
        break;
      }
      case MsgType::kSuperstep: {
        if (!partitioner.has_value()) {
          SendErrorFrame(
              conn,
              Status::FailedPrecondition("net: superstep before handshake"),
              kFrameIoSeconds);
          return true;
        }
        SuperstepMsg msg;
        std::vector<WalkerRec> walkers;
        Status status = DecodeSuperstep(frame->payload, &msg, &walkers);
        if (status.ok()) {
          status = ValidateSuperstep(msg, walkers, snapshot_->num_nodes());
        }
        if (!status.ok()) {
          SendErrorFrame(conn, status, kFrameIoSeconds);
          return true;
        }
        ResultMsg result;
        result.step = msg.step;
        const SnapshotRows rows{
            {snapshot_->in_offsets().data(), snapshot_->in_targets().data()},
            &partitioner.value(),
            shard,
            &result.remote_rows};
        WalkConfig config;
        config.seed = msg.seed;
        // A reordered artifact keys the draws on the source's external id
        // through its own permutation — the coordinator's artifact too,
        // since the handshake pinned the fingerprint.
        const std::span<const NodeId> perm = snapshot_->permutation();
        std::vector<NodeId> endpoints;
        std::vector<NodeId> terminals;
        switch (static_cast<WalkPhase>(msg.phase)) {
          case WalkPhase::kSimRank:
            AdvanceBatch(rows, SimRankPolicy(config, msg.source, perm), msg,
                         &walkers, &result, &endpoints, &terminals);
            break;
          case WalkPhase::kPpr:
            AdvanceBatch(
                rows,
                PprPolicy(config, msg.source, PprParams{msg.alpha}, perm),
                msg, &walkers, &result, &endpoints, &terminals);
            break;
          case WalkPhase::kNode2Vec:
            AdvanceBatch(
                rows,
                Node2VecPolicy(config, msg.source,
                               Node2VecParams{msg.return_p, msg.in_out_q,
                                              msg.max_trials},
                               perm),
                msg, &walkers, &result, &endpoints, &terminals);
            break;
        }
        const std::string reply =
            EncodeResult(result, walkers, endpoints, terminals);
        if (!SendFrame(conn, MsgType::kResult, reply, kFrameIoSeconds)
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
