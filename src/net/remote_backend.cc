#include "net/remote_backend.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/version.h"
#include "engine/walk_driver.h"
#include "net/framing.h"

namespace cloudwalker {
namespace {

// Failures worth a reconnect-and-replay: the worker (or the wire) went
// away or garbled. Protocol-level rejections (kError frames, decode
// failures) are deterministic — replaying the same frame reproduces them,
// so they abort immediately instead.
bool IsTransportFailure(const Status& status) {
  return status.IsUnavailable() || status.IsDeadlineExceeded() ||
         status.IsDataLoss() || status.IsIoError();
}

// The wire fields of `policy`'s program.
void SetProgram(const SimRankPolicy& /*policy*/, WalkMsg* job) {
  job->phase = static_cast<uint32_t>(WalkPhase::kSimRank);
}
void SetProgram(const PprPolicy& policy, WalkMsg* job) {
  job->phase = static_cast<uint32_t>(WalkPhase::kPpr);
  job->alpha = policy.alpha;
}
void SetProgram(const Node2VecPolicy& policy, WalkMsg* job) {
  job->phase = static_cast<uint32_t>(WalkPhase::kNode2Vec);
  job->return_p = policy.params.return_p;
  job->in_out_q = policy.params.in_out_q;
  job->max_trials = policy.params.max_trials;
}

// Why a decoded reply cannot answer `job`, or null when it can: the range
// echo, the counts `Policy`'s program can produce, the step bound, and
// every node id the merge would take. The payload CRC already passed, so
// a violation is a worker bug, never a transport fault.
template <typename Policy>
const char* InvalidReply(const WalkMsg& job, const WalkResultMsg& result,
                         const RangeWalk& reply, NodeId num_nodes) {
  if (result.first != job.first || result.count != job.count) {
    return "answered another walker range";
  }
  if constexpr (Policy::kEmitsLevels) {
    if (reply.levels.size() != job.num_steps || !reply.terminals.empty()) {
      return "sent counts its walk program cannot produce";
    }
    size_t live = job.count;
    for (const std::vector<NodeId>& level : reply.levels) {
      if (level.size() > live) return "sent a level larger than the one before";
      live = level.size();
    }
  } else {
    if (!reply.levels.empty() || reply.terminals.size() > job.count) {
      return "sent counts its walk program cannot produce";
    }
  }
  if (result.steps > uint64_t{job.count} * job.num_steps) {
    return "claimed more steps than count x T";
  }
  const auto out_of_range = [num_nodes](NodeId v) { return v >= num_nodes; };
  for (const std::vector<NodeId>& level : reply.levels) {
    if (std::any_of(level.begin(), level.end(), out_of_range)) {
      return "sent a node id outside the graph";
    }
  }
  if (std::any_of(reply.terminals.begin(), reply.terminals.end(),
                  out_of_range)) {
    return "sent a node id outside the graph";
  }
  return nullptr;
}

}  // namespace

StatusOr<std::vector<RemoteWorkerAddress>> ParseWorkerList(
    const std::string& spec) {
  std::vector<RemoteWorkerAddress> workers;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    const size_t colon = entry.rfind(':');
    if (entry.empty() || colon == std::string::npos || colon == 0 ||
        colon + 1 == entry.size()) {
      return Status::InvalidArgument(
          "worker list entry '" + entry + "' is not host:port (spec: '" +
          spec + "')");
    }
    // Unsigned from_chars takes ASCII digits only: no sign, no spaces.
    const char* const digits_end = entry.data() + entry.size();
    uint32_t port = 0;
    const auto [parsed_end, error] =
        std::from_chars(entry.data() + colon + 1, digits_end, port);
    if (error != std::errc() || parsed_end != digits_end || port == 0 ||
        port > 65535) {
      return Status::InvalidArgument("worker list entry '" + entry +
                                     "' has an invalid port");
    }
    workers.push_back(RemoteWorkerAddress{entry.substr(0, colon),
                                          static_cast<uint16_t>(port)});
    begin = end + 1;
  }
  return workers;
}

RemoteWalkBackend::RemoteWalkBackend(const Graph& graph,
                                     uint64_t fingerprint,
                                     RemoteBackendOptions options)
    // The workers key every draw from their own snapshots; the
    // coordinator draws nothing, so its policies need no permutation.
    : WalkFront(graph.num_nodes(), /*external_ids=*/{}),
      graph_(&graph),
      fingerprint_(fingerprint),
      options_(std::move(options)),
      requests_(options_.workers.size()),
      replies_(options_.workers.size()) {}

StatusOr<std::shared_ptr<const RemoteWalkBackend>> RemoteWalkBackend::Connect(
    const Graph& graph, uint64_t snapshot_fingerprint,
    const RemoteBackendOptions& options) {
  if (options.workers.empty()) {
    return Status::InvalidArgument("remote backend needs >= 1 worker");
  }
  if (options.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1, got " +
                                   std::to_string(options.max_attempts));
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot distribute an empty graph");
  }
  std::shared_ptr<RemoteWalkBackend> backend(
      new RemoteWalkBackend(graph, snapshot_fingerprint, options));
  // Single-threaded here: no lock needed to populate the connections.
  backend->conns_.reserve(backend->options_.workers.size());
  for (size_t i = 0; i < backend->options_.workers.size(); ++i) {
    CW_ASSIGN_OR_RETURN(Socket conn, backend->DialWorker(static_cast<int>(i)));
    backend->conns_.push_back(std::move(conn));
  }
  return std::shared_ptr<const RemoteWalkBackend>(std::move(backend));
}

StatusOr<Socket> RemoteWalkBackend::DialWorker(int worker) const {
  const RemoteWorkerAddress& addr =
      options_.workers[static_cast<size_t>(worker)];
  const double timeout = options_.connect_timeout_seconds;
  StatusOr<Socket> conn = TcpConnect(addr.host, addr.port, timeout);
  if (!conn.ok()) {
    return Status(conn.status().code(), "worker " + addr.ToString() + ": " +
                                            conn.status().message());
  }
  HelloMsg hello;
  hello.protocol_version = kNetProtocolVersion;
  hello.snapshot_fingerprint = fingerprint_;
  hello.num_nodes = graph_->num_nodes();
  CW_RETURN_IF_ERROR(SendFrame(
      *conn, MsgType::kHello,
      EncodeHello(hello, BuildInfoString("cloudwalker-coordinator")),
      timeout));
  CW_ASSIGN_OR_RETURN(Frame reply, RecvFrame(*conn, timeout));
  if (reply.type == MsgType::kError) {
    const Status rejected = DecodeErrorStatus(reply.payload);
    return Status(rejected.code(), "worker " + addr.ToString() +
                                       " rejected handshake: " +
                                       rejected.message());
  }
  if (reply.type != MsgType::kHelloOk) {
    return Status::Internal("worker " + addr.ToString() +
                            " answered kHello with frame type " +
                            std::to_string(static_cast<int>(reply.type)));
  }
  HelloMsg echo;
  std::string build_info;
  CW_RETURN_IF_ERROR(DecodeHello(reply.payload, &echo, &build_info));
  if (echo.protocol_version != hello.protocol_version ||
      echo.snapshot_fingerprint != hello.snapshot_fingerprint ||
      echo.num_nodes != hello.num_nodes) {
    return Status::Internal("worker " + addr.ToString() +
                            " echoed a different handshake than offered");
  }
  return conn;
}

Status RemoteWalkBackend::ExchangeOne(int worker, const std::string& request,
                                      bool sent_ok, Frame* reply) const {
  const RemoteWorkerAddress& addr =
      options_.workers[static_cast<size_t>(worker)];
  const double timeout = options_.superstep_timeout_seconds;
  Socket& conn = conns_[static_cast<size_t>(worker)];
  Status last = Status::Ok();
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0 || !sent_ok) {
      // Reconnect, re-handshake, resend the identical frame. The worker
      // is stateless and every draw is a pure function of the frame's
      // fields, so the replayed job returns the identical bytes.
      if (attempt > 0 && options_.retry_backoff_seconds > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            options_.retry_backoff_seconds));
      }
      conn.Close();
      StatusOr<Socket> fresh = DialWorker(worker);
      if (!fresh.ok()) {
        last = fresh.status();
        if (IsTransportFailure(last)) continue;
        return last;  // deterministic rejection (e.g. kFailedPrecondition)
      }
      conn = std::move(fresh).value();
      ++stats_.reconnects;
      const Status sent = SendFrame(conn, MsgType::kWalk, request, timeout);
      if (!sent.ok()) {
        last = sent;
        continue;
      }
      ++stats_.replays;
      stats_.bytes_sent += request.size();
    }
    sent_ok = true;
    StatusOr<Frame> got = RecvFrame(conn, timeout);
    if (!got.ok()) {
      last = got.status();
      if (IsTransportFailure(last)) continue;
      return last;
    }
    if (got->type == MsgType::kError) {
      const Status remote = DecodeErrorStatus(got->payload);
      return Status(remote.code(),
                    "worker " + addr.ToString() + ": " + remote.message());
    }
    if (got->type != MsgType::kWalkResult) {
      return Status::Internal("worker " + addr.ToString() +
                              " answered kWalk with frame type " +
                              std::to_string(static_cast<int>(got->type)));
    }
    stats_.bytes_received += got->payload.size();
    *reply = std::move(got).value();
    return Status::Ok();
  }
  return Status::Unavailable(
      "worker " + addr.ToString() + " failed a walk job after " +
      std::to_string(options_.max_attempts) + " attempts; last error: " +
      last.ToString());
}

template <typename Policy>
Status RemoteWalkBackend::Drain(int worker, const WalkMsg& job) const {
  const size_t i = static_cast<size_t>(worker);
  Frame reply;
  CW_RETURN_IF_ERROR(ExchangeOne(worker, requests_[i], conns_[i].valid(),
                                 &reply));
  RangeWalk& range = replies_[i];
  WalkResultMsg result;
  CW_RETURN_IF_ERROR(DecodeWalkResult(reply.payload, &result, &range.levels,
                                      &range.terminals));
  if (const char* invalid =
          InvalidReply<Policy>(job, result, range, graph_->num_nodes())) {
    return Status::Internal("worker " + options_.workers[i].ToString() +
                            " " + invalid);
  }
  range.stats = WalkStats{.steps = result.steps};
  return Status::Ok();
}

template <typename Policy>
Status RemoteWalkBackend::Walk(NodeId source, const WalkConfig& config,
                               const Policy& policy, WalkStats* stats,
                               const WalkOutput& out) const {
  // The only cancel point: a job in flight runs to its end.
  if (config.cancel != nullptr && config.cancel->ShouldStop()) {
    return Status::Ok();
  }
  const std::vector<WalkerRange> ranges = SplitWalkerRanges(
      config.num_walkers, static_cast<uint32_t>(num_workers()));
  // The first range is the largest.
  if (!WalkResultFits(ranges.front().size(), config.num_steps)) {
    return Status::InvalidArgument(
        "remote walk of " + std::to_string(config.num_walkers) +
        " walkers x " + std::to_string(config.num_steps) +
        " steps over " + std::to_string(num_workers()) +
        " workers: a worker's reply would exceed the " +
        std::to_string(kNetMaxFramePayload) + "-byte frame cap");
  }
  WalkMsg job;
  SetProgram(policy, &job);
  job.source = source;
  job.seed = config.seed;
  job.num_walkers = config.num_walkers;
  job.num_steps = config.num_steps;
  job.dangling = static_cast<uint32_t>(config.dangling);

  // One job at a time over the shared connections: concurrency lives in
  // the workers. QueryService's dedup/cache layers sit in front of this
  // lock, so identical concurrent queries still collapse to one job.
  std::lock_guard<std::mutex> lock(mu_);
  // Send-all, then recv-all: every worker walks its range while the
  // coordinator is still draining the others' replies. Deadlock-free
  // because a worker fully reads its request before replying. A failed
  // send is not fatal here: it closes the connection, and the drain's
  // retry path redials and resends.
  for (size_t i = 0; i < ranges.size(); ++i) {
    job.first = ranges[i].begin;
    job.count = ranges[i].size();
    requests_[i] = EncodeWalk(job);
    if (conns_[i].valid()) {
      if (SendFrame(conns_[i], MsgType::kWalk, requests_[i],
                    options_.superstep_timeout_seconds)
              .ok()) {
        stats_.bytes_sent += requests_[i].size();
      } else {
        conns_[i].Close();
      }
    }
    stats_.walkers_shipped += job.count;
  }
  for (size_t i = 0; i < ranges.size(); ++i) {
    job.first = ranges[i].begin;
    job.count = ranges[i].size();
    const Status status = Drain<Policy>(static_cast<int>(i), job);
    if (!status.ok()) {
      // Unrecoverable: the failing worker and every still-undrained one
      // may hold a kWalk whose reply was never matched; close those
      // connections so the next job re-dials instead of reading a stale
      // buffered kWalkResult.
      for (size_t rest = i; rest < ranges.size(); ++rest) conns_[rest].Close();
      return status;
    }
  }
  ++stats_.supersteps;
  const std::span<const RangeWalk> replies(replies_.data(), ranges.size());
  MergeRangeWalks<Policy>(replies, config, id_bits(), stats, out);
  return Status::Ok();
}

template Status RemoteWalkBackend::Walk(NodeId, const WalkConfig&,
                                        const SimRankPolicy&, WalkStats*,
                                        const WalkOutput&) const;
template Status RemoteWalkBackend::Walk(NodeId, const WalkConfig&,
                                        const PprPolicy&, WalkStats*,
                                        const WalkOutput&) const;
template Status RemoteWalkBackend::Walk(NodeId, const WalkConfig&,
                                        const Node2VecPolicy&, WalkStats*,
                                        const WalkOutput&) const;

Status RemoteWalkBackend::Ping() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < conns_.size(); ++i) {
    const RemoteWorkerAddress& addr = options_.workers[i];
    Socket& conn = conns_[i];
    if (!conn.valid()) {
      StatusOr<Socket> fresh = DialWorker(static_cast<int>(i));
      if (!fresh.ok()) return fresh.status();
      conn = std::move(fresh).value();
      ++stats_.reconnects;
    }
    Status status = SendFrame(conn, MsgType::kHeartbeat, {},
                              options_.connect_timeout_seconds);
    StatusOr<Frame> ack = status.ok()
                              ? RecvFrame(conn,
                                          options_.connect_timeout_seconds)
                              : StatusOr<Frame>(status);
    if (!ack.ok()) {
      conn.Close();  // Ping again after a restart to re-establish
      return Status::Unavailable("worker " + addr.ToString() +
                                 " failed heartbeat: " +
                                 ack.status().ToString());
    }
    if (ack->type != MsgType::kHeartbeatAck) {
      conn.Close();  // desynced — re-dial on next use
      return Status::Internal("worker " + addr.ToString() +
                              " answered kHeartbeat with frame type " +
                              std::to_string(static_cast<int>(ack->type)));
    }
  }
  return Status::Ok();
}

void RemoteWalkBackend::ShutdownWorkers() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (Socket& conn : conns_) {
    if (!conn.valid()) continue;
    (void)SendFrame(conn, MsgType::kShutdown, {},
                    options_.connect_timeout_seconds);
    conn.Close();
  }
}

RemoteExchangeStats RemoteWalkBackend::exchange_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cloudwalker
