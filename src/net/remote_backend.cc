#include "net/remote_backend.h"

#include <algorithm>
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

using Clock = std::chrono::steady_clock;

// Failures worth a reconnect-and-replay: the worker (or the wire) went
// away or garbled. Protocol-level rejections (kError frames, decode
// failures) are deterministic — replaying the same frame reproduces them,
// so they abort immediately instead.
bool IsTransportFailure(const Status& status) {
  return status.IsUnavailable() || status.IsDeadlineExceeded() ||
         status.IsDataLoss() || status.IsIoError();
}

PartitionStrategy ResolveStrategy(const Graph& graph, int num_workers,
                                  const RemoteBackendOptions& options) {
  switch (options.placement) {
    case ShardingOptions::Placement::kHash:
      return PartitionStrategy::kHash;
    case ShardingOptions::Placement::kRange:
      return PartitionStrategy::kRange;
    case ShardingOptions::Placement::kAuto:
      break;
  }
  // Same resolution as ShardPlan::Build: score both, ties go to hash —
  // --workers=N and --shards=N must route walkers identically.
  const PlacementScore hash = ShardPlan::Score(
      graph, PartitionStrategy::kHash, num_workers, options.cost_model);
  const PlacementScore range = ShardPlan::Score(
      graph, PartitionStrategy::kRange, num_workers, options.cost_model);
  return range.superstep_seconds < hash.superstep_seconds
             ? PartitionStrategy::kRange
             : PartitionStrategy::kHash;
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
    unsigned long port = 0;  // NOLINT(runtime/int) — strtoul's type
    try {
      size_t used = 0;
      port = std::stoul(entry.substr(colon + 1), &used);
      if (used != entry.size() - colon - 1) port = 0;
    } catch (...) {
      port = 0;
    }
    if (port == 0 || port > 65535) {
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
                                     RemoteBackendOptions options,
                                     PartitionStrategy strategy)
    // The workers key every draw from their own snapshots; the
    // coordinator draws nothing, so its policies need no permutation.
    : WalkFront(graph.num_nodes(), /*external_ids=*/{}),
      graph_(&graph),
      fingerprint_(fingerprint),
      options_(std::move(options)),
      partitioner_(strategy, graph.num_nodes(),
                   static_cast<int>(options_.workers.size())),
      plan_hash_(NetPlanHash(strategy,
                             static_cast<uint32_t>(options_.workers.size()),
                             graph.num_nodes())),
      last_activity_(Clock::now()) {}

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
  const PartitionStrategy strategy = ResolveStrategy(
      graph, static_cast<int>(options.workers.size()), options);
  std::shared_ptr<RemoteWalkBackend> backend(new RemoteWalkBackend(
      graph, snapshot_fingerprint, options, strategy));
  // Single-threaded here: no lock needed to populate the connections.
  backend->conns_.reserve(backend->options_.workers.size());
  for (size_t shard = 0; shard < backend->options_.workers.size(); ++shard) {
    CW_ASSIGN_OR_RETURN(Socket conn,
                        backend->DialWorker(static_cast<int>(shard)));
    backend->conns_.push_back(std::move(conn));
  }
  return std::shared_ptr<const RemoteWalkBackend>(std::move(backend));
}

StatusOr<Socket> RemoteWalkBackend::DialWorker(int shard) const {
  const RemoteWorkerAddress& addr =
      options_.workers[static_cast<size_t>(shard)];
  const double timeout = options_.connect_timeout_seconds;
  StatusOr<Socket> conn = TcpConnect(addr.host, addr.port, timeout);
  if (!conn.ok()) {
    return Status(conn.status().code(), "worker " + addr.ToString() + ": " +
                                            conn.status().message());
  }
  HelloMsg hello;
  hello.protocol_version = kNetProtocolVersion;
  hello.shard = static_cast<uint32_t>(shard);
  hello.num_shards = static_cast<uint32_t>(options_.workers.size());
  hello.strategy = static_cast<uint32_t>(partitioner_.strategy());
  hello.snapshot_fingerprint = fingerprint_;
  hello.plan_hash = plan_hash_;
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
      echo.shard != hello.shard || echo.num_shards != hello.num_shards ||
      echo.strategy != hello.strategy ||
      echo.snapshot_fingerprint != hello.snapshot_fingerprint ||
      echo.plan_hash != hello.plan_hash ||
      echo.num_nodes != hello.num_nodes) {
    return Status::Internal("worker " + addr.ToString() +
                            " echoed a different handshake than offered");
  }
  return conn;
}

Status RemoteWalkBackend::ExchangeOne(int shard, const std::string& request,
                                      bool sent_ok, Frame* reply) const {
  const RemoteWorkerAddress& addr =
      options_.workers[static_cast<size_t>(shard)];
  const double timeout = options_.superstep_timeout_seconds;
  Socket& conn = conns_[static_cast<size_t>(shard)];
  Status last = Status::Ok();
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0 || !sent_ok) {
      // Reconnect, re-handshake, resend the identical frame. The worker
      // is stateless and every draw is a pure function of the frame's
      // fields, so the replayed superstep returns the identical bytes.
      if (attempt > 0 && options_.retry_backoff_seconds > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            options_.retry_backoff_seconds));
      }
      conn.Close();
      StatusOr<Socket> fresh = DialWorker(shard);
      if (!fresh.ok()) {
        last = fresh.status();
        if (IsTransportFailure(last)) continue;
        return last;  // deterministic rejection (e.g. kFailedPrecondition)
      }
      conn = std::move(fresh).value();
      ++stats_.reconnects;
      const Status sent = SendFrame(conn, MsgType::kSuperstep, request,
                                    timeout);
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
    if (got->type != MsgType::kResult) {
      return Status::Internal("worker " + addr.ToString() +
                              " answered kSuperstep with frame type " +
                              std::to_string(static_cast<int>(got->type)));
    }
    stats_.bytes_received += got->payload.size();
    *reply = std::move(got).value();
    return Status::Ok();
  }
  return Status::Unavailable(
      "worker " + addr.ToString() + " failed a superstep after " +
      std::to_string(options_.max_attempts) + " attempts; last error: " +
      last.ToString());
}

void RemoteWalkBackend::SweepHeartbeats() const {
  if (options_.heartbeat_interval_seconds <= 0 ||
      std::chrono::duration<double>(Clock::now() - last_activity_).count() <=
          options_.heartbeat_interval_seconds) {
    return;
  }
  for (Socket& conn : conns_) {
    if (!conn.valid()) continue;
    Status alive_check = SendFrame(conn, MsgType::kHeartbeat, {},
                                   options_.connect_timeout_seconds);
    if (alive_check.ok()) {
      StatusOr<Frame> ack = RecvFrame(conn, options_.connect_timeout_seconds);
      if (!ack.ok()) {
        alive_check = ack.status();
      } else if (ack->type != MsgType::kHeartbeatAck) {
        // A stale kResult / kError here means the connection is desynced,
        // not alive — drop it like a dead one.
        alive_check = Status::Internal("desynced heartbeat reply");
      }
    }
    if (!alive_check.ok()) conn.Close();  // redialed on first use
  }
}

// The level-loop executor of one job (engine/walk_driver.h): one part per
// worker. Advance is the coordinator's superstep — send every non-empty
// bucket, then drain each reply into the level buffers — and the loop's
// next bucketing by owner routes the survivors.
class RemoteWalkBackend::Levels {
 public:
  template <typename Policy>
  Levels(const RemoteWalkBackend& backend, NodeId source,
         const WalkConfig& config, const Policy& policy)
      : backend_(&backend),
        requests_(static_cast<size_t>(backend.num_workers())),
        sent_(static_cast<size_t>(backend.num_workers()), 0) {
    SetProgram(policy);
    proto_.source = source;
    proto_.num_walkers = config.num_walkers;
    proto_.num_steps = config.num_steps;
    proto_.seed = config.seed;
    proto_.dangling = static_cast<uint32_t>(config.dangling);
  }

  NodeId num_nodes() const { return backend_->graph_->num_nodes(); }
  uint32_t num_parts() const {
    return static_cast<uint32_t>(backend_->num_workers());
  }
  uint32_t PartOf(NodeId v) const {
    return static_cast<uint32_t>(backend_->partitioner_.Owner(v));
  }

  template <typename Policy>
  Status Advance(const Policy& /*policy*/, const WalkConfig& /*config*/,
                 uint32_t t, const LevelFrontier& frontier,
                 BufferSink<Policy::kEmitsLevels>& sink) const {
    const RemoteWalkBackend& b = *backend_;
    proto_.step = t;
    // Send-all, then recv-all: every worker computes its batch while the
    // coordinator is still draining the others' replies. Deadlock-free
    // because a worker fully reads its request before replying. A failed
    // send is not fatal here — the retry path resends.
    active_.clear();
    for (uint32_t shard = 0; shard < num_parts(); ++shard) {
      const std::span<const WalkerRec> batch = frontier.Part(shard);
      if (batch.empty()) continue;
      active_.push_back(shard);
      requests_[shard] = EncodeSuperstep(proto_, batch);
      const Status st =
          SendFrame(b.conns_[shard], MsgType::kSuperstep, requests_[shard],
                    b.options_.superstep_timeout_seconds);
      sent_[shard] = st.ok() ? 1 : 0;
      if (st.ok()) b.stats_.bytes_sent += requests_[shard].size();
      b.stats_.walkers_shipped += batch.size();
    }
    for (size_t drained = 0; drained < active_.size(); ++drained) {
      const uint32_t shard = active_[drained];
      const Status status = Drain(shard, t, frontier.Part(shard).size(), sink);
      if (!status.ok()) {
        // Unrecoverable: the loop aborts the job and the front records the
        // error. The failing shard and every still-undrained shard may
        // have a kSuperstep in flight whose reply was never matched;
        // close those connections so the next job re-dials instead of
        // reading a stale buffered kResult.
        for (size_t rest = drained; rest < active_.size(); ++rest) {
          b.conns_[active_[rest]].Close();
        }
        return status;
      }
    }
    ++b.stats_.supersteps;
    b.last_activity_ = Clock::now();
    return Status::Ok();
  }

 private:
  void SetProgram(const SimRankPolicy& /*policy*/) {
    proto_.phase = static_cast<uint32_t>(WalkPhase::kSimRank);
  }
  void SetProgram(const PprPolicy& policy) {
    proto_.phase = static_cast<uint32_t>(WalkPhase::kPpr);
    proto_.alpha = policy.alpha;
  }
  void SetProgram(const Node2VecPolicy& policy) {
    proto_.phase = static_cast<uint32_t>(WalkPhase::kNode2Vec);
    proto_.return_p = policy.params.return_p;
    proto_.in_out_q = policy.params.in_out_q;
    proto_.max_trials = policy.params.max_trials;
  }

  // Receives `shard`'s reply to its `batch`-walker superstep `t`, checks
  // that it answers that batch, and appends it to the level buffers.
  template <bool kEmitsLevels>
  Status Drain(uint32_t shard, uint32_t t, size_t batch,
               BufferSink<kEmitsLevels>& sink) const {
    const RemoteWalkBackend& b = *backend_;
    Frame reply;
    CW_RETURN_IF_ERROR(
        b.ExchangeOne(static_cast<int>(shard), requests_[shard],
                      sent_[shard] != 0, &reply));
    ResultMsg result;
    survivors_.clear();
    endpoints_.clear();
    terminals_.clear();
    CW_RETURN_IF_ERROR(DecodeResult(reply.payload, &result, &survivors_,
                                    &endpoints_, &terminals_));
    if (const char* invalid = InvalidReply(result, t, batch, kEmitsLevels)) {
      return Status::Internal("worker " +
                              b.options_.workers[shard].ToString() + " " +
                              invalid + " at step " + std::to_string(t));
    }
    for (const WalkerRec& rec : survivors_) {
      sink.survivors[sink.num_survivors++] = rec;
      if (PartOf(rec.cur) != shard) ++sink.crossings;
    }
    if constexpr (kEmitsLevels) {
      std::copy(endpoints_.begin(), endpoints_.end(),
                sink.endpoints + sink.num_endpoints);
      sink.num_endpoints += endpoints_.size();
    } else {
      std::copy(terminals_.begin(), terminals_.end(),
                sink.terminals + sink.num_terminals);
      sink.num_terminals += terminals_.size();
    }
    sink.steps += result.steps;
    return Status::Ok();
  }

  // Why the decoded reply cannot answer a `batch`-walker superstep `t`,
  // or null when it can: the step echo, the walker bookkeeping, the counts
  // the program allows, and every node id the level buffers would take.
  // The payload CRC already passed, so a violation is a worker bug, never
  // a transport fault.
  const char* InvalidReply(const ResultMsg& result, uint32_t t, size_t batch,
                           bool emits_levels) const {
    if (result.step != t) return "answered the wrong superstep";
    if (survivors_.size() + terminals_.size() + result.dead != batch) {
      return "broke the superstep bookkeeping invariant";
    }
    if (emits_levels ? endpoints_.size() != survivors_.size() ||
                           !terminals_.empty()
                     : !endpoints_.empty()) {
      return "sent counts its walk program cannot produce";
    }
    const auto out_of_range = [n = num_nodes()](NodeId v) { return v >= n; };
    for (const WalkerRec& rec : survivors_) {
      if (out_of_range(rec.cur) ||
          (rec.prev != kInvalidNode && out_of_range(rec.prev))) {
        return "placed a survivor outside the graph";
      }
    }
    if (std::any_of(endpoints_.begin(), endpoints_.end(), out_of_range) ||
        std::any_of(terminals_.begin(), terminals_.end(), out_of_range)) {
      return "sent a node id outside the graph";
    }
    return nullptr;
  }

  const RemoteWalkBackend* backend_;
  mutable SuperstepMsg proto_;
  mutable std::vector<std::string> requests_;
  mutable std::vector<char> sent_;
  mutable std::vector<uint32_t> active_;
  mutable std::vector<WalkerRec> survivors_;
  mutable std::vector<NodeId> endpoints_;
  mutable std::vector<NodeId> terminals_;
};

template <typename Policy>
Status RemoteWalkBackend::Walk(NodeId source, const WalkConfig& config,
                               const Policy& policy, WalkStats* stats,
                               const WalkOutput& out) const {
  const Levels levels(*this, source, config, policy);
  // One job at a time over the shared connections: concurrency lives in
  // the workers. QueryService's dedup/cache layers sit in front of this
  // lock, so identical concurrent queries still collapse to one job.
  std::lock_guard<std::mutex> lock(mu_);
  SweepHeartbeats();
  return LevelLoop::Run(levels, source, config, policy, 0,
                        config.num_walkers, /*scratch=*/nullptr, stats, out);
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
  for (size_t shard = 0; shard < conns_.size(); ++shard) {
    const RemoteWorkerAddress& addr = options_.workers[shard];
    Socket& conn = conns_[shard];
    if (!conn.valid()) {
      StatusOr<Socket> fresh = DialWorker(static_cast<int>(shard));
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
  last_activity_ = Clock::now();
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
