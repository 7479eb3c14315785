// Coordinator-side behavior of cloudwalker-net-v1: worker-list parsing,
// handshake acceptance and every rejection path (protocol version,
// snapshot fingerprint, plan hash, shard range), fast failure on an
// unreachable worker, bounded reconnect-and-replay after a worker fault,
// the rejection of worker replies that do not answer their batch, and the
// TakeError() contract that keeps partial answers out of caches.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "net/framing.h"
#include "net/remote_backend.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/query_service.h"
#include "worker_fleet.h"

namespace cloudwalker {
namespace {

// One snapshot per suite run, shared by every test.
class RemoteBackendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    IndexingOptions opts;
    opts.num_walkers = 40;
    auto built = CloudWalker::Build(GenerateRmat(200, 1500, 11), opts);
    ASSERT_TRUE(built.ok()) << built.status().message();
    path_ = new std::string(::testing::TempDir() + "/remote_backend.cwk");
    ASSERT_TRUE((*built)->WriteSnapshot(*path_).ok());
    auto opened = CloudWalker::Open(*path_);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    base_ = new std::shared_ptr<const CloudWalker>(std::move(*opened));
  }

  static void TearDownTestSuite() {
    delete base_;
    delete path_;
  }

  static const std::string& path() { return *path_; }
  static const std::shared_ptr<const CloudWalker>& base() { return *base_; }

  static QueryOptions FastOptions() {
    QueryOptions q;
    q.num_walkers = 120;
    return q;
  }

  static std::string* path_;
  static std::shared_ptr<const CloudWalker>* base_;
};

std::string* RemoteBackendTest::path_ = nullptr;
std::shared_ptr<const CloudWalker>* RemoteBackendTest::base_ = nullptr;

TEST_F(RemoteBackendTest, ParseWorkerListAcceptsAndRejects) {
  auto two = ParseWorkerList("127.0.0.1:7001,example.net:80");
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  ASSERT_EQ(two->size(), 2u);
  EXPECT_EQ((*two)[0].host, "127.0.0.1");
  EXPECT_EQ((*two)[0].port, 7001);
  EXPECT_EQ((*two)[1].ToString(), "example.net:80");

  EXPECT_TRUE(ParseWorkerList("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWorkerList("noport").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWorkerList("host:0").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWorkerList("host:70000").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWorkerList("host:x").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWorkerList("a:1,,b:2").status().IsInvalidArgument());
}

TEST_F(RemoteBackendTest, UnreachableWorkerFailsFastWithUnavailable) {
  RemoteBackendOptions options;
  options.workers = {{"127.0.0.1", 1}};  // nothing listens on port 1
  options.connect_timeout_seconds = 1.0;
  const auto backend =
      RemoteWalkBackend::Connect(base()->graph(), 1, options);
  ASSERT_FALSE(backend.ok());
  EXPECT_TRUE(backend.status().IsUnavailable())
      << backend.status().ToString();
  EXPECT_NE(backend.status().message().find("127.0.0.1:1"),
            std::string::npos)
      << backend.status().ToString();
}

TEST_F(RemoteBackendTest, WrongFingerprintRejectedAtHandshake) {
  WorkerFleet fleet(path(), 1);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  const uint64_t bogus = fleet.fingerprint() ^ 0xdeadbeefull;
  const auto backend =
      RemoteWalkBackend::Connect(base()->graph(), bogus, options);
  ASSERT_FALSE(backend.ok());
  EXPECT_TRUE(backend.status().IsFailedPrecondition())
      << backend.status().ToString();
  EXPECT_NE(backend.status().message().find("fingerprint"),
            std::string::npos)
      << backend.status().ToString();
}

// Sends one raw kHello with `mutate` applied to an otherwise-correct
// handshake and returns the worker's error reply.
Status RawHandshake(const WorkerFleet& fleet, NodeId num_nodes,
                    void (*mutate)(HelloMsg*)) {
  auto conn = TcpConnect("127.0.0.1", fleet.port(0), 5.0);
  EXPECT_TRUE(conn.ok());
  HelloMsg hello;
  hello.shard = 0;
  hello.num_shards = 1;
  hello.strategy = static_cast<uint32_t>(PartitionStrategy::kHash);
  hello.snapshot_fingerprint = fleet.fingerprint();
  hello.num_nodes = num_nodes;
  hello.plan_hash =
      NetPlanHash(PartitionStrategy::kHash, hello.num_shards, num_nodes);
  mutate(&hello);
  EXPECT_TRUE(SendFrame(*conn, MsgType::kHello,
                        EncodeHello(hello, "raw-test"), 5.0)
                  .ok());
  auto reply = RecvFrame(*conn, 5.0);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  if (!reply.ok()) return reply.status();
  if (reply->type == MsgType::kHelloOk) return Status::Ok();
  EXPECT_EQ(reply->type, MsgType::kError);
  return DecodeErrorStatus(reply->payload);
}

TEST_F(RemoteBackendTest, HandshakeRejectionsNameTheirCause) {
  WorkerFleet fleet(path(), 1);
  const NodeId nodes = base()->graph().num_nodes();

  const Status ok = RawHandshake(fleet, nodes, [](HelloMsg*) {});
  EXPECT_TRUE(ok.ok()) << ok.ToString();

  const Status version = RawHandshake(
      fleet, nodes, [](HelloMsg* h) { h->protocol_version = 999; });
  EXPECT_TRUE(version.IsFailedPrecondition()) << version.ToString();
  EXPECT_NE(version.message().find("protocol version"), std::string::npos)
      << version.ToString();
  EXPECT_NE(version.message().find("999"), std::string::npos);

  const Status shard = RawHandshake(fleet, nodes, [](HelloMsg* h) {
    h->shard = 7;  // >= num_shards = 1
  });
  EXPECT_TRUE(shard.IsFailedPrecondition()) << shard.ToString();

  const Status plan = RawHandshake(
      fleet, nodes, [](HelloMsg* h) { h->plan_hash ^= 1; });
  EXPECT_TRUE(plan.IsFailedPrecondition()) << plan.ToString();
  EXPECT_NE(plan.message().find("plan hash"), std::string::npos)
      << plan.ToString();

  const Status nodes_mismatch = RawHandshake(
      fleet, nodes + 5, [](HelloMsg*) {});
  EXPECT_TRUE(nodes_mismatch.IsFailedPrecondition())
      << nodes_mismatch.ToString();
}

TEST_F(RemoteBackendTest, DistributeAnswersMatchSingleNode) {
  WorkerFleet fleet(path(), 2);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  auto remote = CloudWalker::Distribute(base(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().message();

  const QueryOptions q = FastOptions();
  EXPECT_EQ(base()->SinglePair(3, 40, q).value(),
            (*remote)->SinglePair(3, 40, q).value());
  const auto want = base()->PersonalizedPageRankTopK(7, 10, q).value();
  const auto got = (*remote)->PersonalizedPageRankTopK(7, 10, q).value();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].node, got[i].node);
    EXPECT_EQ(want[i].score, got[i].score);
  }
}

TEST_F(RemoteBackendTest, DistributeRequiresSnapshotBackedEngine) {
  IndexingOptions opts;
  opts.num_walkers = 20;
  const auto in_memory =
      CloudWalker::Build(GenerateRmat(60, 400, 5), opts).value();
  RemoteBackendOptions options;
  options.workers = {{"127.0.0.1", 7001}};
  const auto remote = CloudWalker::Distribute(in_memory, options);
  ASSERT_FALSE(remote.ok());
  EXPECT_TRUE(remote.status().IsFailedPrecondition());
  EXPECT_TRUE(CloudWalker::Distribute(nullptr, options)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(RemoteBackendTest, WorkerFaultIsReplayedBitIdentically) {
  // Worker 0 silently drops its connection after a few frames — exactly
  // once. The coordinator must reconnect, re-handshake, resend the same
  // superstep, and produce the same answer as a fault-free run.
  const QueryOptions q = FastOptions();
  const double want = base()->SinglePair(5, 90, q).value();

  WorkerFleet fleet(path(), 2, /*fail_after=*/4);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  options.superstep_timeout_seconds = 5.0;
  auto remote = CloudWalker::Distribute(base(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().message();
  const auto got = (*remote)->SinglePair(5, 90, q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, want);

  // The recovery is visible in the exchange telemetry.
  const auto* backend =
      dynamic_cast<const RemoteWalkBackend*>((*remote)->walk_backend());
  ASSERT_NE(backend, nullptr);
  const RemoteExchangeStats stats = backend->exchange_stats();
  EXPECT_GE(stats.replays, 1u) << "fault injection never fired";
  EXPECT_GE(stats.reconnects, 1u);
}

TEST_F(RemoteBackendTest, DeadFleetSurfacesUnavailableNotPartialAnswer) {
  WorkerFleet fleet(path(), 2);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  options.connect_timeout_seconds = 0.5;
  options.superstep_timeout_seconds = 0.5;
  options.max_attempts = 2;
  options.retry_backoff_seconds = 0.01;
  auto remote = CloudWalker::Distribute(base(), options);
  ASSERT_TRUE(remote.ok());
  const QueryOptions q = FastOptions();
  ASSERT_TRUE((*remote)->SinglePair(2, 30, q).ok());

  fleet.StopAll();
  const auto dead = (*remote)->SinglePair(2, 30, q);
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsUnavailable()) << dead.status().ToString();

  // The error was drained: it must not leak into a later query's result.
  const auto again = (*remote)->SinglePair(2, 30, q);
  EXPECT_TRUE(again.status().IsUnavailable());
}

TEST_F(RemoteBackendTest, PartialFailureDoesNotWedgeSurvivorConnections) {
  // One worker dies mid-job while the survivor still has a pipelined
  // superstep in flight. The abort must close the survivor's connection
  // too: its buffered reply would otherwise desync every later job
  // (step-mismatch kInternal — deterministic, so never retried) or, on a
  // step/count collision, be silently accepted as the new job's answer.
  WorkerFleet fleet(path(), 2);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  options.connect_timeout_seconds = 0.5;
  options.superstep_timeout_seconds = 2.0;
  options.max_attempts = 2;
  options.retry_backoff_seconds = 0.01;
  auto backend = RemoteWalkBackend::Connect(
      base()->graph(), fleet.fingerprint(), options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  // A source owned by shard 1 makes step 1 succeed against the surviving
  // worker; by step 2 both shards are active, so killing worker 0 aborts
  // the job while worker 1's reply is still buffered on its socket.
  const Partitioner owners((*backend)->strategy(),
                           base()->graph().num_nodes(), 2);
  NodeId source = kInvalidNode;
  for (NodeId v = 0; v < base()->graph().num_nodes(); ++v) {
    if (owners.Owner(v) == 1) {
      source = v;
      break;
    }
  }
  ASSERT_NE(source, kInvalidNode);

  WalkConfig config;
  config.num_walkers = 120;
  config.num_steps = 6;
  config.seed = 7;
  const WalkDistributions want =
      (*backend)->SimRankLevels(source, config, nullptr);
  ASSERT_TRUE((*backend)->TakeError().ok());

  fleet.Stop(0);
  (void)(*backend)->SimRankLevels(source, config, nullptr);
  const Status failed = (*backend)->TakeError();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsUnavailable()) << failed.ToString();

  fleet.Restart(0, path());
  const WalkDistributions healed =
      (*backend)->SimRankLevels(source, config, nullptr);
  const Status drained = (*backend)->TakeError();
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  ASSERT_EQ(healed.num_levels(), want.num_levels());
  for (size_t t = 0; t < want.num_levels(); ++t) {
    ASSERT_EQ(healed.levels[t].size(), want.levels[t].size()) << "level " << t;
    for (size_t i = 0; i < want.levels[t].size(); ++i) {
      EXPECT_EQ(healed.levels[t][i], want.levels[t][i]) << "level " << t;
    }
  }
}

TEST_F(RemoteBackendTest, PingDetectsDeathAndRecoversAfterRestart) {
  WorkerFleet fleet(path(), 2);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  options.connect_timeout_seconds = 0.5;
  auto backend = RemoteWalkBackend::Connect(
      base()->graph(), fleet.fingerprint(), options);
  ASSERT_TRUE(backend.ok());
  EXPECT_TRUE((*backend)->Ping().ok());

  fleet.Stop(1);
  const Status dead = (*backend)->Ping();
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.IsUnavailable()) << dead.ToString();

  fleet.Restart(1, path());
  EXPECT_TRUE((*backend)->Ping().ok());
}

TEST_F(RemoteBackendTest, ExchangeStatsCountTraffic) {
  WorkerFleet fleet(path(), 3);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  auto backend = RemoteWalkBackend::Connect(
      base()->graph(), fleet.fingerprint(), options);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ((*backend)->num_workers(), 3);

  WalkConfig config;
  config.num_walkers = 100;
  config.num_steps = 6;
  config.seed = 7;
  WalkStats stats;
  const auto levels = (*backend)->SimRankLevels(4, config, &stats);
  EXPECT_TRUE((*backend)->TakeError().ok());
  EXPECT_EQ(levels.num_levels(), config.num_steps + 1);
  EXPECT_GT(stats.steps, 0u);

  const RemoteExchangeStats net = (*backend)->exchange_stats();
  EXPECT_GT(net.supersteps, 0u);
  EXPECT_GT(net.walkers_shipped, 0u);
  EXPECT_GT(net.bytes_sent, 0u);
  EXPECT_GT(net.bytes_received, 0u);
  EXPECT_EQ(net.replays, 0u);
}

// A worker's reply to one superstep, before it is framed.
struct Reply {
  std::vector<WalkerRec> survivors;
  std::vector<NodeId> endpoints;
  std::vector<NodeId> terminals;
  uint32_t dead = 0;
};

// A fake worker that handshakes like a real one, then answers every
// kSuperstep with a CRC-valid kResult: every walker survives in place
// (with its endpoint for a level program), then `forge` edits the reply.
// Only the coordinator's reply validation stands between the forged
// reply and the level buffers. Serves connections one after another
// until destroyed.
class FakeWorker {
 public:
  using Forge = void (*)(NodeId num_nodes, Reply* reply);

  FakeWorker(NodeId num_nodes, Forge forge)
      : num_nodes_(num_nodes), forge_(forge) {
    auto listener = TcpListen(0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::move(*listener);
    port_ = BoundPort(listener_).value();
    thread_ = std::thread([this] { Serve(); });
  }

  ~FakeWorker() {
    stop_.store(true);
    thread_.join();
  }
  FakeWorker(const FakeWorker&) = delete;
  FakeWorker& operator=(const FakeWorker&) = delete;

  RemoteWorkerAddress address() const { return {"127.0.0.1", port_}; }

 private:
  void Serve() {
    while (!stop_.load()) {
      StatusOr<Socket> conn = TcpAccept(listener_, 0.05);
      if (conn.ok()) ServeConnection(*conn);
    }
  }

  void ServeConnection(const Socket& conn) {
    while (!stop_.load()) {
      const Status ready = WaitReadable(conn, 0.05);
      if (ready.IsDeadlineExceeded()) continue;
      if (!ready.ok()) return;
      StatusOr<Frame> frame = RecvFrame(conn, 5.0);
      if (!frame.ok()) return;
      if (frame->type == MsgType::kHello) {
        HelloMsg hello;
        std::string build;
        ASSERT_TRUE(DecodeHello(frame->payload, &hello, &build).ok());
        ASSERT_TRUE(SendFrame(conn, MsgType::kHelloOk,
                              EncodeHello(hello, "fake-worker"), 5.0)
                        .ok());
      } else if (frame->type == MsgType::kSuperstep) {
        SuperstepMsg msg;
        std::vector<WalkerRec> batch;
        ASSERT_TRUE(DecodeSuperstep(frame->payload, &msg, &batch).ok());
        Reply reply;
        reply.survivors = batch;
        if (static_cast<WalkPhase>(msg.phase) != WalkPhase::kPpr) {
          for (const WalkerRec& rec : batch) {
            reply.endpoints.push_back(rec.cur);
          }
        }
        forge_(num_nodes_, &reply);
        ResultMsg result;
        result.step = msg.step;
        result.steps = batch.size();
        result.dead = reply.dead;
        ASSERT_TRUE(SendFrame(conn, MsgType::kResult,
                              EncodeResult(result, reply.survivors,
                                           reply.endpoints, reply.terminals),
                              5.0)
                        .ok());
      } else {
        ASSERT_TRUE(
            SendFrame(conn, MsgType::kHeartbeatAck, {}, 5.0).ok());
      }
    }
  }

  const NodeId num_nodes_;
  const Forge forge_;
  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Serves `request` twice through a QueryService over a one-worker fleet
// whose worker forges its replies with `forge`: both answers must be
// kInternal (the error was not cached), and nothing may hit the cache.
void ExpectForgedReplyRejected(const std::shared_ptr<const CloudWalker>& base,
                               FakeWorker::Forge forge,
                               const QueryRequest& request) {
  FakeWorker fake(base->graph().num_nodes(), forge);
  RemoteBackendOptions options;
  options.workers = {fake.address()};
  auto remote = CloudWalker::Distribute(base, options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ServeOptions serve;
  serve.query.num_walkers = 120;
  QueryService service(*remote, serve);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const QueryResponse response = service.Execute(request);
    EXPECT_EQ(response.status.code(), StatusCode::kInternal)
        << "attempt " << attempt << ": " << response.status.ToString();
  }
  EXPECT_EQ(service.Stats().cache_hits, 0u);
}

TEST_F(RemoteBackendTest, RejectsAnEndpointOutsideTheGraph) {
  ExpectForgedReplyRejected(
      base(), [](NodeId n, Reply* r) { r->endpoints.front() = n + 5; },
      QueryRequest::Pair(3, 40));
}

TEST_F(RemoteBackendTest, RejectsEndpointsThatDoNotMatchTheSurvivors) {
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { r->endpoints.clear(); },
      QueryRequest::SourceTopK(3, 10));
}

TEST_F(RemoteBackendTest, RejectsASurvivorOutsideTheGraph) {
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { r->survivors.front().cur = 1000; },
      QueryRequest::PersonalizedPageRank(3, 10));
}

TEST_F(RemoteBackendTest, RejectsATerminalOutsideTheGraph) {
  ExpectForgedReplyRejected(
      base(),
      [](NodeId n, Reply* r) {
        r->terminals.push_back(n);
        r->survivors.pop_back();
      },
      QueryRequest::PersonalizedPageRank(3, 10));
}

TEST_F(RemoteBackendTest, RejectsCountsTheProgramCannotProduce) {
  // A PPR reply with endpoints...
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { r->endpoints.push_back(0); },
      QueryRequest::PersonalizedPageRank(3, 10));
  // ...and a level-program reply with terminals.
  ExpectForgedReplyRejected(
      base(),
      [](NodeId, Reply* r) {
        r->terminals.push_back(r->survivors.back().cur);
        r->survivors.pop_back();
        r->endpoints.pop_back();
      },
      QueryRequest::Node2Vec(3, 10));
}

}  // namespace
}  // namespace cloudwalker
