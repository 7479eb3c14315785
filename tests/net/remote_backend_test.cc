// Coordinator-side behavior of cloudwalker-net-v2: worker-list parsing,
// handshake acceptance and every rejection path (protocol version,
// snapshot fingerprint, node count), fast failure on an unreachable
// worker, bounded reconnect-and-replay after a worker fault, the walker-
// range split at every R' (bit-identical, no frame for an empty range),
// the one cancel point, the worker's job validation, the frame-cap
// refusal, the rejection of worker replies that do not answer their
// range, and the TakeError() contract that keeps partial answers out of
// caches.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "core/cloudwalker.h"
#include "engine/walk_backend.h"
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
  // A port is ASCII digits only: no sign, no padding.
  EXPECT_TRUE(ParseWorkerList("h: 80").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWorkerList("h:+80").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWorkerList("h:  0080").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWorkerList("h:80 ").status().IsInvalidArgument());
  EXPECT_TRUE(ParseWorkerList("h:-1").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseWorkerList("h:99999999999999999999").status().IsInvalidArgument());
  auto padded = ParseWorkerList("h:0080");
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  EXPECT_EQ((*padded)[0].port, 80);
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
  hello.snapshot_fingerprint = fleet.fingerprint();
  hello.num_nodes = num_nodes;
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
  const QueryRequest pair = QueryRequest::Pair(3, 40).WithOptions(q);
  EXPECT_EQ(base()->Execute(pair).score(), (*remote)->Execute(pair).score());
  const QueryRequest ppr =
      QueryRequest::PersonalizedPageRank(7, 10).WithOptions(q);
  const TopKResult want = *base()->Execute(ppr).topk();
  const TopKResult got = *(*remote)->Execute(ppr).topk();
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
  // Worker 0 silently drops its connection on its third frame — the
  // second kWalk of the pair query, after the kHello and the first walk's
  // kWalk — exactly once. The coordinator must reconnect, re-handshake,
  // resend the same job, and produce the same answer as a fault-free run.
  const QueryOptions q = FastOptions();
  const QueryRequest pair = QueryRequest::Pair(5, 90).WithOptions(q);
  const double want = base()->Execute(pair).score();

  WorkerFleet fleet(path(), 2, /*fail_after=*/2);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  options.superstep_timeout_seconds = 5.0;
  auto remote = CloudWalker::Distribute(base(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().message();
  const QueryResponse got = (*remote)->Execute(pair);
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  EXPECT_EQ(got.score(), want);

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
  const QueryRequest pair = QueryRequest::Pair(2, 30).WithOptions(q);
  ASSERT_TRUE((*remote)->Execute(pair).ok());

  fleet.StopAll();
  const QueryResponse dead = (*remote)->Execute(pair);
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status.IsUnavailable()) << dead.status.ToString();

  // The error was drained: it must not leak into a later query's result.
  const QueryResponse again = (*remote)->Execute(pair);
  EXPECT_TRUE(again.status.IsUnavailable());
}

TEST_F(RemoteBackendTest, PartialFailureDoesNotWedgeSurvivorConnections) {
  // One worker dies mid-job while the survivor still has a pipelined
  // kWalk in flight. The abort must close the survivor's connection too:
  // its buffered reply would otherwise desync every later job (a range
  // mismatch is kInternal — deterministic, so never retried) or, on a
  // matching range, be silently accepted as the new job's answer.
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

  // Every walk gives both workers a range, so killing worker 0 aborts the
  // job while worker 1's reply is still buffered on its socket. The
  // failed walk draws another seed than the healed one, whose range is
  // the same: a stale reply accepted in place of the fresh one would
  // change the healed answer.
  const NodeId source = 4;

  WalkConfig config;
  config.num_walkers = 120;
  config.num_steps = 6;
  config.seed = 7;
  const WalkDistributions want =
      (*backend)->SimRankLevels(source, config, nullptr);
  ASSERT_TRUE((*backend)->TakeError().ok());

  fleet.Stop(0);
  WalkConfig other_seed = config;
  other_seed.seed = 8;
  (void)(*backend)->SimRankLevels(source, other_seed, nullptr);
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

// Exact equality of two walks' levels, entry for entry.
void ExpectSameLevels(const WalkDistributions& got,
                      const WalkDistributions& want, const std::string& what) {
  ASSERT_EQ(got.num_levels(), want.num_levels()) << what;
  for (size_t t = 0; t < want.num_levels(); ++t) {
    ASSERT_EQ(got.levels[t].size(), want.levels[t].size())
        << what << " level " << t;
    for (size_t i = 0; i < want.levels[t].size(); ++i) {
      EXPECT_EQ(got.levels[t][i], want.levels[t][i]) << what << " level " << t;
    }
  }
}

void ExpectSameVector(const SparseVector& got, const SparseVector& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what;
  }
}

TEST_F(RemoteBackendTest, WalkerRangesMatchLocalAtEveryWalkerCount) {
  // Three workers, R' from fewer walkers than workers up to many: every
  // program under both dangling policies equals the single-node walk bit
  // for bit, and a worker whose range is empty receives no frame.
  WorkerFleet fleet(path(), 3);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  auto backend = RemoteWalkBackend::Connect(
      base()->graph(), fleet.fingerprint(), options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  const WalkContext context(base()->graph());
  const LocalWalkBackend local(base()->graph(), &context);
  const Node2VecParams biased{/*return_p=*/0.5, /*in_out_q=*/2.0};
  const NodeId source = 4;

  for (const uint32_t walkers : {1u, 2u, 5u, 1000u}) {
    for (const DanglingPolicy dangling :
         {DanglingPolicy::kDie, DanglingPolicy::kSelfLoop}) {
      const std::string what =
          "R'=" + std::to_string(walkers) + " dangling=" +
          std::to_string(static_cast<int>(dangling));
      WalkConfig config;
      config.num_walkers = walkers;
      config.num_steps = 8;
      config.seed = 11;
      config.dangling = dangling;
      std::vector<uint64_t> before;
      for (size_t i = 0; i < fleet.size(); ++i) {
        before.push_back(fleet.frames_served(i));
      }
      WalkStats remote_stats;
      WalkStats local_stats;
      ExpectSameLevels((*backend)->SimRankLevels(source, config, &remote_stats),
                       local.SimRankLevels(source, config, &local_stats),
                       what + " simrank");
      ExpectSameVector(
          (*backend)->PprEndpoints(source, config, PprParams{}, &remote_stats),
          local.PprEndpoints(source, config, PprParams{}, &local_stats),
          what + " ppr");
      ExpectSameLevels(
          (*backend)->Node2VecLevels(source, config, biased, &remote_stats),
          local.Node2VecLevels(source, config, biased, &local_stats),
          what + " node2vec");
      EXPECT_EQ(remote_stats.steps, local_stats.steps) << what;
      const Status error = (*backend)->TakeError();
      EXPECT_TRUE(error.ok()) << what << ": " << error.ToString();
      for (size_t i = 0; i < fleet.size(); ++i) {
        const uint64_t jobs = i < walkers ? 3 : 0;
        EXPECT_EQ(fleet.frames_served(i), before[i] + jobs)
            << what << " worker " << i;
      }
    }
  }
}

TEST_F(RemoteBackendTest, StoppedTokenSendsNothingAndNextWalkAnswers) {
  // The remote backend polls its cancel token once, before dispatch: a
  // walk whose token has already fired sends no frame, returns empty, and
  // is no error. Both stop causes: an explicit cancel and a deadline.
  WorkerFleet fleet(path(), 2);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  auto backend = RemoteWalkBackend::Connect(
      base()->graph(), fleet.fingerprint(), options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();

  CancelToken cancelled;
  cancelled.Cancel();
  CancelToken expired;
  expired.SetDeadline(1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(expired.ShouldStop());

  WalkConfig config;
  config.num_walkers = 120;
  config.num_steps = 6;
  config.seed = 7;
  const NodeId source = 4;
  const uint64_t frames0 = fleet.frames_served(0);
  const uint64_t frames1 = fleet.frames_served(1);
  for (const CancelToken* token : {&cancelled, &expired}) {
    config.cancel = token;
    const WalkDistributions levels =
        (*backend)->SimRankLevels(source, config, nullptr);
    ASSERT_EQ(levels.num_levels(), config.num_steps + 1);
    for (size_t t = 1; t < levels.num_levels(); ++t) {
      EXPECT_TRUE(levels.levels[t].empty()) << "level " << t;
    }
    EXPECT_TRUE(
        (*backend)->PprEndpoints(source, config, PprParams{}, nullptr).empty());
    const WalkDistributions visits =
        (*backend)->Node2VecLevels(source, config, Node2VecParams{}, nullptr);
    for (size_t t = 1; t < visits.num_levels(); ++t) {
      EXPECT_TRUE(visits.levels[t].empty()) << "level " << t;
    }
    const Status error = (*backend)->TakeError();
    EXPECT_TRUE(error.ok()) << error.ToString();
  }
  EXPECT_EQ(fleet.frames_served(0), frames0);
  EXPECT_EQ(fleet.frames_served(1), frames1);
  EXPECT_EQ((*backend)->exchange_stats().supersteps, 0u);

  // The next walk answers bit-identically.
  config.cancel = nullptr;
  const WalkContext context(base()->graph());
  const LocalWalkBackend local(base()->graph(), &context);
  ExpectSameLevels((*backend)->SimRankLevels(source, config, nullptr),
                   local.SimRankLevels(source, config, nullptr), "simrank");
  ExpectSameVector(
      (*backend)->PprEndpoints(source, config, PprParams{}, nullptr),
      local.PprEndpoints(source, config, PprParams{}, nullptr), "ppr");
  ExpectSameLevels(
      (*backend)->Node2VecLevels(source, config, Node2VecParams{}, nullptr),
      local.Node2VecLevels(source, config, Node2VecParams{}, nullptr),
      "node2vec");
  EXPECT_TRUE((*backend)->TakeError().ok());
}

TEST_F(RemoteBackendTest, OverCapJobIsRefusedBeforeAnythingIsSent) {
  // At T = 10 one frame holds about 26.8M walkers' endpoints, so a
  // 30M-walker walk on one worker cannot be answered: the coordinator
  // refuses it with kInvalidArgument instead of sending a job whose reply
  // the worker could never frame.
  WorkerFleet fleet(path(), 1);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  auto backend = RemoteWalkBackend::Connect(
      base()->graph(), fleet.fingerprint(), options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  const uint64_t frames = fleet.frames_served(0);

  WalkConfig config;
  config.num_walkers = 30'000'000;
  config.num_steps = 10;
  const WalkDistributions levels =
      (*backend)->SimRankLevels(4, config, nullptr);
  for (size_t t = 1; t < levels.num_levels(); ++t) {
    EXPECT_TRUE(levels.levels[t].empty()) << "level " << t;
  }
  const Status refused = (*backend)->TakeError();
  EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
  EXPECT_NE(refused.message().find("frame cap"), std::string::npos)
      << refused.ToString();
  EXPECT_EQ(fleet.frames_served(0), frames);
  const RemoteExchangeStats stats = (*backend)->exchange_stats();
  EXPECT_EQ(stats.bytes_sent, 0u);
  EXPECT_EQ(stats.walkers_shipped, 0u);
}

// Handshakes a raw connection with worker 0 of `fleet`, sends one kWalk —
// a valid SimRank job with `mutate` applied, its payload followed by
// `pad` — and returns OK for a kWalkResult or the worker's kError status.
Status RawJob(const WorkerFleet& fleet, NodeId num_nodes,
              void (*mutate)(WalkMsg*), std::string_view pad = {}) {
  auto conn = TcpConnect("127.0.0.1", fleet.port(0), 5.0);
  EXPECT_TRUE(conn.ok());
  if (!conn.ok()) return conn.status();
  HelloMsg hello;
  hello.snapshot_fingerprint = fleet.fingerprint();
  hello.num_nodes = num_nodes;
  EXPECT_TRUE(
      SendFrame(*conn, MsgType::kHello, EncodeHello(hello, "raw-test"), 5.0)
          .ok());
  auto greeted = RecvFrame(*conn, 5.0);
  EXPECT_TRUE(greeted.ok() && greeted->type == MsgType::kHelloOk);
  WalkMsg job;
  job.phase = static_cast<uint32_t>(WalkPhase::kSimRank);
  job.source = 4;
  job.seed = 7;
  job.num_walkers = 120;
  job.num_steps = 6;
  job.first = 40;
  job.count = 80;
  mutate(&job);
  EXPECT_TRUE(SendFrame(*conn, MsgType::kWalk,
                        EncodeWalk(job) + std::string(pad), 5.0)
                  .ok());
  auto reply = RecvFrame(*conn, 5.0);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  if (!reply.ok()) return reply.status();
  if (reply->type == MsgType::kWalkResult) return Status::Ok();
  EXPECT_EQ(reply->type, MsgType::kError);
  return DecodeErrorStatus(reply->payload);
}

TEST_F(RemoteBackendTest, WorkerAnswersEveryInvalidJobWithAnError) {
  WorkerFleet fleet(path(), 1);
  const NodeId nodes = base()->graph().num_nodes();
  const Status ok = RawJob(fleet, nodes, [](WalkMsg*) {});
  EXPECT_TRUE(ok.ok()) << ok.ToString();

  // One case per check, each naming its cause.
  const auto expect_rejected = [&](const char* cause, void (*mutate)(WalkMsg*),
                                   std::string_view pad = {}) {
    const Status status = RawJob(fleet, nodes, mutate, pad);
    EXPECT_TRUE(status.IsInternal()) << cause << ": " << status.ToString();
    EXPECT_NE(status.message().find(cause), std::string::npos)
        << status.ToString();
  };
  expect_rejected("bytes", [](WalkMsg*) {}, "x");
  expect_rejected("unknown walk program", [](WalkMsg* j) { j->phase = 7; });
  expect_rejected("alpha", [](WalkMsg* j) {
    j->phase = static_cast<uint32_t>(WalkPhase::kPpr);
    j->alpha = 1.0;
  });
  expect_rejected("node2vec", [](WalkMsg* j) {
    j->phase = static_cast<uint32_t>(WalkPhase::kNode2Vec);
    j->return_p = 1.0;
    j->in_out_q = 1.0;
    j->max_trials = 0;
  });
  expect_rejected("dangling", [](WalkMsg* j) { j->dangling = 2; });
  expect_rejected("source", [](WalkMsg* j) { j->source = 1u << 20; });
  expect_rejected("zero steps", [](WalkMsg* j) { j->num_steps = 0; });
  expect_rejected("empty walker range", [](WalkMsg* j) { j->count = 0; });
  expect_rejected("walker range", [](WalkMsg* j) { j->count = 81; });
  expect_rejected("walker range", [](WalkMsg* j) {
    // first + count wraps to 16 in 32 bits.
    j->num_walkers = 0xffffffffu;
    j->first = 0xfffffff0u;
    j->count = 0x20;
  });
  expect_rejected("frame cap", [](WalkMsg* j) {
    // 2^27 walkers x 10 levels: 5 GiB of endpoints.
    j->num_walkers = 1u << 27;
    j->first = 0;
    j->count = 1u << 27;
    j->num_steps = 10;
  });
}

// A worker's reply to one walk job, before it is framed.
struct Reply {
  WalkResultMsg msg;
  std::vector<std::vector<NodeId>> levels;
  std::vector<NodeId> terminals;
};

// A fake worker that handshakes like a real one, then answers every kWalk
// with a CRC-valid kWalkResult a real worker could send — every walker of
// the range stays at the source through all T levels (a level program)
// or retires there (PPR), taking count x T steps — and then `forge` edits
// the reply. Only the coordinator's reply validation stands between the
// forged reply and the merge. Serves connections one after another until
// destroyed.
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
      } else if (frame->type == MsgType::kWalk) {
        WalkMsg job;
        ASSERT_TRUE(DecodeWalk(frame->payload, &job).ok());
        Reply reply;
        reply.msg.first = job.first;
        reply.msg.count = job.count;
        reply.msg.steps = uint64_t{job.count} * job.num_steps;
        const std::vector<NodeId> at_source(job.count, job.source);
        if (static_cast<WalkPhase>(job.phase) == WalkPhase::kPpr) {
          reply.terminals = at_source;
        } else {
          reply.levels.assign(job.num_steps, at_source);
        }
        forge_(num_nodes_, &reply);
        ASSERT_TRUE(SendFrame(conn, MsgType::kWalkResult,
                              EncodeWalkResult(reply.msg, reply.levels,
                                               reply.terminals),
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

// The two answers to one request served through a QueryService.
struct Served {
  std::vector<StatusCode> codes;
  uint64_t cache_hits = 0;
};

// Serves `request` twice through a QueryService over a one-worker fleet
// whose worker forges its replies with `forge`.
Served ServeForged(const std::shared_ptr<const CloudWalker>& base,
                   FakeWorker::Forge forge, const QueryRequest& request) {
  FakeWorker fake(base->graph().num_nodes(), forge);
  RemoteBackendOptions options;
  options.workers = {fake.address()};
  auto remote = CloudWalker::Distribute(base, options);
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  if (!remote.ok()) return {};
  ServeOptions serve;
  serve.query.num_walkers = 120;
  QueryService service(*remote, serve);
  Served served;
  for (int attempt = 0; attempt < 2; ++attempt) {
    served.codes.push_back(service.Execute(request).status.code());
  }
  served.cache_hits = service.Stats().cache_hits;
  return served;
}

// Both answers to a forged reply must be kInternal, and nothing may hit
// the cache: the error was not cached, and it was not retried into a
// different outcome.
void ExpectForgedReplyRejected(const std::shared_ptr<const CloudWalker>& base,
                               FakeWorker::Forge forge,
                               const QueryRequest& request) {
  const Served served = ServeForged(base, forge, request);
  EXPECT_EQ(served.codes, std::vector<StatusCode>(2, StatusCode::kInternal));
  EXPECT_EQ(served.cache_hits, 0u);
}

TEST_F(RemoteBackendTest, FakeWorkerUnforgedRepliesAreAccepted) {
  // The control for every Rejects* case below: the fake's own replies
  // pass validation, so each rejection is its forgery's doing.
  for (const QueryRequest& request :
       {QueryRequest::Pair(3, 40), QueryRequest::SourceTopK(3, 10),
        QueryRequest::PersonalizedPageRank(3, 10),
        QueryRequest::Node2Vec(3, 10)}) {
    EXPECT_EQ(ServeForged(base(), [](NodeId, Reply*) {}, request).codes,
              std::vector<StatusCode>(2, StatusCode::kOk))
        << "kind " << static_cast<int>(request.kind);
  }
}

TEST_F(RemoteBackendTest, RejectsAnotherWalkerRange) {
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { ++r->msg.first; },
      QueryRequest::Pair(3, 40));
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { --r->msg.count; },
      QueryRequest::PersonalizedPageRank(3, 10));
}

TEST_F(RemoteBackendTest, RejectsALevelProgramWithoutTLevels) {
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { r->levels.pop_back(); },
      QueryRequest::SourceTopK(3, 10));
}

TEST_F(RemoteBackendTest, RejectsALevelProgramWithTerminals) {
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { r->terminals.push_back(0); },
      QueryRequest::Node2Vec(3, 10));
}

TEST_F(RemoteBackendTest, RejectsALevelLargerThanTheOneBefore) {
  // Level 2 outgrows level 1...
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { r->levels[1].push_back(0); },
      QueryRequest::Pair(3, 40));
  // ...and level 1 outgrows the range.
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { r->levels[0].push_back(0); },
      QueryRequest::Node2Vec(3, 10));
}

TEST_F(RemoteBackendTest, RejectsAPprReplyWithLevels) {
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { r->levels.push_back({0}); },
      QueryRequest::PersonalizedPageRank(3, 10));
}

TEST_F(RemoteBackendTest, RejectsMoreTerminalsThanWalkers) {
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { r->terminals.push_back(0); },
      QueryRequest::PersonalizedPageRank(3, 10));
}

TEST_F(RemoteBackendTest, RejectsMoreStepsThanCountTimesT) {
  ExpectForgedReplyRejected(
      base(), [](NodeId, Reply* r) { ++r->msg.steps; },
      QueryRequest::SourceTopK(3, 10));
}

TEST_F(RemoteBackendTest, RejectsAnEndpointOutsideTheGraph) {
  ExpectForgedReplyRejected(
      base(), [](NodeId n, Reply* r) { r->levels.back().front() = n; },
      QueryRequest::Pair(3, 40));
}

TEST_F(RemoteBackendTest, RejectsATerminalOutsideTheGraph) {
  ExpectForgedReplyRejected(
      base(), [](NodeId n, Reply* r) { r->terminals.front() = n; },
      QueryRequest::PersonalizedPageRank(3, 10));
}

}  // namespace
}  // namespace cloudwalker
