// The real thing: fork/exec cloudwalker_shard_worker binaries, connect a
// coordinator over loopback TCP, and check the answers match the
// single-node facade bit for bit — including after a worker process is
// SIGKILLed and a replacement rebinds its port (deterministic replay).
//
// The worker binary path is injected by CMake (CLOUDWALKER_WORKER_BIN)
// when the tools are built; sanitizer configurations build with tools
// off, so the suite skips itself when no binary is available.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "net/remote_backend.h"

namespace cloudwalker {
namespace {

std::string WorkerBinary() {
  if (const char* env = std::getenv("CLOUDWALKER_WORKER_BIN")) return env;
#ifdef CLOUDWALKER_WORKER_BIN
  return CLOUDWALKER_WORKER_BIN;
#else
  return "";
#endif
}

// One worker child process. Started with --listen=0 + --port-file; the
// port is read back once the file appears.
class WorkerProcess {
 public:
  WorkerProcess(const std::string& binary, const std::string& snapshot,
                const std::string& port_file, uint16_t port = 0)
      : port_file_(port_file) {
    std::remove(port_file.c_str());
    const std::string listen = "--listen=" + std::to_string(port);
    const std::string snap = "--snapshot=" + snapshot;
    const std::string pfile = "--port-file=" + port_file;
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ == 0) {
      // Die with the test: an orphaned worker would hold ctest's output
      // pipe open after a failed assertion aborts the suite.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      // Quiet the child's stderr so test logs stay readable.
      std::freopen("/dev/null", "w", stderr);
      execl(binary.c_str(), binary.c_str(), snap.c_str(), listen.c_str(),
            pfile.c_str(), static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
  }

  ~WorkerProcess() { Kill(); }

  // Polls for the port file (worker publishes it after binding).
  uint16_t WaitForPort(double timeout_seconds = 10.0) {
    for (int i = 0; i < static_cast<int>(timeout_seconds * 100); ++i) {
      std::ifstream in(port_file_);
      unsigned port = 0;
      if (in >> port && port != 0) return static_cast<uint16_t>(port);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return 0;
  }

  // SIGKILL: no shutdown handshake, no flushed replies — the hard-death
  // case the replay path exists for.
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int wstatus = 0;
    waitpid(pid_, &wstatus, 0);
    pid_ = -1;
  }

  bool alive() const { return pid_ > 0; }

 private:
  std::string port_file_;
  pid_t pid_ = -1;
};

TEST(DistributedProcessTest, KilledWorkerIsReplacedAndAnswersBitIdentically) {
  const std::string binary = WorkerBinary();
  if (binary.empty() || access(binary.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "cloudwalker_shard_worker binary not built "
                    "(tools are off in this configuration)";
  }

  IndexingOptions opts;
  opts.num_walkers = 40;
  auto built = CloudWalker::Build(GenerateRmat(180, 1300, 23), opts);
  ASSERT_TRUE(built.ok());
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/distributed_process.cwk";
  ASSERT_TRUE((*built)->WriteSnapshot(path).ok());
  auto base = CloudWalker::Open(path);
  ASSERT_TRUE(base.ok()) << base.status().message();

  QueryOptions q;
  q.num_walkers = 120;
  const QueryRequest pair = QueryRequest::Pair(4, 80).WithOptions(q);
  const QueryRequest topk = QueryRequest::SourceTopK(4, 10).WithOptions(q);
  const double want_pair = (*base)->Execute(pair).score();
  const TopKResult want_topk = *(*base)->Execute(topk).topk();

  auto w0 = std::make_unique<WorkerProcess>(binary, path, dir + "/p0.port");
  auto w1 = std::make_unique<WorkerProcess>(binary, path, dir + "/p1.port");
  const uint16_t port0 = w0->WaitForPort();
  const uint16_t port1 = w1->WaitForPort();
  ASSERT_NE(port0, 0) << "worker 0 never published a port";
  ASSERT_NE(port1, 0) << "worker 1 never published a port";

  RemoteBackendOptions options;
  options.workers = {{"127.0.0.1", port0}, {"127.0.0.1", port1}};
  options.superstep_timeout_seconds = 10.0;
  options.retry_backoff_seconds = 0.1;
  options.max_attempts = 5;
  auto remote = CloudWalker::Distribute(*base, options);
  ASSERT_TRUE(remote.ok()) << remote.status().message();

  EXPECT_EQ((*remote)->Execute(pair).score(), want_pair);

  // Hard-kill worker 1 and immediately start a replacement on its port.
  w1->Kill();
  w1 = std::make_unique<WorkerProcess>(binary, path, dir + "/p1b.port",
                                       port1);
  ASSERT_EQ(w1->WaitForPort(), port1);

  const QueryResponse got = (*remote)->Execute(topk);
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  const TopKResult& got_topk = *got.topk();
  ASSERT_EQ(got_topk.size(), want_topk.size());
  for (size_t i = 0; i < want_topk.size(); ++i) {
    EXPECT_EQ(got_topk[i].node, want_topk[i].node) << "rank " << i;
    EXPECT_EQ(got_topk[i].score, want_topk[i].score) << "rank " << i;
  }

  // A worker killed with no replacement exhausts the retry budget into
  // kUnavailable (and never a partial answer).
  w0->Kill();
  w1->Kill();
  RemoteBackendOptions fast = options;
  fast.connect_timeout_seconds = 0.5;
  fast.superstep_timeout_seconds = 0.5;
  fast.max_attempts = 2;
  fast.retry_backoff_seconds = 0.01;
  auto dead = CloudWalker::Distribute(*base, fast);
  if (dead.ok()) {
    const QueryResponse response = (*dead)->Execute(pair);
    ASSERT_FALSE(response.ok());
    EXPECT_TRUE(response.status.IsUnavailable())
        << response.status.ToString();
  } else {
    EXPECT_TRUE(dead.status().IsUnavailable()) << dead.status().ToString();
  }
}

}  // namespace
}  // namespace cloudwalker
