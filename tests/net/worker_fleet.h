// Test-only harness: N in-process ShardWorkers, each serving the same
// snapshot on an ephemeral loopback port from its own thread. Gives the
// net/ suites a real multi-worker cluster (real sockets, real frames)
// without fork/exec — the separate-process path is covered by
// tests/net/distributed_process_test.cc.

#ifndef CLOUDWALKER_TESTS_NET_WORKER_FLEET_H_
#define CLOUDWALKER_TESTS_NET_WORKER_FLEET_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/remote_backend.h"
#include "net/shard_worker.h"

namespace cloudwalker {

class WorkerFleet {
 public:
  // Starts `count` workers over the snapshot at `path`. `fail_after` > 0
  // arms worker 0's fail-once fault injection at that frame count.
  WorkerFleet(const std::string& path, int count, int64_t fail_after = -1) {
    for (int i = 0; i < count; ++i) {
      ShardWorkerOptions options;
      options.snapshot_path = path;
      options.port = 0;
      if (i == 0) options.fail_once_after_frames = fail_after;
      auto worker = ShardWorker::Create(options);
      EXPECT_TRUE(worker.ok()) << worker.status().ToString();
      if (!worker.ok()) return;
      workers_.push_back(std::move(*worker));
      threads_.emplace_back([w = workers_.back().get()] {
        const Status served = w->Serve();
        EXPECT_TRUE(served.ok()) << served.ToString();
      });
    }
  }

  ~WorkerFleet() { StopAll(); }

  void StopAll() {
    for (auto& worker : workers_) worker->Stop();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }

  // Stops and joins one worker (its port stays reserved by no one, so a
  // Restart can rebind it).
  void Stop(size_t i) {
    workers_[i]->Stop();
    if (threads_[i].joinable()) threads_[i].join();
  }

  // Restarts worker `i` on its previous port (SO_REUSEADDR makes the
  // rebind immediate) — the worker-death / recovery scenario. The old
  // worker must be destroyed first so its listener fd is released.
  void Restart(size_t i, const std::string& path) {
    ShardWorkerOptions options;
    options.snapshot_path = path;
    options.port = workers_[i]->port();
    if (threads_[i].joinable()) {
      workers_[i]->Stop();
      threads_[i].join();
    }
    workers_[i].reset();
    auto worker = ShardWorker::Create(options);
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    workers_[i] = std::move(*worker);
    threads_[i] = std::thread([w = workers_[i].get()] {
      const Status served = w->Serve();
      EXPECT_TRUE(served.ok()) << served.ToString();
    });
  }

  std::vector<RemoteWorkerAddress> Addresses() const {
    std::vector<RemoteWorkerAddress> out;
    for (const auto& worker : workers_) {
      out.push_back({"127.0.0.1", worker->port()});
    }
    return out;
  }

  uint64_t fingerprint() const { return workers_.front()->fingerprint(); }
  uint16_t port(size_t i) const { return workers_[i]->port(); }
  uint64_t frames_served(size_t i) const {
    return workers_[i]->frames_served();
  }
  size_t size() const { return workers_.size(); }
  ShardWorker& worker(size_t i) { return *workers_[i]; }

 private:
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  std::vector<std::thread> threads_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_TESTS_NET_WORKER_FLEET_H_
