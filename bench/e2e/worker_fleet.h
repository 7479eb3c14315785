// WorkerFleet — cloudwalker_shard_worker child processes for the
// net_workers workload of bench_e2e.
//
// Each worker is fork/exec'd with --listen=0 and a --port-file inside a
// temporary directory, its stdout/stderr go to a log file there, and the
// port is read back once the file appears. Stop() sends SIGTERM, waits for
// each child, and removes the temporary directory, copying the worker logs
// out first when the run failed. The destructor stops a fleet that was
// not stopped, and keeps its logs: it only runs on a failure path. Children
// also get PR_SET_PDEATHSIG, so a bench process killed outright does not
// leak them.

#ifndef CLOUDWALKER_BENCH_E2E_WORKER_FLEET_H_
#define CLOUDWALKER_BENCH_E2E_WORKER_FLEET_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/remote_backend.h"

namespace cloudwalker::e2e {

class WorkerFleet {
 public:
  /// Starts `count` workers serving `snapshot`, with their port files and
  /// logs under `tmp_dir` (created; must not exist yet), and waits up to
  /// `timeout_seconds` for every port. Kept logs go to `logs_dir`.
  static StatusOr<std::unique_ptr<WorkerFleet>> Start(
      const std::string& binary, const std::string& snapshot,
      const std::string& tmp_dir, const std::string& logs_dir, int count,
      double timeout_seconds);

  ~WorkerFleet();
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  const std::vector<RemoteWorkerAddress>& addresses() const {
    return addresses_;
  }

  /// SIGTERM every live worker (SIGKILL after a grace period), waitpid each,
  /// then remove the temporary directory. The logs are copied to logs_dir
  /// first when `run_failed` or a worker had exited on its own. Returns
  /// false in that last case. Idempotent.
  bool Stop(bool run_failed);

 private:
  WorkerFleet(std::string tmp_dir, std::string logs_dir)
      : tmp_dir_(std::move(tmp_dir)), logs_dir_(std::move(logs_dir)) {}

  std::string tmp_dir_;
  std::string logs_dir_;
  std::vector<pid_t> pids_;
  std::vector<RemoteWorkerAddress> addresses_;
};

}  // namespace cloudwalker::e2e

#endif  // CLOUDWALKER_BENCH_E2E_WORKER_FLEET_H_
