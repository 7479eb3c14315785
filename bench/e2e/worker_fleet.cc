#include "worker_fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

namespace cloudwalker::e2e {
namespace {

// waitpid with a deadline; true once `pid` has been reaped into *wstatus.
bool WaitFor(pid_t pid, int* wstatus, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (true) {
    const pid_t r = waitpid(pid, wstatus, WNOHANG);
    if (r == pid || r < 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

StatusOr<std::unique_ptr<WorkerFleet>> WorkerFleet::Start(
    const std::string& binary, const std::string& snapshot,
    const std::string& tmp_dir, const std::string& logs_dir, int count,
    double timeout_seconds) {
  if (access(binary.c_str(), X_OK) != 0) {
    return Status::NotFound("worker binary not executable: " + binary);
  }
  std::error_code ec;
  if (!std::filesystem::create_directories(tmp_dir, ec)) {
    return Status::Internal("cannot create worker directory " + tmp_dir);
  }
  std::unique_ptr<WorkerFleet> fleet(new WorkerFleet(tmp_dir, logs_dir));
  const pid_t parent = getpid();
  std::vector<std::string> port_files;
  for (int i = 0; i < count; ++i) {
    const std::string base = tmp_dir + "/worker" + std::to_string(i);
    port_files.push_back(base + ".port");
    // Everything the child needs is built before fork: between fork and
    // exec only async-signal-safe calls are allowed.
    const std::string log = base + ".log";
    const std::string snap_flag = "--snapshot=" + snapshot;
    const std::string port_flag = "--port-file=" + port_files.back();
    const pid_t pid = fork();
    if (pid < 0) return Status::Internal("fork failed for worker");
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (getppid() != parent) _exit(1);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        close(fd);
      }
      execl(binary.c_str(), binary.c_str(), snap_flag.c_str(), "--listen=0",
            port_flag.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    fleet->pids_.push_back(pid);
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  fleet->addresses_.resize(count);
  for (int i = 0; i < count; ++i) {
    while (true) {
      unsigned port = 0;
      std::ifstream in(port_files[i]);
      if (in >> port && port != 0 && port <= 65535) {
        fleet->addresses_[i] = {"127.0.0.1", static_cast<uint16_t>(port)};
        break;
      }
      int wstatus = 0;
      if (waitpid(fleet->pids_[i], &wstatus, WNOHANG) == fleet->pids_[i]) {
        fleet->pids_[i] = -1;
        return Status::Unavailable("worker " + std::to_string(i) +
                                   " exited before publishing its port");
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::DeadlineExceeded("worker " + std::to_string(i) +
                                        " published no port in time");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return fleet;
}

WorkerFleet::~WorkerFleet() { Stop(/*run_failed=*/true); }

bool WorkerFleet::Stop(bool run_failed) {
  bool clean = true;
  for (const pid_t pid : pids_) {
    if (pid > 0) kill(pid, SIGTERM);
  }
  for (pid_t& pid : pids_) {
    if (pid <= 0) {
      clean = false;  // died during start-up
      continue;
    }
    int wstatus = 0;
    if (!WaitFor(pid, &wstatus, 5.0)) {
      kill(pid, SIGKILL);
      waitpid(pid, &wstatus, 0);
      clean = false;
    } else {
      const bool exited_ok = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
      const bool terminated =
          WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGTERM;
      clean &= exited_ok || terminated;
    }
    pid = -1;
  }
  pids_.clear();
  if (tmp_dir_.empty()) return clean;
  std::error_code ec;
  if (run_failed || !clean) {
    std::filesystem::create_directories(logs_dir_, ec);
    for (const auto& entry :
         std::filesystem::directory_iterator(tmp_dir_, ec)) {
      if (entry.path().extension() == ".log") {
        std::filesystem::copy_file(
            entry.path(), logs_dir_ + "/" + entry.path().filename().string(),
            std::filesystem::copy_options::overwrite_existing, ec);
      }
    }
  }
  std::filesystem::remove_all(tmp_dir_, ec);
  tmp_dir_.clear();
  return clean;
}

}  // namespace cloudwalker::e2e
