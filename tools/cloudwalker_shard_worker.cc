// cloudwalker_shard_worker — one cloudwalker-net-v2 walk worker process
// (DESIGN.md section 13).
//
//   cloudwalker_shard_worker --snapshot=web.cwk [--listen=7001]
//       [--port-file=PATH] [--verbose]
//
// The worker mmaps the snapshot's in-CSR (partition-aware open; the
// out-CSR and diagonal are never touched), listens for a coordinator,
// and runs each walk job it receives — a contiguous range of one walk's
// walker ids — to the end in one kWalk / kWalkResult round trip. Every
// worker holds the whole in-CSR, so the same binary with the same flags
// serves any range of any walk over that snapshot.
//
// --listen=0 (the default) binds an ephemeral port; --port-file=PATH
// atomically publishes the bound port (write temp, rename) so scripts and
// tests can start workers without picking ports. SIGINT/SIGTERM stop the
// serve loop cleanly.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "common/version.h"
#include "net/shard_worker.h"
#include "net/wire.h"

using namespace cloudwalker;

namespace {

ShardWorker* g_worker = nullptr;

void HandleSignal(int /*sig*/) {
  if (g_worker != nullptr) g_worker->Stop();
}

// Minimal --key=value parser; bare "--flag" stores "true".
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg] = "true";
    } else {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

// Publishes the bound port atomically: readers either see nothing or a
// complete "PORT\n" — never a partial write.
bool WritePortFile(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void Usage() {
  std::cout <<
      "cloudwalker_shard_worker --snapshot=PATH [--listen=PORT]\n"
      "    [--port-file=PATH] [--verbose]\n"
      "\n"
      "Serves one cloudwalker-net-v2 walk worker over a snapshot\n"
      "artifact. --listen=0 (default) binds an ephemeral port;\n"
      "--port-file=PATH atomically publishes the bound port.\n"
      "--version prints build info and the wire-protocol version.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = ParseFlags(argc, argv);
  if (flags.count("help") != 0 || flags.count("h") != 0) {
    Usage();
    return 0;
  }
  if (flags.count("version") != 0) {
    std::cout << BuildInfoString("cloudwalker_shard_worker") << "\n"
              << "wire protocol: " << kNetProtocolName << " (v"
              << kNetProtocolVersion << ")\n";
    return 0;
  }

  ShardWorkerOptions options;
  const auto snapshot = flags.find("snapshot");
  if (snapshot == flags.end() || snapshot->second.empty()) {
    Usage();
    return Fail("--snapshot=PATH is required");
  }
  options.snapshot_path = snapshot->second;
  const auto listen = flags.find("listen");
  if (listen != flags.end()) {
    const unsigned long port = std::strtoul(listen->second.c_str(),  // NOLINT
                                            nullptr, 10);
    if (port > 65535) return Fail("--listen port out of range");
    options.port = static_cast<uint16_t>(port);
  }
  const auto fail_once = flags.find("fail-once-after-frames");
  if (fail_once != flags.end()) {
    options.fail_once_after_frames =
        std::strtoll(fail_once->second.c_str(), nullptr, 10);
  }
  options.verbose = flags.count("verbose") != 0;

  auto worker = ShardWorker::Create(options);
  if (!worker.ok()) return Fail(worker.status().ToString());

  const auto port_file = flags.find("port-file");
  if (port_file != flags.end() &&
      !WritePortFile(port_file->second, (*worker)->port())) {
    return Fail("cannot write --port-file=" + port_file->second);
  }
  std::cerr << "cloudwalker_shard_worker listening on port "
            << (*worker)->port() << " (snapshot fingerprint "
            << (*worker)->fingerprint() << ", " << (*worker)->num_nodes()
            << " nodes)\n";

  g_worker = worker->get();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  const Status served = (*worker)->Serve();
  g_worker = nullptr;
  if (!served.ok()) return Fail(served.ToString());
  return 0;
}
