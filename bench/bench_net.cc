// Distributed walk bench: the socket-connected RemoteWalkBackend against
// the single-node kernel and the in-process sharded engine, all over one
// snapshot (DESIGN.md section 13; not a paper artifact).
//
// Three in-process ShardWorkers serve a temp snapshot on loopback ports;
// the coordinator runs the SimRank + PPR workload through real
// cloudwalker-net-v2 frames, one kWalk job per worker per walk. Gated
// metrics:
//
//   net_exchange_walkers_per_second — walkers assigned in kWalk frames
//       per second of workload wall time (floor 20k: catches an exchange
//       that starts paying per walker instead of per job)
//   net_distributed_efficiency — remote steps/s over single-node steps/s
//       (floor 0.2: the workers walk their ranges in parallel, one round
//       trip per walk; the floor catches a return to per-level exchange,
//       the baseline tolerance catches drift)
//   net_bit_identical — all three backends byte-equal (must be 1)
//
//   CW_BENCH_QUICK=1 ./bench_net               # small sizes, CI
//   CW_BENCH_JSON=BENCH_NET.json ./bench_net   # refresh baseline

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/cloudwalker.h"
#include "engine/walk.h"
#include "engine/walk_backend.h"
#include "graph/generators.h"
#include "net/remote_backend.h"
#include "net/shard_worker.h"
#include "shard/sharded_engine.h"

using namespace cloudwalker;

namespace {

struct BackendRun {
  double seconds = 0.0;
  uint64_t steps = 0;

  double StepsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
  }
};

BackendRun RunWorkload(const WalkBackend& backend, const Graph& graph,
                       uint32_t sources, const WalkConfig& config) {
  BackendRun run;
  WallTimer timer;
  for (uint32_t s = 0; s < sources; ++s) {
    const NodeId source = (s * 97u + 13u) % graph.num_nodes();
    WalkStats stats;
    (void)backend.SimRankLevels(source, config, &stats);
    run.steps += stats.steps;
    stats = WalkStats();
    (void)backend.PprEndpoints(source, config, PprParams{}, &stats);
    run.steps += stats.steps;
  }
  run.seconds = timer.Seconds();
  return run;
}

// Exact byte-equality of all three walk phases across two backends.
bool BitIdentical(const WalkBackend& a, const WalkBackend& b,
                  const Graph& graph, const WalkConfig& config) {
  for (const NodeId source :
       {NodeId{0}, NodeId{graph.num_nodes() / 2}, graph.num_nodes() - 1}) {
    const WalkDistributions da = a.SimRankLevels(source, config, nullptr);
    const WalkDistributions db = b.SimRankLevels(source, config, nullptr);
    if (da.num_levels() != db.num_levels()) return false;
    for (size_t t = 0; t < da.num_levels(); ++t) {
      if (da.levels[t].entries() != db.levels[t].entries()) return false;
    }
    const SparseVector pa =
        a.PprEndpoints(source, config, PprParams{}, nullptr);
    const SparseVector pb =
        b.PprEndpoints(source, config, PprParams{}, nullptr);
    if (pa.entries() != pb.entries()) return false;
    const Node2VecParams n2v{/*return_p=*/0.5, /*in_out_q=*/2.0};
    const WalkDistributions na =
        a.Node2VecLevels(source, config, n2v, nullptr);
    const WalkDistributions nb =
        b.Node2VecLevels(source, config, n2v, nullptr);
    if (na.num_levels() != nb.num_levels()) return false;
    for (size_t t = 0; t < na.num_levels(); ++t) {
      if (na.levels[t].entries() != nb.levels[t].entries()) return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::PrintHeader("bench_net",
                     "socket-connected shard workers vs single-node and "
                     "in-process sharded backends: exchange throughput "
                     "and bit-identity (DESIGN.md section 13; not a "
                     "paper artifact)");
  bench::JsonReporter report("bench_net");
  const double scale = bench::BenchScale();
  const bool quick = scale <= 0.05;
  report.AddContext("scale", FormatDouble(scale, 3));

  const NodeId nodes = quick ? 20'000 : 100'000;
  constexpr int kWorkers = 3;

  // The workers and the coordinator must agree on one snapshot artifact.
  IndexingOptions index_options;
  index_options.num_walkers = 20;
  auto built =
      CloudWalker::Build(GenerateRmat(nodes, 8ull * nodes, /*seed=*/11),
                         index_options);
  CW_CHECK_OK(built.status());
  const std::string path = "bench_net_snapshot.cwk";
  CW_CHECK_OK((*built)->WriteSnapshot(path));
  auto opened = CloudWalker::Open(path);
  CW_CHECK_OK(opened.status());
  const Graph& graph = (*opened)->graph();

  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::thread> threads;
  RemoteBackendOptions remote_options;
  for (int i = 0; i < kWorkers; ++i) {
    ShardWorkerOptions worker_options;
    worker_options.snapshot_path = path;
    auto worker = ShardWorker::Create(worker_options);
    CW_CHECK_OK(worker.status());
    workers.push_back(std::move(*worker));
    remote_options.workers.push_back({"127.0.0.1", workers.back()->port()});
    threads.emplace_back([w = workers.back().get()] { (void)w->Serve(); });
  }
  auto remote = RemoteWalkBackend::Connect(
      graph, workers.front()->fingerprint(), remote_options);
  CW_CHECK_OK(remote.status());

  const WalkContext ctx(graph);
  const LocalWalkBackend local(graph, &ctx);
  ShardingOptions sharding;
  sharding.num_shards = kWorkers;
  auto sharded = ShardedWalkEngine::Build(graph, &ctx, sharding);
  CW_CHECK_OK(sharded.status());

  const uint32_t sources = quick ? 8 : 24;
  WalkConfig config;
  config.num_walkers = quick ? 1'000 : 4'000;
  config.seed = 97;

  // Warm connections and caches once, then measure.
  (void)RunWorkload(**remote, graph, /*sources=*/2, config);
  const BackendRun single = RunWorkload(local, graph, sources, config);
  const BackendRun in_process = RunWorkload(**sharded, graph, sources,
                                            config);
  const RemoteExchangeStats before = (*remote)->exchange_stats();
  const BackendRun distributed = RunWorkload(**remote, graph, sources,
                                             config);
  const RemoteExchangeStats after = (*remote)->exchange_stats();

  const double shipped =
      static_cast<double>(after.walkers_shipped - before.walkers_shipped);
  const double walkers_per_second =
      distributed.seconds > 0.0 ? shipped / distributed.seconds : 0.0;
  const double efficiency =
      single.StepsPerSecond() > 0.0
          ? distributed.StepsPerSecond() / single.StepsPerSecond()
          : 0.0;
  const bool identical = BitIdentical(local, **remote, graph, config) &&
                         BitIdentical(**sharded, **remote, graph, config);
  CW_CHECK_OK((*remote)->TakeError());

  TablePrinter t({"backend", "walk steps", "time", "steps/s"});
  const auto row = [&](const std::string& name, const BackendRun& r) {
    t.AddRow({name, HumanCount(r.steps), HumanSeconds(r.seconds),
              HumanCount(static_cast<uint64_t>(r.StepsPerSecond()))});
  };
  row("single-node", single);
  row("3 shards (in-process)", in_process);
  row("3 workers (sockets)", distributed);
  std::cout << "walk-phase throughput (|V|=" << HumanCount(nodes)
            << ", R'=" << config.num_walkers << ", " << sources
            << " sources, SimRank + PPR):\n";
  t.RenderText(std::cout);
  std::cout << "exchange throughput: "
            << HumanCount(static_cast<uint64_t>(walkers_per_second))
            << " walkers/s over "
            << HumanCount(after.supersteps - before.supersteps)
            << " walk jobs (floor 20K)\n"
            << "distributed efficiency vs single-node: "
            << FormatDouble(efficiency, 3) << " (floor 0.2)\n"
            << "bit-identical across backends: "
            << (identical ? "PASS" : "FAIL") << "\n";

  report.AddContextNumber("workers", kWorkers);
  report.AddContextNumber("hardware_threads",
                          std::thread::hardware_concurrency());
  report.AddMetric({"net_single_node_steps_per_second",
                    single.StepsPerSecond(), "steps/s", true, false, -1.0});
  report.AddMetric({"net_in_process_steps_per_second",
                    in_process.StepsPerSecond(), "steps/s", true, false,
                    -1.0});
  report.AddMetric({"net_distributed_steps_per_second",
                    distributed.StepsPerSecond(), "steps/s", true, false,
                    -1.0});
  // Loopback round-trip latency varies across hosts, so both gates carry
  // a loose per-metric tolerance; the absolute floors are the real check.
  report.AddMetric({"net_exchange_walkers_per_second", walkers_per_second,
                    "walkers/s", true, /*gate=*/true, /*min=*/20'000.0,
                    /*max_regression=*/0.6});
  report.AddMetric({"net_distributed_efficiency", efficiency, "ratio",
                    true, /*gate=*/true, /*min=*/0.2,
                    /*max_regression=*/0.7});
  report.AddMetric({"net_bit_identical", identical ? 1.0 : 0.0, "bool",
                    true, /*gate=*/true, /*min=*/1.0});

  for (auto& worker : workers) worker->Stop();
  for (auto& thread : threads) thread.join();
  std::remove(path.c_str());

  const bool ok = report.FloorsPass();
  if (!report.WriteIfRequested()) return 1;
  std::cout << (ok ? "bench_net: PASS\n"
                   : "bench_net: FAIL (gated floor violated)\n");
  return ok ? 0 : 1;
}
