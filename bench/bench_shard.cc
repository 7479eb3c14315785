// Shard engine bench: walk-phase throughput of the in-process sharded BSP
// engine vs the single-node kernel, plus the bit-identity contract
// (DESIGN.md section 11).
//
// Three backends run the same SimRank + PPR walk workload over one graph:
// the single-node batched kernel, a 1-shard engine (pure superstep /
// exchange machinery overhead — no partitioning effects), and a 4-shard
// engine (adds outbox exchange and slice-local rows). The gated metrics
// are machine-portable ratios:
//
//   shard_overhead_efficiency_1  = shard1 / single        (floor 0.25)
//   shard_parallel_efficiency_4  = shard4 /
//                                  (min(4, hw threads) * single)
//                                                         (floor 0.2)
//   shard_bit_identical          = all three backends byte-equal (1.0)
//
// The efficiency-4 denominator scales by the hardware threads actually
// available so the gate means the same thing on a 1-core CI box (where
// 4 shards time-slice one core and the metric reduces to overhead) and on
// a many-core host (where it measures real superstep parallelism).
//
//   CW_BENCH_QUICK=1 ./bench_shard              # small sizes, CI
//   CW_BENCH_JSON=BENCH_SHARD.json ./bench_shard  # refresh baseline


#include <algorithm>
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
#include "engine/walk.h"
#include "engine/walk_backend.h"
#include "graph/generators.h"
#include "shard/sharded_engine.h"

using namespace cloudwalker;

namespace {

struct BackendRun {
  double seconds = 0.0;
  uint64_t steps = 0;
  uint64_t crossings = 0;

  double StepsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
  }
};

// One pass of the workload: SimRank levels + PPR endpoints from `sources`
// fixed sources. Returns wall time and the kernel's own step count, so
// the throughput numerator is walk steps actually taken, not requests.
BackendRun RunWorkload(const WalkBackend& backend, const Graph& graph,
                       uint32_t sources, const WalkConfig& config) {
  BackendRun run;
  WallTimer timer;
  for (uint32_t s = 0; s < sources; ++s) {
    const NodeId source = (s * 97u + 13u) % graph.num_nodes();
    WalkStats stats;
    (void)backend.SimRankLevels(source, config, &stats);
    run.steps += stats.steps;
    run.crossings += stats.partition_crossings;
    stats = WalkStats();
    (void)backend.PprEndpoints(source, config, PprParams{}, &stats);
    run.steps += stats.steps;
    run.crossings += stats.partition_crossings;
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
  bench::PrintHeader("bench_shard",
                     "in-process sharded BSP engine vs single-node walk "
                     "kernel: throughput ratios and bit-identity "
                     "(DESIGN.md section 11; not a paper artifact)");
  bench::JsonReporter report("bench_shard");
  const double scale = bench::BenchScale();
  const bool quick = scale <= 0.05;
  report.AddContext("scale", FormatDouble(scale, 3));

  const NodeId nodes = quick ? 20'000 : 100'000;
  const Graph graph = GenerateRmat(nodes, 8ull * nodes, /*seed=*/11);
  const WalkContext ctx(graph);
  const LocalWalkBackend local(graph, &ctx);

  const uint32_t sources = quick ? 24 : 64;
  WalkConfig config;
  config.num_walkers = quick ? 1'000 : 4'000;
  config.seed = 97;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  auto make_engine = [&](int shards, int threads) {
    ShardingOptions options;
    options.num_shards = shards;
    options.num_threads = threads;
    auto built = ShardedWalkEngine::Build(graph, &ctx, options);
    CW_CHECK_OK(built.status());
    return std::move(built).value();
  };
  const auto shard1 = make_engine(1, /*threads=*/0);
  // The 4-shard engine fans its supersteps over a pool when the host has
  // cores to use; on a 1-core box it stays serial and the parallel
  // efficiency metric degenerates to a second overhead measurement.
  const auto shard4 = make_engine(
      4, hw > 1 ? static_cast<int>(std::min(4u, hw)) : 0);

  // Warm the page cache / branch predictors once, then measure.
  (void)RunWorkload(local, graph, /*sources=*/4, config);
  const BackendRun single = RunWorkload(local, graph, sources, config);
  const BackendRun run1 = RunWorkload(*shard1, graph, sources, config);
  const BackendRun run4 = RunWorkload(*shard4, graph, sources, config);

  const double eff1 = run1.StepsPerSecond() / single.StepsPerSecond();
  const double eff4 = run4.StepsPerSecond() /
                      (std::min(4u, hw) * single.StepsPerSecond());
  const bool identical = BitIdentical(local, *shard1, graph, config) &&
                         BitIdentical(local, *shard4, graph, config);
  const double crossing_fraction =
      run4.steps > 0
          ? static_cast<double>(run4.crossings) / run4.steps
          : 0.0;

  TablePrinter t({"backend", "walk steps", "time", "steps/s", "crossings"});
  const auto row = [&](const std::string& name, const BackendRun& r) {
    t.AddRow({name, HumanCount(r.steps), HumanSeconds(r.seconds),
              HumanCount(static_cast<uint64_t>(r.StepsPerSecond())),
              HumanCount(r.crossings)});
  };
  row("single-node", single);
  row("1 shard", run1);
  row("4 shards", run4);
  std::cout << "walk-phase throughput (|V|=" << HumanCount(nodes)
            << ", R'=" << config.num_walkers << ", " << sources
            << " sources, SimRank + PPR):\n";
  t.RenderText(std::cout);
  std::cout << "shard overhead efficiency (1 shard): "
            << FormatDouble(eff1, 3) << " (floor 0.25)\n"
            << "parallel efficiency (4 shards / min(4, " << hw
            << ") cores): " << FormatDouble(eff4, 3) << " (floor 0.2)\n"
            << "bit-identical across backends: "
            << (identical ? "PASS" : "FAIL") << "\n";

  report.AddContextNumber("hardware_threads",
                          std::thread::hardware_concurrency());
  report.AddContextNumber("bench_threads", hw > 1 ? std::min(4u, hw) : 1);
  report.AddMetric({"shard_single_node_steps_per_second",
                    single.StepsPerSecond(), "steps/s", true, false, -1.0});
  report.AddMetric({"shard_1_steps_per_second", run1.StepsPerSecond(),
                    "steps/s", true, false, -1.0});
  report.AddMetric({"shard_4_steps_per_second", run4.StepsPerSecond(),
                    "steps/s", true, false, -1.0});
  report.AddMetric({"shard_crossing_fraction_4", crossing_fraction, "frac",
                    /*higher_is_better=*/false, false, -1.0});
  report.AddMetric({"shard_overhead_efficiency_1", eff1, "ratio", true,
                    /*gate=*/true, /*min=*/0.25});
  // The parallel-efficiency value depends on the host's core count (the
  // denominator scales by min(4, hw)), so the baseline carries a loose
  // per-metric tolerance; the absolute 0.2 floor is the real gate.
  report.AddMetric({"shard_parallel_efficiency_4", eff4, "ratio", true,
                    /*gate=*/true, /*min=*/0.2, /*max_regression=*/0.6});
  report.AddMetric({"shard_bit_identical", identical ? 1.0 : 0.0, "bool",
                    true, /*gate=*/true, /*min=*/1.0});

  const bool ok = report.FloorsPass();
  if (!report.WriteIfRequested()) return 1;
  std::cout << (ok ? "bench_shard: PASS\n"
                   : "bench_shard: FAIL (gated floor violated)\n");
  return ok ? 0 : 1;
}
