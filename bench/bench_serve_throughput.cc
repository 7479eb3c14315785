// Serving-layer load generator: throughput and latency of QueryService
// under a skewed request stream (DESIGN.md section 6).
//
//   Table 1 — QPS vs worker threads on a mixed pair/top-k zipfian stream.
//   Table 2 — cache configuration (off / cold / warm) on a top-k stream:
//             QPS, p95 latency, hit rate, and the warm-vs-off speedup.
//   Table 3 — in-flight dedup on vs off on a hot-spot stream with the
//             cache disabled (kernel runs saved by fan-out).
//   Table 4 — async submission (Submit -> QueryFuture): open-loop arrival
//             through the bounded admission queue, with and without
//             per-request deadlines; reports completed / rejected /
//             deadline-exceeded counts and verifies async answers are
//             bit-identical to the blocking path.
//
// Not a paper artifact: the paper stops at per-query kernels; this bench
// measures the serving layer this repo adds on top of them. Honors
// CW_BENCH_SCALE / CW_BENCH_QUICK like every other bench.

#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "serve/query_service.h"
#include "serve/workload.h"

using namespace cloudwalker;

namespace {

// Serving targets interactive latencies, so the bench uses a lighter R'
// than the paper's accuracy experiments (documented in the output header).
QueryOptions ServeQueryOptions() {
  QueryOptions q = bench::PaperQueryOptions();
  q.num_walkers = 1000;
  return q;
}

std::vector<QueryRequest> MakeWorkload(NodeId num_nodes, uint64_t requests,
                                       double pair_fraction, uint64_t seed) {
  WorkloadSpec spec;
  spec.num_requests = requests;
  spec.pair_fraction = pair_fraction;
  spec.topk = 10;
  spec.skew = WorkloadSkew::kZipf;
  spec.zipf_theta = 0.99;
  spec.seed = seed;
  auto generated = GenerateWorkload(num_nodes, spec);
  CW_CHECK_OK(generated.status());
  return std::move(generated).value();
}

struct RunResult {
  ServeStats stats;
};

RunResult RunOnce(QueryService& service,
                  const std::vector<QueryRequest>& requests) {
  service.ResetStats();
  service.ExecuteBatch(requests);
  return RunResult{service.Stats()};
}

}  // namespace

int main() {
  bool speedup_ok = true;  // the ≥2x warm-cache acceptance gate
  bench::PrintHeader("bench_serve_throughput",
                     "Serving layer: QPS / latency vs threads and cache "
                     "(DESIGN.md section 6; not a paper artifact)");
  bench::JsonReporter report("bench_serve_throughput");
  report.AddContextNumber("hardware_threads",
                          std::thread::hardware_concurrency());
  report.AddContextNumber("bench_threads", 8);  // widest Table 1 pool
  report.AddContext("scale", FormatDouble(bench::BenchScale(), 3));
  ThreadPool build_pool;
  const PaperDatasetInstance ds = MakePaperDataset(
      PaperDataset::kWikiVote, 2015, bench::BenchScale(), &build_pool);
  std::cout << "Dataset: " << ds.name << " stand-in, |V|="
            << HumanCount(ds.graph.num_nodes())
            << " |E|=" << HumanCount(ds.graph.num_edges())
            << "; serving R'=1000 (reduced from the paper's 10000 for "
               "interactive latencies)\n\n";

  auto built = CloudWalker::Build(&ds.graph, bench::PaperIndexingOptions(),
                                  &build_pool);
  if (!built.ok()) {
    std::cout << "indexing failed: " << built.status().ToString() << "\n";
    return 1;
  }
  const auto cw = std::make_shared<const CloudWalker>(std::move(built).value());

  const uint64_t num_requests = std::max<uint64_t>(
      200, static_cast<uint64_t>(4000 * bench::BenchScale()));

  // --- Table 1: QPS vs worker threads (mixed stream, warm cache). --------
  {
    const std::vector<QueryRequest> mixed =
        MakeWorkload(ds.graph.num_nodes(), num_requests,
                     /*pair_fraction=*/0.2, /*seed=*/42);
    TablePrinter t({"threads", "QPS", "p50", "p95", "p99", "hit rate"});
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      ServeOptions options;
      options.query = ServeQueryOptions();
      QueryService service(cw, options, &pool);
      RunOnce(service, mixed);  // cold pass warms the cache
      const ServeStats s = RunOnce(service, mixed).stats;
      t.AddRow({std::to_string(threads), FormatDouble(s.qps, 1),
                HumanSeconds(s.p50_ms / 1e3), HumanSeconds(s.p95_ms / 1e3),
                HumanSeconds(s.p99_ms / 1e3),
                FormatDouble(100.0 * s.CacheHitRate(), 1) + "%"});
    }
    std::cout << "Table 1 — QPS vs threads (zipfian mix, 20% pair / 80% "
                 "top-k, warm cache):\n";
    t.RenderText(std::cout);
    std::cout << "\n";
  }

  // --- Table 2: cache off / cold / warm (top-k stream). ------------------
  {
    const std::vector<QueryRequest> topk_stream =
        MakeWorkload(ds.graph.num_nodes(), num_requests,
                     /*pair_fraction=*/0.0, /*seed=*/43);
    ThreadPool pool;

    ServeOptions off;
    off.query = ServeQueryOptions();
    off.cache_capacity = 0;
    QueryService service_off(cw, off, &pool);
    const ServeStats no_cache = RunOnce(service_off, topk_stream).stats;

    ServeOptions on;
    on.query = ServeQueryOptions();
    QueryService service_on(cw, on, &pool);
    const ServeStats cold = RunOnce(service_on, topk_stream).stats;
    const ServeStats warm = RunOnce(service_on, topk_stream).stats;

    TablePrinter t({"cache", "QPS", "p95", "hit rate", "kernel runs",
                    "speedup vs off"});
    auto add = [&](const std::string& name, const ServeStats& s) {
      t.AddRow({name, FormatDouble(s.qps, 1), HumanSeconds(s.p95_ms / 1e3),
                FormatDouble(100.0 * s.CacheHitRate(), 1) + "%",
                HumanCount(s.computed),
                FormatDouble(s.qps / no_cache.qps, 2) + "x"});
    };
    add("off", no_cache);
    add("cold (first pass)", cold);
    add("warm (replay)", warm);
    std::cout << "Table 2 — result cache on a zipfian top-k stream ("
              << num_requests << " requests, capacity "
              << on.cache_capacity << "):\n";
    t.RenderText(std::cout);
    const double speedup = warm.qps / no_cache.qps;
    speedup_ok = speedup >= 2.0;
    std::cout << "warm-cache speedup vs cache-off: "
              << FormatDouble(speedup, 2) << "x (target >= 2x) — "
              << (speedup_ok ? "PASS" : "FAIL") << "\n\n";
    report.AddMetric({"serve_qps_cache_off", no_cache.qps, "qps", true,
                      false, -1.0});
    report.AddMetric({"serve_qps_cache_warm", warm.qps, "qps", true, false,
                      -1.0});
    report.AddMetric({"serve_warm_hit_rate", warm.CacheHitRate(), "ratio",
                      true, /*gate=*/true, -1.0});
    // The warm/off ratio spans orders of magnitude across hosts (it divides
    // a cache hit by a kernel run), so it carries the absolute >= 2x floor
    // but is not baseline-gated.
    report.AddMetric({"serve_warm_speedup_vs_off", speedup, "x", true,
                      /*gate=*/false, /*min=*/2.0});
  }

  // --- Table 3: in-flight dedup (hot-spot stream, cache off). ------------
  {
    // Every request asks for the same source: the worst case a cache would
    // absorb, and exactly what dedup handles when the cache is cold or
    // disabled. Four threads regardless of hardware so requests overlap.
    std::vector<QueryRequest> hot(num_requests,
                                  QueryRequest::SourceTopK(0, 10));
    ThreadPool pool(4);
    TablePrinter t({"dedup", "QPS", "kernel runs", "fanned out"});
    for (const bool dedup : {false, true}) {
      ServeOptions options;
      options.query = ServeQueryOptions();
      options.cache_capacity = 0;
      options.dedup_in_flight = dedup;
      QueryService service(cw, options, &pool);
      const ServeStats s = RunOnce(service, hot).stats;
      t.AddRow({dedup ? "on" : "off", FormatDouble(s.qps, 1),
                HumanCount(s.computed), HumanCount(s.dedup_shared)});
      if (dedup) {
        report.AddMetric({"serve_dedup_shared_fraction",
                          static_cast<double>(s.dedup_shared) /
                              static_cast<double>(num_requests),
                          "ratio", true, false, -1.0});
      }
    }
    std::cout << "Table 3 — micro-batch dedup on a single-source hot spot "
                 "(cache disabled):\n";
    t.RenderText(std::cout);
  }
  // --- Table 4: async submission through the bounded queue. --------------
  bool async_ok = true;
  {
    const std::vector<QueryRequest> mixed =
        MakeWorkload(ds.graph.num_nodes(), num_requests,
                     /*pair_fraction=*/0.2, /*seed=*/44);
    ThreadPool pool(4);
    TablePrinter t({"mode", "submit QPS", "completed", "rejected",
                    "deadline", "p95"});

    // 4a: open loop, queue deep enough for the whole burst, no deadlines —
    // every request must complete OK and answer exactly like the blocking
    // path. This is the gated sanity row.
    double completed_fraction = 0.0;
    {
      ServeOptions options;
      options.query = ServeQueryOptions();
      options.max_queue_depth = 0;  // unbounded
      QueryService service(cw, options, &pool);
      std::vector<QueryFuture> futures;
      futures.reserve(mixed.size());
      WallTimer submit_timer;
      for (const QueryRequest& r : mixed) futures.push_back(service.Submit(r));
      const double submit_seconds = submit_timer.Seconds();
      const std::vector<QueryResponse> responses = WhenAll(futures);
      const ServeStats s = service.Stats();
      uint64_t ok_count = 0;
      for (const QueryResponse& r : responses) ok_count += r.ok() ? 1 : 0;
      completed_fraction =
          static_cast<double>(ok_count) / static_cast<double>(mixed.size());
      // Bit-identity spot check vs the blocking facade.
      for (size_t i = 0; i < mixed.size(); i += 97) {
        const QueryRequest& req = mixed[i];
        if (req.kind != QueryKind::kSourceTopK) continue;
        const QueryRequest probe = QueryRequest::SourceTopK(req.a, req.k);
        const QueryResponse direct =
            cw->Execute(probe.WithOptions(service.options().query));
        if (!direct.ok() || !responses[i].ok() ||
            *responses[i].topk() != *direct.topk()) {
          async_ok = false;
        }
      }
      t.AddRow({"open loop (no limits)",
                FormatDouble(static_cast<double>(mixed.size()) /
                                 submit_seconds, 1),
                HumanCount(ok_count), HumanCount(s.rejected),
                HumanCount(s.deadline_exceeded),
                HumanSeconds(s.p95_ms / 1e3)});
      report.AddMetric({"serve_async_qps", s.qps, "qps", true, false, -1.0});
      report.AddMetric({"serve_async_completed_fraction", completed_fraction,
                        "ratio", true, /*gate=*/true, /*min=*/1.0});
    }

    // 4b: overload — a shallow queue plus tight deadlines. Rejections and
    // deadline misses are the *designed* behaviour here (host-dependent
    // counts, reported as ungated context).
    {
      ServeOptions options;
      options.query = ServeQueryOptions();
      options.cache_capacity = 0;  // every request pays a kernel
      options.max_queue_depth = 32;
      QueryService service(cw, options, &pool);
      std::vector<QueryFuture> futures;
      futures.reserve(mixed.size());
      for (const QueryRequest& r : mixed) {
        futures.push_back(service.Submit(r.WithTimeout(/*sec=*/0.002)));
      }
      const std::vector<QueryResponse> responses = WhenAll(futures);
      const ServeStats s = service.Stats();
      uint64_t ok_count = 0;
      for (const QueryResponse& r : responses) ok_count += r.ok() ? 1 : 0;
      t.AddRow({"overload (queue 32, 2ms deadline)", "-",
                HumanCount(ok_count), HumanCount(s.rejected),
                HumanCount(s.deadline_exceeded),
                HumanSeconds(s.p95_ms / 1e3)});
      report.AddMetric({"serve_async_rejected_fraction",
                        static_cast<double>(s.rejected) /
                            static_cast<double>(mixed.size()),
                        "ratio", false, false, -1.0});
      report.AddMetric({"serve_async_deadline_fraction",
                        static_cast<double>(s.deadline_exceeded) /
                            static_cast<double>(mixed.size()),
                        "ratio", false, false, -1.0});
    }
    std::cout << "Table 4 — async Submit through bounded admission ("
              << num_requests << " requests, 4 workers):\n";
    t.RenderText(std::cout);
    std::cout << "async answers bit-identical to blocking path, "
              << FormatDouble(100.0 * completed_fraction, 1)
              << "% completed under no limits — "
              << (async_ok && completed_fraction == 1.0 ? "PASS" : "FAIL")
              << "\n";
  }
  if (!report.WriteIfRequested()) return 1;
  // CI enforces the warm-cache win and the async sanity row.
  return (speedup_ok && async_ok) ? 0 : 1;
}
