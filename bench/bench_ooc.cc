// Out-of-core walk engine bench (DESIGN.md section 14; not a paper
// artifact — the paper assumes cluster RAM, this measures the tier below).
//
// Three claims, CI-gated via BENCH_OOC.json / tools/check_bench.py:
//   1. Bit identity: with the block cache budget capped at 50% of the
//      paged (in-targets) bytes, all six QueryKinds answer
//      exactly as the in-memory engine (ooc_bit_identical == 1.0).
//   2. Throughput: the paged engine holds a walkers/sec floor at that
//      budget, and the cache counters prove it genuinely paged (misses
//      and evictions > 0, residency never above budget).
//   3. Locality reorder: a degree/BFS renumbered snapshot is at least as
//      fast in memory as the original numbering (ooc_reorder_speedup
//      >= 1.0x, target > 1.1x).
//
// With CW_BENCH_OOC_RLIMIT=1 (the CI perf-smoke setting, Linux only) the
// bench additionally frees every in-memory engine, clamps RLIMIT_AS to
// current VmSize + (budget + 4 MiB) — headroom smaller than the paged
// bytes, so a whole-file mapping could not be admitted — and proves the
// out-of-core engine still serves (ooc_runs_under_rlimit, optional gate).
//
//   CW_BENCH_QUICK=1 ./bench_ooc                 # small sizes, CI
//   CW_BENCH_JSON=BENCH_OOC.json ./bench_ooc     # refresh the baseline

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#ifdef __linux__
#include <sys/resource.h>
#endif

#include "bench_common.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/cloudwalker.h"
#include "ooc/ooc_backend.h"
#include "ooc/paged_snapshot.h"
#include "ooc/reorder.h"
#include "snapshot/snapshot.h"

using namespace cloudwalker;

namespace {

// Five of the six QueryKinds, probe-sized, compared bit for bit on
// the headline artifact. kAllPairsTopK is covered separately on a small
// artifact — through the paged backend it re-pages the file once per
// source, so running it across the headline graph measures disk bandwidth,
// not identity.
bool BitIdenticalAcrossPointKinds(const CloudWalker& mem,
                                  const CloudWalker& ooc, NodeId n) {
  QueryOptions probe;
  probe.num_walkers = 20;
  for (const NodeId q : {NodeId{1}, n / 2, n - 2}) {
    const QueryRequest requests[] = {
        QueryRequest::Pair(q, (q * 7 + 3) % n),
        QueryRequest::SingleSource(q),
        QueryRequest::SourceTopK(q, 10),
        QueryRequest::PersonalizedPageRank(q, 10),
        QueryRequest::Node2Vec(q, 10),
    };
    for (const QueryRequest& request : requests) {
      const QueryRequest probed = request.WithOptions(probe);
      const QueryResponse a = mem.Execute(probed);
      if (!a.ok() || !BitIdentical(a, ooc.Execute(probed))) return false;
    }
  }
  return true;
}

// kAllPairsTopK identity on a dedicated small artifact that still genuinely
// pages (16 KiB blocks, 50% budget).
bool AllPairsIdenticalOnSmallArtifact(ThreadPool* pool) {
  const std::string path = "bench-ooc-allpairs.cwk";
  Graph graph = GenerateRmat(3'000, 60'000, /*seed=*/13);
  IndexingOptions options;
  options.num_walkers = 20;
  auto built = CloudWalker::Build(std::move(graph), options, pool);
  CW_CHECK_OK(built.status());
  SnapshotWriteOptions write_options;
  write_options.block_bytes = 16 << 10;
  CW_CHECK_OK(SnapshotWriter::Write(path, (*built)->graph(),
                                    (*built)->index(), SnapshotMetadata{},
                                    write_options));
  auto mem = CloudWalker::Open(path);
  CW_CHECK_OK(mem.status());
  auto paged = PagedSnapshot::Open(path);
  CW_CHECK_OK(paged.status());
  OutOfCoreOptions ooc_options;
  ooc_options.budget_bytes = std::max((*paged)->paged_bytes() / 2,
                                      2 * (*paged)->max_block_bytes());
  auto ooc = CloudWalker::OutOfCore(path, ooc_options);
  CW_CHECK_OK(ooc.status());
  QueryOptions probe;
  probe.num_walkers = 20;
  const QueryRequest all = QueryRequest::AllPairsTopK(3).WithOptions(probe);
  const QueryResponse all_a = (*mem)->Execute(all, pool);
  const QueryResponse all_b = (*ooc)->Execute(all, pool);
  const BlockCacheCounters counters = (*ooc)->ooc_backend()->cache_counters();
  std::remove(path.c_str());
  return all_a.ok() && BitIdentical(all_a, all_b) && counters.misses > 0 &&
         counters.evictions > 0;
}

// One throughput batch: Q single-source queries at the paper's R'.
double OneBatchSeconds(const CloudWalker& engine,
                       const std::vector<NodeId>& sources,
                       const QueryOptions& options) {
  WallTimer timer;
  for (const NodeId q : sources) {
    const QueryRequest request = QueryRequest::SingleSource(q);
    CW_CHECK_OK(engine.Execute(request.WithOptions(options)).status);
  }
  return timer.Seconds();
}

// Best of two passes (first pass warms the page cache / block cache,
// second is the steady state being claimed).
double MeasureBatchSeconds(const CloudWalker& engine,
                           const std::vector<NodeId>& sources,
                           const QueryOptions& options) {
  double best = -1.0;
  for (int pass = 0; pass < 2; ++pass) {
    const double seconds = OneBatchSeconds(engine, sources, options);
    if (best < 0.0 || seconds < best) best = seconds;
  }
  return best;
}

#ifdef __linux__
uint64_t CurrentVmSizeBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmSize: %lu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}
#endif

}  // namespace

int main() {
  bench::PrintHeader("bench_ooc",
                     "out-of-core walk engine: demand-paged block cache + "
                     "walker-block scheduler at a 50% resident budget, and "
                     "the locality reorder pass (DESIGN.md section 14; not "
                     "a paper artifact)");
  bench::JsonReporter report("bench_ooc");
  const double scale = bench::BenchScale();
  const bool quick = scale <= 0.05;
  report.AddContext("scale", FormatDouble(scale, 3));

  // Degree ~20 so the paged per-edge section dominates the resident
  // per-node arrays — the regime the out-of-core tier exists for. Quick
  // mode's 120k nodes page ~8.4 MB in ~34 blocks, so the address-space
  // cap below (budget + 4 MiB of headroom) stays under the paged bytes.
  const NodeId n = quick ? 120'000 : 150'000;
  const uint64_t m = 20ull * n;
  IndexingOptions options;  // paper defaults: R=100, T=10, L=3
  ThreadPool pool;
  const std::string plain_path = "bench-ooc-plain.cwk";
  const std::string reorder_path = "bench-ooc-reordered.cwk";

  std::cout << "building R-MAT |V|=" << HumanCount(n)
            << " |E|=" << HumanCount(m)
            << " and indexing (R=" << options.num_walkers
            << ", T=" << options.params.num_steps << ")...\n";
  Graph graph = GenerateRmat(n, m, /*seed=*/7, {}, &pool);
  auto built = CloudWalker::Build(std::move(graph), options, &pool);
  CW_CHECK_OK(built.status());

  // 256 KiB blocks: tens of blocks even in quick mode, so a 50% budget
  // must genuinely evict.
  SnapshotWriteOptions write_options;
  write_options.block_bytes = 256 << 10;
  CW_CHECK_OK(SnapshotWriter::Write(plain_path, (*built)->graph(),
                                    (*built)->index(), SnapshotMetadata{},
                                    write_options));

  auto mem = CloudWalker::Open(plain_path);
  CW_CHECK_OK(mem.status());

  auto paged = PagedSnapshot::Open(plain_path);
  CW_CHECK_OK(paged.status());
  const uint64_t paged_bytes = (*paged)->paged_bytes();
  OutOfCoreOptions ooc_options;
  ooc_options.budget_bytes =
      std::max(paged_bytes / 2, 2 * (*paged)->max_block_bytes());
  const double budget_fraction =
      static_cast<double>(ooc_options.budget_bytes) /
      static_cast<double>(paged_bytes);
  auto ooc = CloudWalker::OutOfCore(plain_path, ooc_options);
  CW_CHECK_OK(ooc.status());
  std::cout << "paged bytes " << HumanBytes(paged_bytes) << " in "
            << (*paged)->blocks().size() << " blocks; cache budget "
            << HumanBytes(ooc_options.budget_bytes) << " ("
            << FormatDouble(budget_fraction * 100.0, 1) << "% of paged)\n";

  // --- bit identity across all six kinds, while genuinely paging ---
  const bool identical = BitIdenticalAcrossPointKinds(**mem, **ooc, n) &&
                         AllPairsIdenticalOnSmallArtifact(&pool);
  const BlockCacheCounters after_identity =
      (*ooc)->ooc_backend()->cache_counters();

  // --- throughput: the paper's R'=10k single-source batch ---
  const QueryOptions query_options = bench::PaperQueryOptions();
  std::vector<NodeId> sources;
  for (NodeId q = 0; q < (quick ? 6u : 12u); ++q) {
    sources.push_back((q * 9973) % n);
  }
  const double mem_seconds =
      MeasureBatchSeconds(**mem, sources, query_options);
  const double ooc_seconds =
      MeasureBatchSeconds(**ooc, sources, query_options);
  const double total_walkers = static_cast<double>(sources.size()) *
                               static_cast<double>(query_options.num_walkers);
  const double mem_wps = total_walkers / mem_seconds;
  const double ooc_wps = total_walkers / ooc_seconds;
  const BlockCacheCounters counters = (*ooc)->ooc_backend()->cache_counters();
  const bool budget_respected =
      counters.peak_bytes_resident <= ooc_options.budget_bytes;
  const bool genuinely_paged =
      counters.misses > 0 && counters.evictions > 0 &&
      after_identity.misses > 0;
  const uint64_t lookups = counters.hits + counters.misses;
  const double hit_rate = static_cast<double>(counters.hits) /
                          static_cast<double>(std::max<uint64_t>(1, lookups));

  // --- locality reorder: best of degree / bfs, measured in memory ---
  double best_reorder_speedup = 0.0;
  std::string best_reorder_kind = "none";
  bool reorder_identical = true;
  for (const auto& [kind, name] :
       {std::pair<ReorderKind, const char*>{ReorderKind::kDegree, "degree"},
        {ReorderKind::kBfs, "bfs"}}) {
    CW_CHECK_OK((*built)->WriteReorderedSnapshot(reorder_path, kind));
    auto reordered = CloudWalker::Open(reorder_path);
    CW_CHECK_OK(reordered.status());
    // External ids keep answering identically (endpoint kinds are exact).
    for (const NodeId q : {NodeId{17}, n / 3}) {
      const QueryRequest ppr = QueryRequest::PersonalizedPageRank(q, 10);
      const QueryResponse a = (*mem)->Execute(ppr);
      reorder_identical = reorder_identical && a.ok() &&
                          BitIdentical(a, (*reordered)->Execute(ppr));
    }
    // Interleave original-vs-reordered passes and take the min of each:
    // the batch is short enough that host-wide drift between two
    // back-to-back measurements would otherwise dominate the ~10% effect
    // being claimed. The first round doubles as the warm-up.
    double mem_best = -1.0;
    double reordered_best = -1.0;
    for (int round = 0; round < (quick ? 5 : 3); ++round) {
      const double a = OneBatchSeconds(**mem, sources, query_options);
      const double b = OneBatchSeconds(**reordered, sources, query_options);
      if (mem_best < 0.0 || a < mem_best) mem_best = a;
      if (reordered_best < 0.0 || b < reordered_best) reordered_best = b;
    }
    const double speedup = mem_best / reordered_best;
    if (speedup > best_reorder_speedup) {
      best_reorder_speedup = speedup;
      best_reorder_kind = name;
    }
  }

  TablePrinter t({"engine", "batch", "walkers/s", "vs in-mem", "notes"});
  t.AddRow({"in-memory (mmap)", HumanSeconds(mem_seconds),
            HumanCount(static_cast<uint64_t>(mem_wps)), "1.0x", ""});
  t.AddRow({"out-of-core @" + FormatDouble(budget_fraction * 100.0, 0) + "%",
            HumanSeconds(ooc_seconds),
            HumanCount(static_cast<uint64_t>(ooc_wps)),
            FormatDouble(ooc_wps / mem_wps, 2) + "x",
            "hit rate " + FormatDouble(hit_rate * 100.0, 1) + "%, " +
                HumanCount(counters.evictions) + " evictions"});
  t.AddRow({"in-memory, reordered", "", "",
            FormatDouble(best_reorder_speedup, 2) + "x",
            best_reorder_kind + " order (target > 1.1x)"});
  t.RenderText(std::cout);
  std::cout << "bit-identical across all six QueryKinds at "
            << FormatDouble(budget_fraction * 100.0, 0)
            << "% budget: " << (identical ? "PASS" : "FAIL")
            << "; budget respected: " << (budget_respected ? "PASS" : "FAIL")
            << "; genuinely paged: " << (genuinely_paged ? "PASS" : "FAIL")
            << "\n";

  // --- optional: prove serving works with address space clamped below
  // what a whole-file mapping would need ---
  bool ran_under_rlimit = false;
  bool rlimit_enabled = false;
#ifdef __linux__
  const char* rlimit_env = std::getenv("CW_BENCH_OOC_RLIMIT");
  if (rlimit_env != nullptr && std::string(rlimit_env) == "1") {
    rlimit_enabled = true;
    // Free every engine holding the graph in memory first.
    mem = StatusOr<std::shared_ptr<const CloudWalker>>(
        Status::InvalidArgument("released"));
    ooc = StatusOr<std::shared_ptr<const CloudWalker>>(
        Status::InvalidArgument("released"));
    built = StatusOr<std::shared_ptr<const CloudWalker>>(
        Status::InvalidArgument("released"));
    paged = StatusOr<std::shared_ptr<const PagedSnapshot>>(
        Status::InvalidArgument("released"));
    const uint64_t headroom = ooc_options.budget_bytes + (4ull << 20);
    if (headroom < paged_bytes) {
      struct rlimit lim;
      lim.rlim_cur = CurrentVmSizeBytes() + headroom;
      lim.rlim_max = RLIM_INFINITY;
      if (setrlimit(RLIMIT_AS, &lim) == 0) {
        auto capped = CloudWalker::OutOfCore(plain_path, ooc_options);
        if (capped.ok()) {
          const auto request = QueryRequest::SingleSource(sources.front());
          ran_under_rlimit =
              (*capped)->Execute(request.WithOptions(query_options)).ok();
        }
        lim.rlim_cur = RLIM_INFINITY;
        setrlimit(RLIMIT_AS, &lim);  // restore for teardown
      }
      std::cout << "address-space cap (headroom " << HumanBytes(headroom)
                << " < paged " << HumanBytes(paged_bytes)
                << "): " << (ran_under_rlimit ? "PASS" : "FAIL") << "\n";
    } else {
      std::cout << "address-space cap skipped: headroom would exceed the "
                   "paged bytes at this scale\n";
      rlimit_enabled = false;
    }
  }
#endif

  std::remove(plain_path.c_str());
  std::remove(reorder_path.c_str());

  report.AddContextNumber("nodes", static_cast<double>(n));
  report.AddContextNumber("edges", static_cast<double>(m));
  report.AddMetric({"ooc_bit_identical", identical ? 1.0 : 0.0, "bool", true,
                    /*gate=*/true, /*min=*/1.0});
  report.AddMetric({"ooc_budget_fraction", budget_fraction, "frac",
                    /*higher_is_better=*/false, /*gate=*/true, -1.0});
  report.AddMetric({"ooc_budget_respected",
                    (budget_respected && genuinely_paged) ? 1.0 : 0.0, "bool",
                    true, /*gate=*/true, /*min=*/1.0});
  // The absolute floor is sized for the full-scale artifact, whose 5%-ish
  // hit rate at a 50% budget makes this a disk-bandwidth-bound number
  // (~15K walkers/s on the reference host); quick mode's smaller graph
  // pages far less and clears it by an order of magnitude.
  report.AddMetric({"ooc_walkers_per_sec", ooc_wps, "walkers/s", true,
                    /*gate=*/true, /*min=*/5'000.0, /*max_regression=*/0.5});
  report.AddMetric({"ooc_vs_mem_throughput", ooc_wps / mem_wps, "x", true,
                    /*gate=*/false, -1.0});
  report.AddMetric({"ooc_cache_hit_rate", hit_rate, "frac", true,
                    /*gate=*/false, -1.0});
  // The JSON floor is 0.8 because check_bench applies the *baseline's*
  // floor to CI's quick runs, whose tens-of-millisecond batches carry
  // run-to-run noise the same order as the ~10% effect; the committed
  // baseline's value plus max_regression still gate a real slowdown.
  // The >= 1.0x claim itself is enforced below, on full-scale runs only.
  report.AddMetric({"ooc_reorder_speedup", best_reorder_speedup, "x", true,
                    /*gate=*/true, /*min=*/0.8,
                    /*max_regression=*/0.25});
  report.AddMetric({"ooc_reorder_identical", reorder_identical ? 1.0 : 0.0,
                    "bool", true, /*gate=*/true, /*min=*/1.0});
  if (rlimit_enabled) {
    bench::BenchMetric rlimit_metric{"ooc_runs_under_rlimit",
                                     ran_under_rlimit ? 1.0 : 0.0,
                                     "bool",
                                     true,
                                     /*gate=*/true,
                                     /*min=*/1.0};
    rlimit_metric.optional = true;  // Linux-only, env-armed
    report.AddMetric(rlimit_metric);
  }

  const bool ok = report.FloorsPass() && identical && budget_respected &&
                  genuinely_paged && reorder_identical &&
                  (quick || best_reorder_speedup >= 1.0) &&
                  (!rlimit_enabled || ran_under_rlimit);
  if (!report.WriteIfRequested()) return 1;
  std::cout << (ok ? "bench_ooc: PASS\n" : "bench_ooc: FAIL\n");
  return ok ? 0 : 1;
}
