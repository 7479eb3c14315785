// Micro-benchmarks of the random-walk engine: the kernel whose throughput
// drives every CloudWalker phase (DESIGN.md section 8).
//
//   Table 1 — single-source walk-kernel throughput: the frozen pre-PR
//             scalar kernel vs the batched kernel's prefetch pipeline over
//             the in-CSR. The batched/legacy speedup is the repo's tracked
//             perf number (gated >= 2x).
//   Table 2 — per-worker counter layout: counters packed into one cache
//             line vs padded WalkWorkerState-style slots, the two layouts
//             alternating over five trials (the ratio of their medians is
//             reported, not gated).
//   Table 3 — snapshot cold build vs mmap open (gated on the open's
//             milliseconds per artifact MB).
//   Table 4 — the online combine phase alone: top-k, node2vec and pair
//             queries over walks recorded once and replayed, on a graph
//             of the serving benchmark's shape (reported, not gated).
//
// Self-timed (no Google Benchmark dependency) so it runs everywhere,
// honors CW_BENCH_SCALE / CW_BENCH_QUICK, and emits machine-readable
// results via bench_json.h when CW_BENCH_JSON is set. Exit status enforces
// the determinism and >= 2x speedup gates.

#include <algorithm>
#include <atomic>
#include <deque>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/queries.h"
#include "engine/walk.h"
#include "engine/walk_backend.h"
#include "engine/walk_program.h"
#include "graph/generators.h"

using namespace cloudwalker;

namespace {

// The accumulator the legacy kernel drained through before the batched
// engine: an open-addressing table whose Clear and drain walk its whole
// capacity, and whose drain sorts with std::sort. Private to the
// reference, so work on the shared SparseAccumulator or SortByKey never
// moves the baseline the batched kernel is gated against. Sized as that
// table sized itself (a power of two >= 2 x expected keys); the legacy
// kernel expects twice the walkers and a level holds at most one key per
// walker, so it never needed to grow.
class LegacyAccumulator {
 public:
  explicit LegacyAccumulator(size_t expected) {
    size_t capacity = 16;
    while (capacity < expected * 2) capacity <<= 1;
    keys_.assign(capacity, kEmpty);
    values_.assign(capacity, 0.0);
  }

  void Add(uint32_t key, double value) {
    const size_t mask = keys_.size() - 1;
    size_t i = static_cast<size_t>(
                   (uint64_t{key} * 0x9e3779b97f4a7c15ULL) >> 32) &
               mask;
    while (keys_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask;
    if (keys_[i] == kEmpty) {
      keys_[i] = key;
      ++size_;
    }
    values_[i] += value;
  }

  void Clear() {
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    std::fill(values_.begin(), values_.end(), 0.0);
    size_ = 0;
  }

  SparseVector ToSortedVector() const {
    std::vector<SparseEntry> entries;
    entries.reserve(size_);
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) {
        entries.push_back(SparseEntry{keys_[i], values_[i]});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const SparseEntry& a, const SparseEntry& b) {
                return a.index < b.index;
              });
    return SparseVector::FromSorted(std::move(entries));
  }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;
  std::vector<uint32_t> keys_;
  std::vector<double> values_;
  size_t size_ = 0;
};

// The walk kernel exactly as shipped before the batched engine: one shared
// xoshiro stream per source, one StepReverse per walker per level, inv_r
// scatter-adds into a LegacyAccumulator. Kept verbatim as the head-to-head
// reference; do not "improve" it.
WalkDistributions LegacyWalkDistributions(const Graph& graph, NodeId source,
                                          const WalkConfig& config,
                                          LegacyAccumulator* scratch,
                                          WalkStats* stats) {
  WalkDistributions out;
  out.levels.resize(config.num_steps + 1);
  out.levels[0] = SparseVector::FromSorted({SparseEntry{source, 1.0}});

  Xoshiro256 rng = Xoshiro256::Derive(config.seed, source);
  std::vector<NodeId> positions(config.num_walkers, source);
  uint32_t alive = config.num_walkers;

  LegacyAccumulator local_scratch(config.num_walkers * 2);
  LegacyAccumulator& acc = scratch != nullptr ? *scratch : local_scratch;
  const double inv_r = 1.0 / static_cast<double>(config.num_walkers);

  for (uint32_t t = 1; t <= config.num_steps && alive > 0; ++t) {
    acc.Clear();
    for (NodeId& pos : positions) {
      if (pos == kInvalidNode) continue;
      pos = StepReverse(graph, pos, rng, config.dangling);
      if (stats != nullptr) ++stats->steps;
      if (pos == kInvalidNode) {
        --alive;
        continue;
      }
      acc.Add(pos, inv_r);
    }
    out.levels[t] = acc.ToSortedVector();
  }
  return out;
}

// Floor on node2vec's served default (p = q = 1) steps/s over SimRank's
// batched steps/s. Every trial at p = q = 1 accepts, so the step should
// cost about one uniform step plus a second draw; a step that still
// searches In(prev) reads well below the floor.
constexpr double kN2vDefaultOverSimrankMin = 0.4;

// Spreads measured sources over the whole graph so consecutive walks share
// no warm neighborhoods.
NodeId ScatterSource(uint64_t i, NodeId num_nodes) {
  return static_cast<NodeId>((i * 2654435761ULL) % num_nodes);
}

struct Throughput {
  double steps_per_sec = 0.0;
  uint64_t steps = 0;
};

// Runs `simulate(source, stats)` over scattered sources until `min_seconds`
// of wall clock, after one warmup call. Returns steps/second.
template <typename Fn>
Throughput MeasureWalkThroughput(NodeId num_nodes, double min_seconds,
                                 const Fn& simulate) {
  WalkStats warmup;
  simulate(ScatterSource(0, num_nodes), &warmup);
  Throughput result;
  WallTimer timer;
  uint64_t i = 1;
  do {
    WalkStats stats;
    simulate(ScatterSource(i++, num_nodes), &stats);
    result.steps += stats.steps;
  } while (timer.Seconds() < min_seconds);
  result.steps_per_sec = static_cast<double>(result.steps) / timer.Seconds();
  return result;
}

bool SameDistributions(const WalkDistributions& a,
                       const WalkDistributions& b) {
  if (a.num_levels() != b.num_levels()) return false;
  for (size_t t = 0; t < a.num_levels(); ++t) {
    if (a.levels[t].size() != b.levels[t].size()) return false;
    for (size_t k = 0; k < a.levels[t].size(); ++k) {
      if (!(a.levels[t][k] == b.levels[t][k])) return false;
    }
  }
  return true;
}

// Each worker bumps its own counter `rounds` times; returns increments/sec.
// `stride_bytes` is the distance between adjacent workers' counters.
double CounterThroughput(int threads, uint64_t rounds, size_t stride_bytes,
                         unsigned char* base) {
  std::vector<std::thread> workers;
  std::atomic<bool> go{false};
  WallTimer timer;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      auto* counter =
          reinterpret_cast<volatile uint64_t*>(base + w * stride_bytes);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < rounds; ++i) *counter = *counter + 1;
    });
  }
  timer.Restart();
  go.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  const double seconds = timer.Seconds();
  return static_cast<double>(rounds) * threads / seconds;
}

// Hands back walk outputs recorded earlier, in call order, so the query
// kernels run their combine phase without walking.
class ReplayBackend final : public WalkBackend {
 public:
  WalkDistributions SimRankLevels(NodeId, const WalkConfig&,
                                  WalkStats*) const override {
    return Pop();
  }
  SparseVector PprEndpoints(NodeId, const WalkConfig&, const PprParams&,
                            WalkStats*) const override {
    CW_CHECK(false) << "Table 4 replays no PPR walk";
    return SparseVector();
  }
  WalkDistributions Node2VecLevels(NodeId, const WalkConfig&,
                                   const Node2VecParams&,
                                   WalkStats*) const override {
    return Pop();
  }

  void Record(WalkDistributions d) { queue_.push_back(std::move(d)); }

 private:
  WalkDistributions Pop() const {
    CW_CHECK(!queue_.empty());
    WalkDistributions front = std::move(queue_.front());
    queue_.pop_front();
    return front;
  }

  mutable std::deque<WalkDistributions> queue_;
};

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

struct CombineTiming {
  size_t samples = 0;  // timed calls per query kind
  double topk_ms = 0.0, n2v_ms = 0.0, pair_ms = 0.0;  // medians
  double push_ops_per_topk = 0.0;
};

// The combine phase of the top-k (SingleSourceQuery), node2vec and pair
// queries, each call timed alone over walks recorded once from
// `num_sources` scattered sources with in-links and replayed `reps`
// times; top-k and node2vec include the top-10 extraction, as a served
// request does. Pair i joins sources i and i + 1. The combine's work
// does not depend on the diagonal's values (none is zero), so a constant
// 1 - c stands in for a built index.
CombineTiming MeasureCombine(const Graph& graph, uint32_t num_sources,
                             int reps) {
  const SimRankParams params;
  const DiagonalIndex index(
      params, std::vector<double>(graph.num_nodes(), 1.0 - params.decay));
  QueryOptions options;
  options.num_walkers = 1000;  // the serving layer's R'
  WalkConfig cfg;
  cfg.num_steps = params.num_steps;
  cfg.num_walkers = options.num_walkers;
  cfg.dangling = options.dangling;
  cfg.seed = options.seed;
  const LocalWalkBackend local(graph, nullptr);
  std::vector<NodeId> live;  // as bench/e2e draws sources: in-links only
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.InDegree(v) > 0) live.push_back(v);
  }
  std::vector<NodeId> sources;
  std::vector<WalkDistributions> simrank, n2v;
  for (uint32_t i = 0; i < num_sources; ++i) {
    const NodeId q =
        live[ScatterSource(i, static_cast<NodeId>(live.size()))];
    sources.push_back(q);
    simrank.push_back(local.SimRankLevels(q, cfg, nullptr));
    n2v.push_back(local.Node2VecLevels(q, cfg, Node2VecParams{}, nullptr));
  }

  constexpr size_t kTopK = 10;
  std::vector<double> topk_ms, n2v_ms, pair_ms;
  uint64_t push_ops = 0;
  ReplayBackend replay;
  WallTimer timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (uint32_t i = 0; i < num_sources; ++i) {
      const NodeId q = sources[i];
      const uint32_t i2 = (i + 1) % num_sources;
      CW_CHECK(sources[i2] != q);  // a self pair walks nothing
      QueryStats stats;
      replay.Record(simrank[i]);
      timer.Restart();
      TopKFromSparse(SingleSourceQuery(graph, index, q, options, &stats,
                                       nullptr, nullptr, nullptr, &replay),
                     q, kTopK);
      topk_ms.push_back(timer.Millis());
      push_ops += stats.push_ops;

      replay.Record(n2v[i]);
      timer.Restart();
      TopKFromSparse(Node2VecVisitQuery(graph, index, q, options, nullptr,
                                        nullptr, nullptr, nullptr, &replay),
                     q, kTopK);
      n2v_ms.push_back(timer.Millis());

      replay.Record(simrank[i]);
      replay.Record(simrank[i2]);
      timer.Restart();
      SinglePairQuery(graph, index, q, sources[i2], options, nullptr, nullptr,
                      nullptr, nullptr, &replay);
      pair_ms.push_back(timer.Millis());
    }
  }
  CombineTiming out;
  out.samples = topk_ms.size();
  out.topk_ms = Median(std::move(topk_ms));
  out.n2v_ms = Median(std::move(n2v_ms));
  out.pair_ms = Median(std::move(pair_ms));
  out.push_ops_per_topk =
      static_cast<double>(push_ops) / static_cast<double>(out.samples);
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader("bench_micro_engine",
                     "engine micro-kernels: batched walk vs the pre-PR "
                     "scalar kernel (DESIGN.md section 8; not a paper "
                     "artifact)");
  bench::JsonReporter report("bench_micro_engine");
  const double scale = bench::BenchScale();
  const bool quick = scale <= 0.05;
  const double min_seconds = quick ? 0.5 : 2.0;

  // A graph whose CSR exceeds last-level caches even in quick mode:
  // walk throughput here is memory-latency bound, which is exactly what the
  // batched prefetch pipeline attacks.
  const NodeId n = static_cast<NodeId>(
      std::max<uint64_t>(400'000, static_cast<uint64_t>(8'000'000 * scale)));
  const uint64_t m = 8ull * n;
  std::cerr << "[bench] generating R-MAT |V|=" << HumanCount(n)
            << " |E|=" << HumanCount(m) << "...\n";
  const Graph graph = GenerateRmat(n, m, /*seed=*/2015);

  WalkConfig cfg;
  cfg.num_steps = 10;
  cfg.num_walkers = 1000;  // the serving layer's R'
  cfg.seed = 2015;

  report.AddContextNumber("hardware_threads",
                          std::thread::hardware_concurrency());
  report.AddContextNumber("bench_threads", 1);  // single-threaded kernel
  report.AddContext("scale", FormatDouble(scale, 3));
  report.AddContextNumber("graph_nodes", graph.num_nodes());
  report.AddContextNumber("graph_edges", graph.num_edges());
  report.AddContextNumber("walkers", cfg.num_walkers);
  report.AddContextNumber("steps", cfg.num_steps);

  // --- Table 1: single-source walk-kernel throughput. --------------------
  LegacyAccumulator legacy_scratch(cfg.num_walkers * 2);
  const Throughput legacy = MeasureWalkThroughput(
      n, min_seconds, [&](NodeId source, WalkStats* stats) {
        LegacyWalkDistributions(graph, source, cfg, &legacy_scratch, stats);
      });
  WalkScratch scratch(cfg.num_walkers);
  const Throughput batched = MeasureWalkThroughput(
      n, min_seconds, [&](NodeId source, WalkStats* stats) {
        SimulateWalkDistributions(graph, source, cfg, &scratch, nullptr,
                                  stats);
      });

  const double speedup = batched.steps_per_sec / legacy.steps_per_sec;
  {
    TablePrinter t({"kernel", "Msteps/s", "speedup vs legacy"});
    auto add = [&](const std::string& name, const Throughput& tp) {
      t.AddRow({name, FormatDouble(tp.steps_per_sec / 1e6, 2),
                FormatDouble(tp.steps_per_sec / legacy.steps_per_sec, 2) +
                    "x"});
    };
    add("legacy scalar (pre-PR)", legacy);
    add("batched, in-CSR prefetch", batched);
    std::cout << "Table 1 — single-source walk kernel (R'="
              << cfg.num_walkers << ", T=" << cfg.num_steps << "):\n";
    t.RenderText(std::cout);
    const bool speedup_ok = speedup >= 2.0;
    std::cout << "batched speedup vs pre-PR kernel: "
              << FormatDouble(speedup, 2) << "x (target >= 2x) — "
              << (speedup_ok ? "PASS" : "FAIL") << "\n\n";
  }
  report.AddMetric({"walk_legacy_msteps_per_sec", legacy.steps_per_sec / 1e6,
                    "Msteps/s", true, false, -1.0});
  report.AddMetric({"walk_batched_csr_msteps_per_sec",
                    batched.steps_per_sec / 1e6, "Msteps/s", true, false,
                    -1.0});
  report.AddMetric({"walk_batched_speedup_vs_legacy", speedup, "x", true,
                    /*gate=*/true, /*min=*/2.0});

  // --- Table 1b: walk-program throughput. --------------------------------
  // Every program rides the same batched kernel (DESIGN.md section 10), so
  // their throughputs are reported side by side: SimRank is the gated
  // reference; PPR pays one extra stop coin per step; node2vec pays a
  // second draw per step and, when p or q moves its weights, the rejection
  // loop (graph-dependent: up to max_trials picks per step, and a search
  // of In(prev) only when q != 1). Absolute Msteps/s is hardware- and
  // graph-bound, so it is tracked ungated; the served default p = q = 1
  // must stay within a fixed fraction of SimRank's rate on the same host,
  // which is gated.
  {
    const Throughput ppr = MeasureWalkThroughput(
        n, min_seconds, [&](NodeId source, WalkStats* stats) {
          SimulatePprEndpoints(graph, source, cfg, PprParams{}, &scratch,
                               nullptr, stats);
        });
    const auto measure_n2v = [&](const Node2VecParams& params) {
      return MeasureWalkThroughput(
          n, min_seconds, [&](NodeId source, WalkStats* stats) {
            SimulateNode2VecVisits(graph, nullptr, source, cfg, params,
                                   &scratch, nullptr, stats);
          });
    };
    const Throughput n2v_default = measure_n2v(Node2VecParams{});
    Node2VecParams n2v_params;
    n2v_params.return_p = 0.5;
    n2v_params.in_out_q = 2.0;
    const Throughput n2v = measure_n2v(n2v_params);
    TablePrinter t({"program", "Msteps/s", "vs simrank"});
    auto add = [&](const std::string& name, const Throughput& tp) {
      t.AddRow({name, FormatDouble(tp.steps_per_sec / 1e6, 2),
                FormatDouble(tp.steps_per_sec / batched.steps_per_sec, 2) +
                    "x"});
    };
    add("simrank endpoints", batched);
    add("ppr endpoints (alpha=0.85)", ppr);
    add("node2vec visits (p=q=1)", n2v_default);
    add("node2vec visits (p=0.5, q=2)", n2v);
    const double n2v_default_ratio =
        n2v_default.steps_per_sec / batched.steps_per_sec;
    std::cout << "Table 1b — walk-program throughput on the shared kernel:\n";
    t.RenderText(std::cout);
    std::cout << "node2vec (p=q=1) vs simrank: "
              << FormatDouble(n2v_default_ratio, 2) << "x (target >= "
              << FormatDouble(kN2vDefaultOverSimrankMin, 2) << "x) — "
              << (n2v_default_ratio >= kN2vDefaultOverSimrankMin ? "PASS"
                                                                 : "FAIL")
              << "\n\n";
    report.AddMetric({"ppr_msteps_per_sec", ppr.steps_per_sec / 1e6,
                      "Msteps/s", true, false, -1.0});
    report.AddMetric({"n2v_default_msteps_per_sec",
                      n2v_default.steps_per_sec / 1e6, "Msteps/s", true,
                      false, -1.0});
    report.AddMetric({"n2v_msteps_per_sec", n2v.steps_per_sec / 1e6,
                      "Msteps/s", true, false, -1.0});
    report.AddMetric({"n2v_default_over_simrank", n2v_default_ratio, "x",
                      true, /*gate=*/true,
                      /*min=*/kN2vDefaultOverSimrankMin});
  }

  // --- Determinism spot-check (full coverage lives in tests/engine). -----
  bool determinism_ok = true;
  {
    WalkConfig narrow = cfg;
    narrow.batch_width = 1;
    WalkConfig wide = cfg;
    wide.batch_width = 64;
    for (uint64_t i = 0; i < 3; ++i) {
      const NodeId source = ScatterSource(i * 7 + 1, n);
      const WalkDistributions a =
          SimulateWalkDistributions(graph, source, narrow);
      const WalkDistributions b =
          SimulateWalkDistributions(graph, source, wide);
      determinism_ok = determinism_ok && SameDistributions(a, b);
    }
    std::cout << "determinism (W=1 vs W=64): "
              << (determinism_ok ? "PASS" : "FAIL") << "\n\n";
  }
  report.AddMetric({"walk_determinism_ok", determinism_ok ? 1.0 : 0.0, "bool",
                    true, /*gate=*/true, /*min=*/1.0});

  // --- Table 2: per-worker counter layout. -------------------------------
  // Adjacent workers' counters packed into one cache line vs spread across
  // padded WalkWorkerState-style slots, the layouts alternating over
  // several trials. Reported, not gated: the loop times raw counters in a
  // scratch buffer, no engine type, so it cannot see a layout regression,
  // and on a shared virtualised host the two layouts often time alike.
  // The padding itself is static-asserted on every per-worker type
  // (WalkScratch, WalkWorkerState, RangeWalk, IndexWorkerState, the
  // sharded engine's Region).
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw >= 2) {
    const int threads = std::min(4, hw);
    const uint64_t rounds = quick ? 4'000'000 : 16'000'000;
    std::vector<unsigned char> storage(kCacheLineBytes * (threads + 1), 0);
    // Align the base so "packed" really is one line and "padded" really is
    // one line per worker.
    auto* base = storage.data();
    while (reinterpret_cast<uintptr_t>(base) % kCacheLineBytes != 0) ++base;
    constexpr int kTrials = 5;
    std::vector<double> packed, padded;
    TablePrinter t({"trial", "packed Mincr/s", "padded Mincr/s",
                    "padded/packed"});
    for (int trial = 0; trial < kTrials; ++trial) {
      packed.push_back(
          CounterThroughput(threads, rounds, sizeof(uint64_t), base));
      padded.push_back(
          CounterThroughput(threads, rounds, kCacheLineBytes, base));
      t.AddRow({std::to_string(trial + 1),
                FormatDouble(packed.back() / 1e6, 1),
                FormatDouble(padded.back() / 1e6, 1),
                FormatDouble(padded.back() / packed.back(), 2)});
    }
    const double padded_over_packed = Median(padded) / Median(packed);
    t.AddRow({"median", FormatDouble(Median(packed) / 1e6, 1),
              FormatDouble(Median(padded) / 1e6, 1),
              FormatDouble(padded_over_packed, 2)});
    std::cout << "Table 2 — per-worker counter layout (" << threads
              << " threads, layouts alternating over " << kTrials
              << " trials):\n";
    t.RenderText(std::cout);
    std::cout << "padded/packed (ratio of medians): "
              << FormatDouble(padded_over_packed, 2) << "x (reported)\n\n";
    report.AddMetric({"false_sharing_padded_over_packed", padded_over_packed,
                      "x", true, /*gate=*/false});
  } else {
    // No metric: a value never measured must not enter a baseline.
    std::cout << "Table 2 — skipped (single hardware thread; padded layout "
                 "trivially exempt from false sharing)\n\n";
  }

  // --- Table 3: snapshot cold build vs mmap open. ------------------------
  // The restart-time story (DESIGN.md section 9): a process opening a
  // persisted snapshot artifact comes up far faster than one rebuilding
  // the index from the raw graph. Run on its own (smaller) graph so the
  // offline build stays benchable. The gate reads the open alone, in
  // milliseconds per artifact MB: the ratio over the build is printed,
  // but it would move whenever the indexer does.
  {
    const NodeId sn = static_cast<NodeId>(
        std::max<uint64_t>(60'000, static_cast<uint64_t>(1'200'000 * scale)));
    ThreadPool snapshot_pool;
    IndexingOptions build_options;  // paper defaults: R=100, T=10, L=3
    auto snap = bench::MeasureSnapshotLoad(sn, 8ull * sn, build_options,
                                           &snapshot_pool,
                                           "bench-snapshot-tmp.cwk");
    CW_CHECK_OK(snap.status());
    const double open_speedup = snap->build_seconds / snap->open_seconds;
    const double open_ms_per_mb =
        snap->open_seconds * 1e3 /
        (static_cast<double>(snap->file_bytes) / 1e6);
    const double file_bytes_per_edge =
        static_cast<double>(snap->file_bytes) /
        static_cast<double>(snap->edges);
    TablePrinter t({"phase", "seconds"});
    t.AddRow({"cold build (index)",
              FormatDouble(snap->build_seconds, 3)});
    t.AddRow({"write snapshot", FormatDouble(snap->write_seconds, 3)});
    t.AddRow({"mmap open + verify", FormatDouble(snap->open_seconds, 4)});
    t.AddRow({"reopen (page cache warm)",
              FormatDouble(snap->reopen_seconds, 4)});
    std::cout << "Table 3 — snapshot restart time (|V|="
              << HumanCount(snap->nodes) << ", |E|="
              << HumanCount(snap->edges) << ", "
              << HumanBytes(snap->file_bytes) << " artifact):\n";
    t.RenderText(std::cout);
    std::cout << "mmap open: " << FormatDouble(open_ms_per_mb, 2)
              << " ms per artifact MB (" << FormatDouble(open_speedup, 1)
              << "x faster than the cold build); answers bit-identical: "
              << (snap->identical ? "PASS" : "FAIL") << "\n\n";
    report.AddMetric({"snapshot_cold_build_seconds", snap->build_seconds,
                      "s", /*higher_is_better=*/false, false, -1.0});
    report.AddMetric({"snapshot_open_seconds", snap->open_seconds, "s",
                      /*higher_is_better=*/false, false, -1.0});
    // An absolute time moves with the host (its baseline names one), so
    // its tolerance is wider than the ratios': a second pass over the
    // file still doubles it.
    report.AddMetric({"snapshot_open_ms_per_mb", open_ms_per_mb, "ms/MB",
                      /*higher_is_better=*/false, /*gate=*/true, -1.0,
                      /*max_regression=*/0.5});
    report.AddMetric({"snapshot_file_bytes_per_edge", file_bytes_per_edge,
                      "B", /*higher_is_better=*/false, false, -1.0});
    report.AddMetric({"snapshot_roundtrip_identical",
                      snap->identical ? 1.0 : 0.0, "bool", true,
                      /*gate=*/true, /*min=*/1.0});
  }

  // --- Table 4: the online combine phase alone. -------------------------
  // What a served query does after its walk (DESIGN.md section 5): the
  // Horner push and merge of a top-k query, node2vec's visit sum, and a
  // pair's level-by-level intersection. Replaying recorded walks times
  // the combine on its own and repeatably, on a graph of the serving
  // benchmark's shape (bench/e2e: 200k nodes, 3M edges). Reported, not
  // gated: absolute times move with the host.
  {
    const Graph serving = GenerateRmat(200'000, 3'000'000, /*seed=*/1);
    const uint32_t num_sources = quick ? 200 : 1000;
    constexpr int kReps = 3;
    const CombineTiming c = MeasureCombine(serving, num_sources, kReps);
    TablePrinter t({"query", "combine p50 ms"});
    t.AddRow({"top-k (default push)", FormatDouble(c.topk_ms, 3)});
    t.AddRow({"node2vec visits", FormatDouble(c.n2v_ms, 3)});
    t.AddRow({"pair", FormatDouble(c.pair_ms, 3)});
    std::cout << "Table 4 — combine phase over replayed walks (|V|="
              << HumanCount(serving.num_nodes()) << ", |E|="
              << HumanCount(serving.num_edges()) << ", R'=1000, "
              << num_sources << " sources x " << kReps << " reps):\n";
    t.RenderText(std::cout);
    std::cout << "push ops per top-k: "
              << FormatDouble(c.push_ops_per_topk, 1) << "\n\n";
    report.AddMetric({"combine_topk_p50_ms", c.topk_ms, "ms",
                      /*higher_is_better=*/false, false, -1.0});
    report.AddMetric({"combine_n2v_p50_ms", c.n2v_ms, "ms",
                      /*higher_is_better=*/false, false, -1.0});
    report.AddMetric({"combine_pair_p50_ms", c.pair_ms, "ms",
                      /*higher_is_better=*/false, false, -1.0});
    report.AddMetric({"combine_push_ops_per_topk", c.push_ops_per_topk,
                      "count", /*higher_is_better=*/false, false, -1.0});
  }

  const bool ok = report.FloorsPass();
  if (!report.WriteIfRequested()) return 1;
  std::cout << (ok ? "bench_micro_engine: PASS\n"
                   : "bench_micro_engine: FAIL (gated floor violated)\n");
  return ok ? 0 : 1;
}
