// Ablations for the design choices called out in DESIGN.md section 5:
//   1. MCSS accuracy/latency frontier against exact SimRank, by push
//      pruning threshold.
//   1b. MCSP estimator at equal walk cost.
//   2. Row storage vs regeneration: memory/time trade-off.
//   3. Dangling-node policy sensitivity.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/exact_simrank.h"
#include "bench_common.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/indexer.h"
#include "core/queries.h"
#include "eval/dense.h"
#include "eval/metrics.h"
#include "graph/generators.h"

using namespace cloudwalker;

namespace {

// `count` distinct nodes with in-links, drawn uniformly under `seed`.
std::vector<NodeId> SourcesWithInLinks(const Graph& g, size_t count,
                                       uint64_t seed) {
  std::vector<NodeId> sources;
  Xoshiro256 pick(seed);
  while (sources.size() < count) {
    const NodeId s = pick.UniformInt32(g.num_nodes());
    if (g.InDegree(s) > 0 &&
        std::find(sources.begin(), sources.end(), s) == sources.end()) {
      sources.push_back(s);
    }
  }
  return sources;
}

}  // namespace

int main() {
  bench::PrintHeader("bench_ablation_mcss",
                     "Ablations: MCSS push pruning, MCSP estimator, row "
                     "mode, dangling policy (DESIGN.md section 5)");
  ThreadPool pool;
  const PaperDatasetInstance ds = MakePaperDataset(
      PaperDataset::kWikiTalk, 2015, bench::BenchScale(), &pool);
  std::cout << "Dataset: " << ds.name << " stand-in, |V|="
            << HumanCount(ds.graph.num_nodes())
            << " |E|=" << HumanCount(ds.graph.num_edges()) << "\n\n";

  auto idx =
      BuildDiagonalIndex(ds.graph, bench::PaperIndexingOptions(), &pool);
  if (!idx.ok()) {
    std::cout << "indexing failed: " << idx.status().ToString() << "\n";
    return 1;
  }

  // --- Ablation 1: MCSS accuracy/latency frontier (DESIGN.md 5.1). -------
  // Each push pruning threshold against exact SimRank on its own R-MAT
  // graph at the serving R' = 1000: precision@10 and mean |error| over 40
  // sources with in-links, milliseconds per query with the walk included
  // (median, and the nearest-rank p99, which over 40 queries is the
  // slowest one), and push ops per query. Random sources are rarely hubs,
  // so precision@10 over the 10 highest in-degree nodes, and how many of
  // all 50 answers hold fewer than 10 nodes, are reported beside them.
  // Reported only; SingleSourceGroundTruthTest gates the default's
  // precision.
  {
    const bool quick = bench::BenchScale() <= 0.05;
    const NodeId n = quick ? 2000 : 5000;
    const Graph g = GenerateRmat(n, quick ? 20000 : 75000, /*seed=*/5);
    auto exact = ExactSimRank::Compute(g, {}, &pool);
    auto gidx = BuildDiagonalIndex(g, bench::PaperIndexingOptions(), &pool);
    if (!exact.ok() || !gidx.ok()) {
      std::cout << "ablation 1 setup failed\n";
      return 1;
    }
    const std::vector<NodeId> sources = SourcesWithInLinks(g, 40, /*seed=*/29);
    std::vector<NodeId> hubs(n);
    for (NodeId v = 0; v < n; ++v) hubs[v] = v;
    std::stable_sort(hubs.begin(), hubs.end(), [&g](NodeId a, NodeId b) {
      return g.InDegree(a) > g.InDegree(b);
    });
    hubs.resize(10);
    struct Setting {
      const char* name;
      double prune;
    };
    const Setting settings[] = {
        {"unpruned", 0.0},
        {"pruned at 0.01", 0.01},
        {"pruned at 0.03 (default)", 0.03},
        {"pruned at 0.1", 0.1},
    };
    TablePrinter t({"push", "precision@10", "hubs p@10", "< 10 nodes",
                    "mean |err|", "ms/query p50", "ms/query p99",
                    "push ops/query"});
    for (const Setting& setting : settings) {
      QueryOptions qo = bench::PaperQueryOptions();
      qo.num_walkers = 1000;
      qo.prune_threshold = setting.prune;
      double precision = 0.0, error = 0.0;
      int thin = 0;
      std::vector<double> ms;
      QueryStats stats;
      for (const NodeId s : sources) {
        WallTimer timer;
        const SparseVector est = SingleSourceQuery(g, *gidx, s, qo, &stats);
        ms.push_back(timer.Seconds() * 1e3);
        thin += TopKFromSparse(est, s, 10).size() < 10;
        const std::vector<double> dense = ToDense(est, n);
        const std::vector<double> truth = exact->Row(s);
        precision += PrecisionAtK(TopKIndices(dense, 10, s),
                                  TopKIndices(truth, 10, s), 10);
        error += ComputeErrorStats(dense, truth)->mean_abs;
      }
      double hub_precision = 0.0;
      for (const NodeId s : hubs) {
        const SparseVector est = SingleSourceQuery(g, *gidx, s, qo);
        thin += TopKFromSparse(est, s, 10).size() < 10;
        hub_precision += PrecisionAtK(TopKIndices(ToDense(est, n), 10, s),
                                      TopKIndices(exact->Row(s), 10, s), 10);
      }
      std::sort(ms.begin(), ms.end());
      const size_t p99_rank = (ms.size() * 99 + 99) / 100;  // ceil, 1-based
      const double count = static_cast<double>(sources.size());
      t.AddRow({setting.name, FormatDouble(precision / count, 3),
                FormatDouble(hub_precision / hubs.size(), 3),
                std::to_string(thin), FormatDouble(error / count, 6),
                FormatDouble(ms[ms.size() / 2], 3),
                FormatDouble(ms[p99_rank - 1], 3),
                HumanCount(stats.push_ops / sources.size())});
    }
    std::cout << "Ablation 1 — MCSS against exact SimRank (R-MAT, |V|="
              << HumanCount(n) << " |E|=" << HumanCount(g.num_edges())
              << ", R'=1000, " << sources.size() << " sources):\n";
    t.RenderText(std::cout);
    std::cout << "\n";
  }

  // --- Ablation 1b: MCSP estimator (DESIGN.md 5.3). -----------------------
  {
    // Spread of each estimator across seeds at equal walk cost.
    const NodeId i = 1, j = 2;
    double emp_sum = 0, emp_sq = 0, pair_sum = 0, pair_sq = 0;
    const int reps = 12;
    WallTimer emp_timer;
    for (int r = 0; r < reps; ++r) {
      QueryOptions qo = bench::PaperQueryOptions();
      qo.seed = 7000 + r;
      const double e = SinglePairQuery(ds.graph, *idx, i, j, qo);
      emp_sum += e;
      emp_sq += e * e;
    }
    const double emp_secs = emp_timer.Seconds() / reps;
    WallTimer pair_timer;
    for (int r = 0; r < reps; ++r) {
      QueryOptions qo = bench::PaperQueryOptions();
      qo.seed = 7000 + r;
      const double p = SinglePairQueryPaired(ds.graph, *idx, i, j, qo);
      pair_sum += p;
      pair_sq += p * p;
    }
    const double pair_secs = pair_timer.Seconds() / reps;
    auto stddev = [reps](double sum, double sq) {
      const double mean = sum / reps;
      return std::sqrt(std::max(0.0, sq / reps - mean * mean));
    };
    TablePrinter t({"estimator", "mean", "stddev (seeds)", "time/query"});
    t.AddRow({"empirical distributions (default)",
              FormatDouble(emp_sum / reps, 5),
              FormatDouble(stddev(emp_sum, emp_sq), 5),
              HumanSeconds(emp_secs)});
    t.AddRow({"lockstep walker pairs (classic MC)",
              FormatDouble(pair_sum / reps, 5),
              FormatDouble(stddev(pair_sum, pair_sq), 5),
              HumanSeconds(pair_secs)});
    std::cout << "Ablation 1b — MCSP estimator (equal walk cost, R'=10000):"
              << "\n";
    t.RenderText(std::cout);
    std::cout << "\n";
  }

  // --- Ablation 2: row storage vs regeneration. ---
  {
    TablePrinter t({"row mode", "index time", "row memory", "walk steps"});
    for (RowMode mode : {RowMode::kStoreRows, RowMode::kRegenerate}) {
      IndexingOptions o = bench::PaperIndexingOptions();
      o.row_mode = mode;
      IndexingStats stats;
      WallTimer timer;
      auto built = BuildDiagonalIndex(ds.graph, o, &pool, &stats);
      if (!built.ok()) continue;
      const uint64_t row_bytes =
          mode == RowMode::kStoreRows
              ? stats.row_nonzeros * sizeof(SparseEntry)
              : 0;
      t.AddRow({mode == RowMode::kStoreRows ? "store rows" : "regenerate",
                HumanSeconds(timer.Seconds()), HumanBytes(row_bytes),
                HumanCount(stats.walk_steps)});
    }
    std::cout << "Ablation 2 — row storage vs regeneration (identical "
                 "results, Lx walk work vs O(n R T) memory):\n";
    t.RenderText(std::cout);
    std::cout << "\n";
  }

  // --- Ablation 3: dangling-node policy. ---
  {
    TablePrinter t({"policy", "mean diag", "min diag"});
    for (DanglingPolicy p :
         {DanglingPolicy::kDie, DanglingPolicy::kSelfLoop}) {
      IndexingOptions o = bench::PaperIndexingOptions();
      o.dangling = p;
      auto built = BuildDiagonalIndex(ds.graph, o, &pool);
      if (!built.ok()) continue;
      double sum = 0.0, mn = 1e9;
      for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
        sum += (*built)[v];
        mn = std::min(mn, (*built)[v]);
      }
      t.AddRow({p == DanglingPolicy::kDie ? "die (faithful P)" : "self-loop",
                FormatDouble(sum / ds.graph.num_nodes(), 4),
                FormatDouble(mn, 4)});
    }
    std::cout << "Ablation 3 — dangling-node policy sensitivity:\n";
    t.RenderText(std::cout);
  }
  return 0;
}
