// Micro-benchmarks of the CloudWalker kernels: row estimation, Jacobi
// sweeps and the three query types.

#include <benchmark/benchmark.h>

#include "core/indexer.h"
#include "core/queries.h"
#include "graph/generators.h"

namespace cloudwalker {
namespace {

const Graph& BenchGraph() {
  static const Graph* graph =
      new Graph(GenerateRmat(50000, 750000, /*seed=*/11));
  return *graph;
}

const DiagonalIndex& BenchIndex() {
  static const DiagonalIndex* index = [] {
    static ThreadPool pool;
    IndexingOptions o;
    o.num_walkers = 100;
    auto idx = BuildDiagonalIndex(BenchGraph(), o, &pool);
    return new DiagonalIndex(std::move(idx).value());
  }();
  return *index;
}

void BM_BuildIndexRow(benchmark::State& state) {
  const Graph& g = BenchGraph();
  IndexingOptions o;
  o.num_walkers = static_cast<uint32_t>(state.range(0));
  WalkScratch scratch_walk(o.num_walkers);
  IndexRowScratch scratch_row;
  NodeId k = 0;
  for (auto _ : state) {
    const SparseVector row =
        BuildIndexRow(g, k, o, &scratch_walk, &scratch_row);
    benchmark::DoNotOptimize(row.size());
    k = (k + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_BuildIndexRow)->Arg(10)->Arg(100)->Arg(1000);

void BM_JacobiSweep(benchmark::State& state) {
  const Graph& g = BenchGraph();
  IndexingOptions o;
  o.num_walkers = 100;
  static ThreadPool pool;
  static const IndexRows* rows = new IndexRows(BuildIndexRows(g, o, &pool));
  std::vector<double> x(g.num_nodes(), 0.4);
  for (auto _ : state) {
    x = JacobiSweep(rows->rows, x, &pool);
    benchmark::DoNotOptimize(x[0]);
  }
  uint64_t nnz = 0;
  for (const auto& r : rows->rows) nnz += r.size();
  state.SetItemsProcessed(state.iterations() * nnz);
}
BENCHMARK(BM_JacobiSweep)->Unit(benchmark::kMillisecond);

void BM_SinglePair(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const DiagonalIndex& idx = BenchIndex();
  QueryOptions q;
  q.num_walkers = static_cast<uint32_t>(state.range(0));
  NodeId i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SinglePairQuery(g, idx, i, (i + 17) % g.num_nodes(), q));
    i = (i + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_SinglePair)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// MCSS at the default push, pruned at 0.03 of each source's largest walk
// term, by R'.
void BM_SingleSource(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const DiagonalIndex& idx = BenchIndex();
  QueryOptions q;
  q.num_walkers = static_cast<uint32_t>(state.range(0));
  NodeId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SingleSourceQuery(g, idx, s, q).size());
    s = (s + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_SingleSource)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// MCSS with the push unpruned (the CLI's --exact-push), at R' = 10000.
void BM_SingleSourceUnpruned(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const DiagonalIndex& idx = BenchIndex();
  QueryOptions q;
  q.num_walkers = 10000;
  q.prune_threshold = 0.0;
  NodeId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SingleSourceQuery(g, idx, s, q).size());
    s = (s + 1) % g.num_nodes();
  }
}
BENCHMARK(BM_SingleSourceUnpruned)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cloudwalker
