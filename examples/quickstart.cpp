// Quickstart: build a graph, index it with CloudWalker, run the three
// query types, and persist the engine as a snapshot and reopen it.
//
//   ./quickstart            # uses a generated power-law graph
//   ./quickstart edges.txt  # or load your own "from to" edge list

#include <iostream>
#include <string>

#include "common/string_util.h"
#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/stats.h"

using namespace cloudwalker;

int main(int argc, char** argv) {
  // --- 1. Obtain a graph. ------------------------------------------------
  Graph graph;
  if (argc > 1) {
    auto loaded = LoadEdgeListText(argv[1]);
    if (!loaded.ok()) {
      std::cerr << "failed to load " << argv[1] << ": "
                << loaded.status().ToString() << "\n";
      return 1;
    }
    graph = std::move(loaded).value();
  } else {
    graph = GenerateRmat(/*num_nodes=*/20000, /*num_edges=*/300000,
                         /*seed=*/42);
  }
  const DegreeStats stats = ComputeDegreeStats(graph);
  std::cout << "graph: " << HumanCount(stats.num_nodes) << " nodes, "
            << HumanCount(stats.num_edges) << " edges, avg degree "
            << FormatDouble(stats.avg_degree, 1) << "\n";

  // --- 2. Offline indexing (estimate diag(D) in parallel). ---------------
  ThreadPool pool;  // defaults to all hardware threads
  IndexingOptions index_options;  // paper defaults: c=0.6 T=10 L=3 R=100
  auto cw = CloudWalker::Build(&graph, index_options, &pool);
  if (!cw.ok()) {
    std::cerr << "indexing failed: " << cw.status().ToString() << "\n";
    return 1;
  }
  std::cout << "indexed with " << HumanCount(cw->indexing_stats().walk_steps)
            << " walk steps in "
            << HumanSeconds(cw->indexing_stats().walk_seconds +
                            cw->indexing_stats().solve_seconds)
            << "\n";

  // --- 3. Online queries. -------------------------------------------------
  QueryOptions query_options;  // paper default R' = 10,000

  // Single-pair: how similar are nodes 1 and 2?
  const QueryRequest pair = QueryRequest::Pair(1, 2).WithOptions(query_options);
  std::cout << "s(1, 2) = " << FormatDouble(cw->Execute(pair).score(), 4)
            << "\n";

  // Single-source: the ten nodes most similar to node 1.
  const QueryResponse top =
      cw->Execute(QueryRequest::SourceTopK(1, 10).WithOptions(query_options));
  std::cout << "top-10 most similar to node 1:\n";
  for (const ScoredNode& sn : *top.topk()) {
    std::cout << "  node " << sn.node << "  s = "
              << FormatDouble(sn.score, 4) << "\n";
  }

  // --- 4. Persist a snapshot for instant reuse. --------------------------
  const std::string path = "/tmp/quickstart.cwk";
  if (cw->WriteSnapshot(path).ok()) {
    auto cw2 = CloudWalker::Open(path);  // mmap: no rebuild, no graph reload
    std::cout << "snapshot written to " << path << " and reopened; s(1, 2) = "
              << FormatDouble((*cw2)->Execute(pair).score(), 4)
              << " (identical)\n";
  }
  return 0;
}
