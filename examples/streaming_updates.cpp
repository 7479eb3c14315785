// Streaming-updates example: keep a SimRank index fresh while the graph
// evolves (the natural follow-up to the paper's offline indexing). Each
// batch of edge insertions re-estimates only the dirty nodes — the nodes
// whose T-step reverse walks can observe the change — instead of
// rebuilding the whole index.
//
// The refreshed index is not just recomputed, it is *served*: every batch
// ends with Rebuild + Publish — the (graph', index') pair is wrapped into
// an owning CloudWalker and hot-swapped into a live QueryService
// (DESIGN.md section 9), so queries in flight finish on the version they
// admitted under while new traffic sees the fresh edges immediately.

#include <iostream>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "graph/generators.h"
#include "serve/query_service.h"

using namespace cloudwalker;

namespace {

/// Rebuilds the CSR graph with a batch of insertions applied (a real
/// deployment would use a dynamic adjacency structure; CSR rebuild keeps
/// this example focused on the index maintenance).
Graph WithInsertions(const Graph& graph, const std::vector<EdgeUpdate>& ups) {
  GraphBuilder b(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const NodeId t : graph.OutNeighbors(v)) b.AddEdge(v, t);
  }
  for (const EdgeUpdate& u : ups) b.AddEdge(u.from, u.to);
  return std::move(b.Build()).value();
}

}  // namespace

int main() {
  // A high-diameter interaction graph (ring of communities) where edits
  // stay local; see tests/core/incremental_test.cc for the small-world
  // caveat.
  constexpr NodeId kNodes = 30000;
  GraphBuilder builder(kNodes);
  Xoshiro256 rng(5);
  for (NodeId v = 0; v < kNodes; ++v) {
    builder.AddEdge(v, (v + 1) % kNodes);  // ring backbone
    // Two short-range chords per node.
    for (int c = 0; c < 2; ++c) {
      builder.AddEdge(v, (v + 2 + rng.UniformInt32(30)) % kNodes);
    }
  }
  Graph graph = std::move(builder.Build()).value();
  std::cout << "graph: " << HumanCount(graph.num_nodes()) << " nodes, "
            << HumanCount(graph.num_edges()) << " edges\n";

  ThreadPool pool;
  IndexingOptions options;
  options.num_walkers = 100;
  IncrementalIndexer indexer(options);

  WallTimer init_timer;
  auto state = indexer.Initialize(graph, &pool);
  if (!state.ok()) {
    std::cerr << state.status().ToString() << "\n";
    return 1;
  }
  const double full_build_secs = init_timer.Seconds();
  std::cout << "full build: " << HumanSeconds(full_build_secs) << "\n\n";

  // Stand a live service on the initial index; each batch below publishes
  // its refreshed engine into this service without stopping traffic.
  auto v0 = CloudWalker::FromIndex(Graph(graph), state->index);
  if (!v0.ok()) {
    std::cerr << v0.status().ToString() << "\n";
    return 1;
  }
  ServeOptions serve_options;
  serve_options.query.num_walkers = 500;  // interactive-latency R'
  QueryService service(*v0, serve_options, &pool);
  const NodeId probe = 17;  // a node whose neighborhood the stream perturbs

  // Stream five batches of random insertions.
  for (int batch = 1; batch <= 5; ++batch) {
    std::vector<EdgeUpdate> updates;
    for (int e = 0; e < 20; ++e) {
      updates.push_back(EdgeUpdate{rng.UniformInt32(kNodes),
                                   rng.UniformInt32(kNodes), true});
    }
    graph = WithInsertions(graph, updates);

    WallTimer timer;
    auto next = indexer.ApplyUpdates(graph, updates,
                                     std::move(state).value(), &pool);
    if (!next.ok()) {
      std::cerr << next.status().ToString() << "\n";
      return 1;
    }
    state = std::move(next);

    // Rebuild + Publish: wrap the post-update graph and refreshed diag(D)
    // into a self-contained engine and hot-swap it in.
    auto fresh = CloudWalker::FromIndex(Graph(graph), state->index);
    if (!fresh.ok()) {
      std::cerr << fresh.status().ToString() << "\n";
      return 1;
    }
    auto epoch = service.Publish(*fresh);
    if (!epoch.ok()) {
      std::cerr << epoch.status().ToString() << "\n";
      return 1;
    }
    const QueryRequest request = QueryRequest::SourceTopK(probe, 5);
    const QueryResponse served = service.Execute(request);
    const QueryResponse direct =
        (*fresh)->Execute(request.WithOptions(serve_options.query));
    if (!served.ok() || !direct.ok() || *served.topk() != *direct.topk()) {
      std::cerr << "served answer diverged from the published engine\n";
      return 1;
    }

    std::cout << "batch " << batch << ": " << updates.size()
              << " insertions -> " << state->last_dirty_count
              << " dirty nodes ("
              << FormatDouble(100.0 * state->last_dirty_count / kNodes, 1)
              << "% of the graph) refreshed in " << HumanSeconds(timer.Seconds())
              << ", published as v" << service.Stats().snapshot_version
              << " (epoch " << *epoch << ")"
              << "  (full rebuild: " << HumanSeconds(full_build_secs) << ")\n";
  }

  std::cout << "\nindex stays query-ready after every batch; diag sample: "
            << FormatDouble(state->index[0], 4) << ", "
            << FormatDouble(state->index[kNodes / 2], 4)
            << "; served answers tracked every publish\n";
  return 0;
}
