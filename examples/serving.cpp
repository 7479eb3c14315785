// Serving: run CloudWalker as a concurrent similarity service.
//
// An interactive product ("people also viewed...") does not call the query
// kernels directly — it stands a QueryService in front of them: one shared
// immutable index, a worker pool, a sharded LRU cache over top-k answers,
// and in-flight dedup so a hot source storming in from many users is
// computed once. Requests are typed QueryRequests submitted to an async
// future-based core with per-request deadlines and bounded admission.
// This example builds that stack end to end, issues single async
// requests, and replays a zipfian request stream through it, twice: a
// cold pass that fills the cache and a warm pass that mostly serves from
// it — then hot-swaps a refreshed engine in mid-traffic (Publish, DESIGN.md
// section 9) and self-checks that pre-swap and post-swap responses each
// match their own version's direct kernel answers.
//
//   ./serving   # no arguments; a few seconds

#include <iostream>

#include "common/string_util.h"
#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "serve/query_service.h"
#include "serve/workload.h"

using namespace cloudwalker;

namespace {

void PrintStats(const char* label, const ServeStats& s) {
  std::cout << label << ": " << s.total_queries() << " requests in "
            << HumanSeconds(s.elapsed_seconds) << " — "
            << FormatDouble(s.qps, 0) << " QPS, p50 "
            << FormatDouble(s.p50_ms, 2) << "ms, p95 "
            << FormatDouble(s.p95_ms, 2) << "ms, p99 "
            << FormatDouble(s.p99_ms, 2) << "ms, cache hit rate "
            << FormatDouble(100.0 * s.CacheHitRate(), 1) << "%, "
            << s.dedup_shared << " deduped, " << s.computed
            << " kernel runs\n";
}

}  // namespace

int main() {
  // --- 1. Offline: a graph and its diagonal index (one-time cost). -------
  ThreadPool pool;  // shared by indexing and serving
  auto cw = CloudWalker::Build(
      GenerateRmat(/*num_nodes=*/5000, /*num_edges=*/60000, /*seed=*/7),
      IndexingOptions{}, &pool);
  if (!cw.ok()) {
    std::cerr << "indexing failed: " << cw.status().ToString() << "\n";
    return 1;
  }
  const Graph& graph = (*cw)->graph();
  std::cout << "indexed " << HumanCount(graph.num_nodes()) << " nodes / "
            << HumanCount(graph.num_edges()) << " edges\n";

  // --- 2. Stand up the query service. ------------------------------------
  ServeOptions options;
  options.cache_capacity = 4096;  // top-k answers kept hot
  options.cache_shards = 8;
  options.dedup_in_flight = true;
  options.max_queue_depth = 1024;   // reject instead of buffering forever
  options.query.num_walkers = 500;  // interactive-latency R'
  QueryService service(*cw, options, &pool);

  // A single async request, exactly as a frontend handler would issue it:
  // submit with a deadline, do other work, then wait on the future.
  QueryFuture future = service.Submit(
      QueryRequest::SourceTopK(/*q=*/1, /*k=*/5).WithTimeout(/*sec=*/5.0));
  const QueryResponse one = future.Wait();
  if (!one.ok()) {
    std::cerr << "query failed: " << one.status.ToString() << "\n";
    return 1;
  }
  std::cout << "\nnodes most similar to node 1 (served in "
            << HumanSeconds(one.latency_seconds) << "):\n";
  for (const ScoredNode& sn : *one.topk()) {
    std::cout << "  node " << sn.node << "  s = "
              << FormatDouble(sn.score, 4) << "\n";
  }

  // The same service answers every query shape, including the full
  // single-source vector — useful when a ranker wants all scores.
  const QueryResponse vec =
      service.Execute(QueryRequest::SingleSource(/*q=*/1));
  if (!vec.ok()) {
    std::cerr << "query failed: " << vec.status.ToString() << "\n";
    return 1;
  }
  std::cout << "full similarity vector of node 1 has "
            << vec.scores()->size() << " non-zeros\n";

  // --- 3. Replay a skewed request stream, cold then warm. ----------------
  WorkloadSpec spec;
  spec.num_requests = 400;
  spec.pair_fraction = 0.2;  // 80% top-k, 20% single-pair
  spec.topk = 10;
  spec.skew = WorkloadSkew::kZipf;  // hot sources dominate, like real traffic
  spec.zipf_theta = 0.99;
  spec.seed = 42;
  auto workload = GenerateWorkload(graph.num_nodes(), spec);
  if (!workload.ok()) {
    std::cerr << "workload failed: " << workload.status().ToString() << "\n";
    return 1;
  }

  std::cout << "\nreplaying " << workload->size()
            << " zipfian requests on " << pool.num_threads()
            << " threads...\n";
  service.ResetStats();
  service.ExecuteBatch(*workload);
  PrintStats("cold pass", service.Stats());

  // Warm pass, async this time: submit everything, then gather futures.
  service.ResetStats();
  std::vector<QueryFuture> futures;
  futures.reserve(workload->size());
  for (const QueryRequest& r : *workload) futures.push_back(service.Submit(r));
  const std::vector<QueryResponse> replay = WhenAll(futures);
  PrintStats("warm pass", service.Stats());
  for (const QueryResponse& r : replay) {
    if (!r.ok() && !r.status.IsResourceExhausted()) {
      std::cerr << "warm replay failed: " << r.status.ToString() << "\n";
      return 1;
    }
  }

  // --- 4. Served answers are bit-identical to direct kernel calls. -------
  const QueryRequest request = QueryRequest::SourceTopK(1, 5);
  const QueryResponse again = service.Execute(request);
  const QueryResponse direct =
      (*cw)->Execute(request.WithOptions(options.query));
  const bool identical =
      direct.ok() && again.ok() && *again.topk() == *direct.topk();
  std::cout << "\nserved result identical to direct CloudWalker::Execute: "
            << (identical ? "yes" : "NO — bug!") << " (cache hit: "
            << (again.cache_hit ? "yes" : "no") << ")\n";
  if (!identical) return 1;

  // --- 5. Hot swap a refreshed engine in, live, mid-traffic. --------------
  // The product shipped a new graph build (new edges, new index). Publish
  // routes every admission after it to v2 while requests already admitted
  // finish — and answer — on v1.
  auto v2 = CloudWalker::Build(
      GenerateRmat(/*num_nodes=*/5000, /*num_edges=*/60000, /*seed=*/8),
      IndexingOptions{}, &pool);
  if (!v2.ok()) {
    std::cerr << "v2 indexing failed: " << v2.status().ToString() << "\n";
    return 1;
  }

  std::vector<QueryFuture> pre_swap;
  for (NodeId s = 0; s < 32; ++s) {
    pre_swap.push_back(service.Submit(QueryRequest::SourceTopK(s, 5)));
  }
  auto epoch = service.Publish(*v2);  // <- the swap, zero downtime
  if (!epoch.ok()) {
    std::cerr << "publish failed: " << epoch.status().ToString() << "\n";
    return 1;
  }
  std::vector<QueryFuture> post_swap;
  for (NodeId s = 0; s < 32; ++s) {
    post_swap.push_back(service.Submit(QueryRequest::SourceTopK(s, 5)));
  }

  // Self-check: each phase matches its own version's direct answers.
  size_t mixed = 0;
  const std::vector<QueryResponse> pre = WhenAll(pre_swap);
  const std::vector<QueryResponse> post = WhenAll(post_swap);
  for (NodeId s = 0; s < 32; ++s) {
    const QueryRequest probe =
        QueryRequest::SourceTopK(s, 5).WithOptions(options.query);
    const QueryResponse d1 = (*cw)->Execute(probe);
    const QueryResponse d2 = (*v2)->Execute(probe);
    if (!pre[s].ok() || !d1.ok() || *pre[s].topk() != *d1.topk()) ++mixed;
    if (!post[s].ok() || !d2.ok() || *post[s].topk() != *d2.topk()) ++mixed;
  }
  std::cout << "\nhot swap: published v"
            << service.Stats().snapshot_version << " (epoch " << *epoch
            << ") mid-traffic; " << pre.size() << " pre-swap + "
            << post.size() << " post-swap responses, "
            << (mixed == 0 ? "all matched their own version"
                           : "VERSION MIX — bug!")
            << "\n";
  return mixed == 0 ? 0 : 1;
}
