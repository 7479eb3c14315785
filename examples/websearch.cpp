// Web-search example ("related pages" on a hyperlink graph — the paper's
// WWW motivation). Compares SimRank's link-structure similarity with
// plain co-citation on a synthetic power-law web graph, and demonstrates
// the distributed execution models on a cluster simulation.

#include <iostream>

#include "baselines/cocitation.h"
#include "common/string_util.h"
#include "core/cloudwalker.h"
#include "core/distributed.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "graph/stats.h"

using namespace cloudwalker;

int main() {
  // A web-shaped graph: heavy-tailed in-degrees (popular pages), 60K pages.
  ThreadPool pool;
  const Graph web =
      GenerateRmat(60000, 900000, /*seed=*/2026, RmatOptions(), &pool);
  const DegreeStats stats = ComputeDegreeStats(web);
  std::cout << "web graph: " << HumanCount(stats.num_nodes) << " pages, "
            << HumanCount(stats.num_edges) << " links, max in-degree "
            << HumanCount(stats.max_in_degree) << "\n";

  IndexingOptions io;  // paper defaults
  auto cw = CloudWalker::Build(&web, io, &pool);
  if (!cw.ok()) {
    std::cerr << cw.status().ToString() << "\n";
    return 1;
  }

  // Pick a well-cited page as the query.
  NodeId query = 0;
  for (NodeId v = 0; v < web.num_nodes(); ++v) {
    if (web.InDegree(v) > web.InDegree(query)) query = v;
  }
  std::cout << "query page: " << query << " (in-degree "
            << web.InDegree(query) << ")\n\n";

  QueryOptions qo;  // paper default R' = 10,000
  // On a 60K-page graph the exact push stays cheap pruned at 1e-5 of the
  // source's largest walk term, far below the default 0.03.
  qo.prune_threshold = 1e-5;
  const TopKPtr related =
      cw->Execute(QueryRequest::SourceTopK(query, 10).WithOptions(qo)).topk();
  std::cout << "related pages by SimRank:\n";
  for (const ScoredNode& sn : *related) {
    std::cout << "  page " << sn.node << "  s = "
              << FormatDouble(sn.score, 4) << "  (co-citation "
              << FormatDouble(CoCitation(web, query, sn.node), 4) << ")\n";
  }

  // How much do the two measures agree on this query?
  const std::vector<double> cocite = CoCitationSingleSource(web, query);
  std::vector<NodeId> simrank_ids;
  for (const ScoredNode& sn : *related) {
    simrank_ids.push_back(sn.node);
  }
  const double overlap =
      PrecisionAtK(simrank_ids, TopKIndices(cocite, 10, query), 10);
  std::cout << "overlap with co-citation top-10: "
            << FormatDouble(overlap * 100, 0)
            << "% — SimRank surfaces multi-hop related pages co-citation "
               "cannot see.\n\n";

  // The same query on the simulated cluster, both execution models.
  ClusterConfig cluster;  // 10 workers x 16 cores
  const CostModel cost = CostModel::Default();
  for (ExecutionModel model :
       {ExecutionModel::kBroadcasting, ExecutionModel::kRdd}) {
    auto result = DistributedSingleSource(web, cw->index(), query, qo, model,
                                          cluster, cost, &pool);
    if (result.ok()) {
      std::cout << ExecutionModelName(model) << " model: simulated latency "
                << HumanSeconds(result->cost.TotalSeconds()) << " ("
                << result->cost.num_stages << " stages, "
                << HumanBytes(result->cost.bytes_shuffled) << " shuffled)\n";
    }
  }
  std::cout << "(Broadcasting answers interactively; RDD pays per-stage "
               "scheduling — the paper's trade-off.)\n";
  return 0;
}
