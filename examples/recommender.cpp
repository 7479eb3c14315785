// Recommender-system example (one of the paper's motivating applications):
// "users who bought similar items" on a user -> item bipartite graph.
//
// SimRank on the bipartite graph scores user-user similarity through the
// items they touch and item-item similarity through the users touching
// them — including multi-hop relationships co-purchase counting misses.

#include <iostream>
#include <vector>

#include "baselines/cocitation.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/cloudwalker.h"
#include "graph/graph.h"

using namespace cloudwalker;

namespace {

constexpr NodeId kNumUsers = 2000;
constexpr NodeId kNumItems = 500;
constexpr int kGenres = 5;

NodeId ItemNode(NodeId item) { return kNumUsers + item; }

// Synthetic taste model: each user favours one genre; items belong to one
// genre; users "purchase" mostly within their genre. Purchases are added
// in both directions (user <-> item), the standard bipartite-SimRank
// encoding: users are then similar when their in-neighborhoods (bought
// items) overlap, and items when their in-neighborhoods (buyers) do.
Graph MakePurchaseGraph(uint64_t seed) {
  Xoshiro256 rng(seed);
  GraphBuilder builder(kNumUsers + kNumItems);
  for (NodeId user = 0; user < kNumUsers; ++user) {
    const int genre = user % kGenres;
    const int purchases = 5 + static_cast<int>(rng.UniformInt32(10));
    for (int p = 0; p < purchases; ++p) {
      NodeId item;
      if (rng.NextDouble() < 0.8) {
        // In-genre purchase: items [genre * 100, genre * 100 + 100).
        item = static_cast<NodeId>(genre * (kNumItems / kGenres) +
                                   rng.UniformInt32(kNumItems / kGenres));
      } else {
        item = rng.UniformInt32(kNumItems);  // exploration
      }
      builder.AddEdge(user, ItemNode(item));
      builder.AddEdge(ItemNode(item), user);
    }
  }
  auto built = builder.Build();
  return std::move(built).value();
}

int Genre(NodeId user) { return static_cast<int>(user % kGenres); }

}  // namespace

int main() {
  const Graph graph = MakePurchaseGraph(/*seed=*/7);
  std::cout << "purchase graph: " << kNumUsers << " users, " << kNumItems
            << " items, " << HumanCount(graph.num_edges()) << " edges\n";

  ThreadPool pool;
  IndexingOptions io;
  io.num_walkers = 200;
  auto cw = CloudWalker::Build(&graph, io, &pool);
  if (!cw.ok()) {
    std::cerr << cw.status().ToString() << "\n";
    return 1;
  }

  QueryOptions qo;
  qo.num_walkers = 5000;
  qo.prune_threshold = 0.0;  // small graph: no pruning needed

  // --- Similar items: SimRank vs plain co-purchase (co-citation). --------
  const NodeId probe_item = ItemNode(0);  // genre-0 item
  const QueryResponse similar_items =
      cw->Execute(QueryRequest::SourceTopK(probe_item, 8).WithOptions(qo));
  std::cout << "\nitems similar to item 0 (genre 0) by SimRank:\n";
  int simrank_in_genre = 0;
  for (const ScoredNode& sn : *similar_items.topk()) {
    if (sn.node < kNumUsers) continue;  // skip user nodes
    const NodeId item = sn.node - kNumUsers;
    const int genre = static_cast<int>(item / (kNumItems / kGenres));
    simrank_in_genre += (genre == 0);
    std::cout << "  item " << item << " (genre " << genre << ")  s = "
              << FormatDouble(sn.score, 4) << "\n";
  }

  const std::vector<double> cocite =
      CoCitationSingleSource(graph, probe_item);
  std::cout << "(co-citation finds direct co-purchases only; SimRank also "
               "propagates through\n similar users, recovering same-genre "
               "items two hops out: "
            << simrank_in_genre << " of the top items are in-genre)\n";

  // --- Recommend items to a user via similar users. -----------------------
  const NodeId user = 123;  // genre 123 % 5 = 3
  std::cout << "\nrecommendations for user " << user << " (genre "
            << Genre(user) << "): users most similar to them:\n";
  const QueryResponse similar_users =
      cw->Execute(QueryRequest::SourceTopK(user, 5).WithOptions(qo));
  int same_genre = 0;
  for (const ScoredNode& sn : *similar_users.topk()) {
    if (sn.node >= kNumUsers) continue;
    std::cout << "  user " << sn.node << " (genre " << Genre(sn.node)
              << ")  s = " << FormatDouble(sn.score, 4) << "\n";
    same_genre += (Genre(sn.node) == Genre(user));
  }
  std::cout << "similar users share the genre " << same_genre
            << " times out of the top matches — recommend their purchases.\n";
  return 0;
}
