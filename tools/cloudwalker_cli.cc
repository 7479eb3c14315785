// cloudwalker — command-line front end for the library.
//
//   cloudwalker generate --type=rmat --nodes=100000
//       --edges=1500000 --seed=1 --out=web.graph
//   cloudwalker stats    --graph=web.graph
//   cloudwalker index    --graph=web.graph --snapshot-out=web.cwk
//       [--walkers=100] [--steps=10] [--decay=0.6] [--iterations=3]
//       [--regenerate]
//   cloudwalker pair     --snapshot=web.cwk --i=1 --j=2
//   cloudwalker source   --snapshot=web.cwk --node=1 [--topk=10]
//   cloudwalker ppr      --snapshot=web.cwk --node=1 [--topk=10]
//       [--alpha=0.85]
//   cloudwalker n2v      --snapshot=web.cwk --node=1 [--topk=10]
//       [--p=1] [--q=1]
//   cloudwalker serve    --snapshot=web.cwk [--reload-on=sighup]
//       [--workload=reqs.txt | --requests=1000 --skew=zipf
//        --ppr-frac=0.1 --n2v-frac=0.1]
//       [--deadline-ms=50] [--max-queue=4096]
//
// The query commands take --snapshot=PATH, a cloudwalker-snap artifact
// written by `index --snapshot-out` and mmap-opened in milliseconds.
// `serve --reload-on=sighup` re-opens the snapshot and hot-swaps it into
// the running service when the process receives SIGHUP — the operator's
// zero-downtime reload.
//
// Graphs are loaded from the binary graph format (SaveGraphBinary) or,
// when the path ends in .txt, from a whitespace edge list. `--threads=N`
// sizes the worker pool of the parallel commands (generate, index, serve);
// 0 or absent selects the hardware concurrency.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "common/version.h"
#include "core/cloudwalker.h"
#include "engine/parallel_walk.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "net/remote_backend.h"
#include "net/wire.h"
#include "ooc/ooc_backend.h"
#include "ooc/reorder.h"
#include "serve/query_service.h"
#include "serve/workload.h"
#include "shard/sharding.h"
#include "snapshot/snapshot.h"

using namespace cloudwalker;

namespace {

// Minimal --key=value parser; bare "--flag" stores "true".
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int a = first; a < argc; ++a) {
    std::string arg = argv[a];
    if (!StartsWith(arg, "--")) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg] = "true";
    } else {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string GetFlag(const std::map<std::string, std::string>& flags,
                    const std::string& key, const std::string& def = "") {
  auto it = flags.find(key);
  return it == flags.end() ? def : it->second;
}

// Non-negative integer flag. std::stoull alone would accept "-1" by
// wrapping to 2^64-1; reject it (and any other malformed value) with a
// diagnostic naming the flag, surfaced by the handler in main.
uint64_t ParseU64(const std::map<std::string, std::string>& flags,
                  const std::string& key, const std::string& def) {
  const std::string v = GetFlag(flags, key, def);
  size_t used = 0;
  uint64_t out = 0;
  try {
    if (v.empty() || v[0] == '-') throw std::invalid_argument(v);
    out = std::stoull(v, &used);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("--" + key + "=" + v +
                                " is not a non-negative integer");
  }
  if (used != v.size()) {
    throw std::invalid_argument("--" + key + "=" + v +
                                " is not a non-negative integer");
  }
  return out;
}

// Worker-pool size from --threads (0 / absent = hardware concurrency).
// std::stoi so malformed values reach the invalid-flag handler in main.
int GetThreads(const std::map<std::string, std::string>& flags) {
  return std::stoi(GetFlag(flags, "threads", "0"));
}

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

StatusOr<Graph> LoadGraph(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".txt") {
    return LoadEdgeListText(path);
  }
  Graph g;
  CW_RETURN_IF_ERROR(LoadGraphBinary(path, &g));
  return g;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const std::string type = GetFlag(flags, "type", "rmat");
  const NodeId nodes =
      static_cast<NodeId>(ParseU64(flags, "nodes", "100000"));
  const uint64_t edges =
      ParseU64(flags, "edges", std::to_string(nodes * 15ull));
  const uint64_t seed = ParseU64(flags, "seed", "1");
  const std::string out = GetFlag(flags, "out");
  if (out.empty()) return Fail("generate requires --out=PATH");

  ThreadPool pool(GetThreads(flags));
  Graph graph;
  if (type == "rmat") {
    graph = GenerateRmat(nodes, edges, seed, RmatOptions(), &pool);
  } else if (type == "er") {
    graph = GenerateErdosRenyi(nodes, edges, seed);
  } else if (type == "ba") {
    graph = GenerateBarabasiAlbert(
        nodes, static_cast<uint32_t>(ParseU64(flags, "attach", "8")), seed);
  } else {
    return Fail("unknown --type (rmat | er | ba)");
  }
  const Status s = SaveGraphBinary(graph, out);
  if (!s.ok()) return Fail(s.ToString());
  std::cout << "wrote " << out << ": " << HumanCount(graph.num_nodes())
            << " nodes, " << HumanCount(graph.num_edges()) << " edges\n";
  return 0;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  auto graph = LoadGraph(GetFlag(flags, "graph"));
  if (!graph.ok()) return Fail(graph.status().ToString());
  const DegreeStats s = ComputeDegreeStats(*graph);
  std::cout << "nodes:        " << HumanCount(s.num_nodes) << "\n"
            << "edges:        " << HumanCount(s.num_edges) << "\n"
            << "avg degree:   " << FormatDouble(s.avg_degree, 2) << "\n"
            << "max in-deg:   " << HumanCount(s.max_in_degree) << "\n"
            << "max out-deg:  " << HumanCount(s.max_out_degree) << "\n"
            << "dangling in:  " << HumanCount(s.dangling_in) << "\n"
            << "dangling out: " << HumanCount(s.dangling_out) << "\n"
            << "CSR memory:   " << HumanBytes(graph->MemoryBytes()) << "\n";
  return 0;
}

int CmdIndex(const std::map<std::string, std::string>& flags) {
  auto graph = LoadGraph(GetFlag(flags, "graph"));
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::string snapshot_out = GetFlag(flags, "snapshot-out");
  if (snapshot_out.empty()) {
    return Fail("index requires --snapshot-out=PATH");
  }

  IndexingOptions o;
  o.num_walkers =
      static_cast<uint32_t>(ParseU64(flags, "walkers", "100"));
  o.params.num_steps =
      static_cast<uint32_t>(ParseU64(flags, "steps", "10"));
  o.params.decay = std::stod(GetFlag(flags, "decay", "0.6"));
  o.jacobi_iterations = static_cast<uint32_t>(
      ParseU64(flags, "iterations", "3"));
  o.seed = ParseU64(flags, "seed", "1");
  if (GetFlag(flags, "regenerate") == "true") {
    o.row_mode = RowMode::kRegenerate;
  }

  ThreadPool pool(GetThreads(flags));
  auto cw = CloudWalker::Build(&*graph, o, &pool);
  if (!cw.ok()) return Fail(cw.status().ToString());
  const IndexingStats& stats = cw->indexing_stats();
  std::cout << "indexed " << HumanCount(graph->num_nodes()) << " nodes ("
            << HumanCount(stats.walk_steps) << " walk steps, "
            << HumanSeconds(stats.walk_seconds + stats.solve_seconds)
            << ")";
  // --reorder=degree|bfs renumbers the graph for walk locality before
  // writing (the permutation rides in the snapshot; queries against the
  // reopened artifact still speak the original ids).
  const std::string reorder = GetFlag(flags, "reorder", "none");
  auto kind = ParseReorderKind(reorder);
  if (!kind.ok()) return Fail(kind.status().ToString());
  const Status s = cw->WriteReorderedSnapshot(snapshot_out, *kind);
  if (!s.ok()) return Fail(s.ToString());
  std::cout << "; wrote snapshot " << snapshot_out;
  if (*kind != ReorderKind::kNone) {
    std::cout << " (locality reorder: " << reorder << ")";
  }
  std::cout << "\n";
  return 0;
}

// --shards=N on a query/serve command routes the walk phases through the
// in-process sharded engine (DESIGN.md section 11); --walk-threads=N
// through the multi-threaded walk executor (DESIGN.md section 12) — or,
// combined with --shards, it sizes the sharded engine's superstep pool
// instead. Answers stay bit-identical to single-threaded single-node
// either way. Empty / absent means no wrapping.
StatusOr<std::shared_ptr<const CloudWalker>> MaybeWrapEngine(
    std::shared_ptr<const CloudWalker> engine,
    const std::map<std::string, std::string>& flags) {
  const std::string shards = GetFlag(flags, "shards");
  const std::string walk_threads = GetFlag(flags, "walk-threads");
  const std::string workers = GetFlag(flags, "workers");
  if (!workers.empty()) {
    // --workers=host:port,... routes the walk phases through the
    // socket-connected shard workers (DESIGN.md section 13). Exclusive
    // with the in-process wrappers: exactly one backend serves a query.
    if (!shards.empty() || !walk_threads.empty()) {
      return Status::InvalidArgument(
          "--workers is mutually exclusive with --shards / --walk-threads");
    }
    RemoteBackendOptions options;
    CW_ASSIGN_OR_RETURN(options.workers, ParseWorkerList(workers));
    return CloudWalker::Distribute(engine, options);
  }
  if (!shards.empty()) {
    ShardingOptions options;
    options.num_shards = std::stoi(shards);
    if (!walk_threads.empty()) {
      options.num_threads = std::stoi(walk_threads);
    }
    return CloudWalker::Shard(engine, options);
  }
  if (!walk_threads.empty()) {
    ParallelWalkOptions options;
    options.num_threads = std::stoi(walk_threads);
    return CloudWalker::Parallelize(engine, options);
  }
  return engine;
}

// The query commands' engine: the --snapshot artifact, mmap-opened and
// optionally wrapped by --shards=N / --walk-threads=N / --workers, or
// opened out of core under --ooc-budget-mb=N. `serve --reload-on=sighup`
// calls it again, so a reload serves through the same engine shape.
StatusOr<std::shared_ptr<const CloudWalker>> LoadEngine(
    const std::map<std::string, std::string>& flags) {
  const std::string snapshot = GetFlag(flags, "snapshot");
  if (snapshot.empty()) {
    return Status::InvalidArgument("pass --snapshot=PATH");
  }
  if (!GetFlag(flags, "ooc-budget-mb").empty()) {
    // --ooc-budget-mb=N: demand-paged open under a hard block-cache
    // budget (DESIGN.md section 14). Exclusive with the other walk
    // backends — an out-of-core engine carries its own scheduler.
    if (!GetFlag(flags, "shards").empty() ||
        !GetFlag(flags, "walk-threads").empty() ||
        !GetFlag(flags, "workers").empty()) {
      return Status::InvalidArgument(
          "--ooc-budget-mb is mutually exclusive with --shards / "
          "--walk-threads / --workers");
    }
    OutOfCoreOptions options;
    options.budget_bytes = ParseU64(flags, "ooc-budget-mb", "64") << 20;
    return CloudWalker::OutOfCore(snapshot, options);
  }
  CW_ASSIGN_OR_RETURN(auto opened, CloudWalker::Open(snapshot));
  return MaybeWrapEngine(std::move(opened), flags);
}

QueryOptions QueryFlags(const std::map<std::string, std::string>& flags) {
  QueryOptions q;
  q.num_walkers =
      static_cast<uint32_t>(ParseU64(flags, "walkers", "10000"));
  q.seed = ParseU64(flags, "seed", "97");
  if (GetFlag(flags, "exact-push") == "true") q.prune_threshold = 0.0;
  q.ppr_alpha = std::stod(GetFlag(flags, "alpha", "0.85"));
  q.n2v_return_p = std::stod(GetFlag(flags, "p", "1"));
  q.n2v_in_out_q = std::stod(GetFlag(flags, "q", "1"));
  // Centralized validation (core/options.h): the CLI rejects bad query
  // options with exactly the message the facade and QueryService would
  // use, surfaced by the invalid-flag handler in main.
  const Status valid = ValidateQueryOptions(q);
  if (!valid.ok()) throw std::invalid_argument(valid.message());
  return q;
}

// pair, source, ppr and n2v: one request of `kind` — (--i, --j) for
// pair, the top-k around --node otherwise.
int CmdQuery(const std::map<std::string, std::string>& flags, QueryKind kind) {
  auto cw = LoadEngine(flags);
  if (!cw.ok()) return Fail(cw.status().ToString());
  QueryRequest request;
  request.kind = kind;
  if (kind == QueryKind::kPair) {
    request.a = static_cast<NodeId>(ParseU64(flags, "i", "0"));
    request.b = static_cast<NodeId>(ParseU64(flags, "j", "0"));
  } else {
    request.a = static_cast<NodeId>(ParseU64(flags, "node", "0"));
    request.k = static_cast<uint32_t>(ParseU64(flags, "topk", "10"));
  }
  const QueryResponse r =
      (*cw)->Execute(request.WithOptions(QueryFlags(flags)));
  if (!r.ok()) return Fail(r.status.ToString());
  if (kind == QueryKind::kPair) {
    std::cout << "s(" << request.a << ", " << request.b << ") = "
              << FormatDouble(r.score(), 6) << "\n";
    return 0;
  }
  for (const ScoredNode& sn : *r.topk()) {
    std::cout << sn.node << "\t" << FormatDouble(sn.score, 6) << "\n";
  }
  return 0;
}

// `snapshot-info FILE`: render the artifact's section directory. Built on
// InspectSnapshot, which is diagnostic-grade — CRC mismatches are reported
// per section instead of failing the open, so a damaged artifact can still
// be examined. Exit 0 only when every checksum verifies.
int CmdSnapshotInfo(const std::string& path) {
  if (path.empty()) {
    return Fail("snapshot-info requires a snapshot path "
                "(snapshot-info FILE or --snapshot=PATH)");
  }
  auto info = InspectSnapshot(path);
  if (!info.ok()) return Fail(info.status().ToString());
  std::cout << path << ": cloudwalker-snap-v" << info->format_version
            << ", " << HumanCount(info->num_nodes) << " nodes, "
            << HumanCount(info->num_edges) << " edges, "
            << HumanBytes(info->file_bytes) << "\n"
            << "header+directory crc: "
            << (info->header_crc_ok ? "ok" : "BAD") << "\n"
            << "block index:          ";
  if (info->has_block_index) {
    std::cout << "present (" << HumanCount(info->block_count)
              << " blocks)\n";
  } else {
    std::cout << "absent (pre-out-of-core format; OutOfCore() opens fall "
                 "back to whole-file residency)\n";
  }
  std::cout << "permutation:          "
            << (info->has_permutation ? "present (locality-reordered)"
                                      : "absent")
            << "\n"
            << "sections (" << info->num_sections << "):\n";
  size_t bad = info->header_crc_ok ? 0 : 1;
  for (const SnapshotSectionInfo& s : info->sections) {
    std::cout << "  [" << s.id << "] " << s.name;
    for (size_t pad = s.name.size(); pad < 14; ++pad) std::cout << ' ';
    std::cout << " offset " << s.offset << ", " << HumanBytes(s.length)
              << ", elem " << s.elem_size << "B, crc "
              << (s.crc_ok ? "ok" : "BAD") << "\n";
    if (!s.crc_ok) ++bad;
  }
  if (bad != 0) {
    return Fail(std::to_string(bad) + " checksum(s) failed verification");
  }
  return 0;
}

// SIGHUP flag for `serve --reload-on=sighup` (write of one atomic is all
// a signal handler may do; the watcher thread does the real work).
std::atomic<bool> g_sighup{false};

void OnSighup(int) { g_sighup.store(true, std::memory_order_relaxed); }

int CmdServe(const std::map<std::string, std::string>& flags) {
  auto cw = LoadEngine(flags);
  if (!cw.ok()) return Fail(cw.status().ToString());
  const std::shared_ptr<const CloudWalker>& engine = *cw;
  const Graph& graph = engine->graph();

  // Obtain the request stream: replay a file or generate one.
  std::vector<QueryRequest> requests;
  const std::string workload_path = GetFlag(flags, "workload");
  if (!workload_path.empty()) {
    auto loaded = LoadWorkloadText(workload_path);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    requests = std::move(loaded).value();
  } else {
    WorkloadSpec spec;
    spec.num_requests = ParseU64(flags, "requests", "1000");
    spec.pair_fraction = std::stod(GetFlag(flags, "pair-frac", "0.2"));
    spec.source_fraction = std::stod(GetFlag(flags, "source-frac", "0"));
    spec.ppr_fraction = std::stod(GetFlag(flags, "ppr-frac", "0"));
    spec.n2v_fraction = std::stod(GetFlag(flags, "n2v-frac", "0"));
    spec.topk =
        static_cast<uint32_t>(ParseU64(flags, "topk", "10"));
    const std::string skew = GetFlag(flags, "skew", "zipf");
    if (skew == "zipf") {
      spec.skew = WorkloadSkew::kZipf;
    } else if (skew == "uniform") {
      spec.skew = WorkloadSkew::kUniform;
    } else {
      return Fail("unknown --skew (zipf | uniform)");
    }
    spec.zipf_theta = std::stod(GetFlag(flags, "theta", "0.99"));
    spec.seed = ParseU64(flags, "wseed", "42");
    auto generated = GenerateWorkload(graph.num_nodes(), spec);
    if (!generated.ok()) return Fail(generated.status().ToString());
    requests = std::move(generated).value();
  }
  const std::string save_path = GetFlag(flags, "save-workload");
  if (!save_path.empty()) {
    const Status s = SaveWorkloadText(requests, save_path);
    if (!s.ok()) return Fail(s.ToString());
    std::cout << "saved workload (" << requests.size() << " requests) to "
              << save_path << "\n";
  }

  ServeOptions options;
  options.cache_capacity = ParseU64(flags, "cache", "16384");
  options.cache_shards = std::stoi(GetFlag(flags, "cache-shards", "8"));
  options.dedup_in_flight = GetFlag(flags, "no-dedup") != "true";
  options.max_queue_depth = ParseU64(flags, "max-queue", "4096");
  options.query = QueryFlags(flags);

  // Optional per-request deadline, applied uniformly to the stream.
  const double deadline_seconds =
      static_cast<double>(ParseU64(flags, "deadline-ms", "0")) / 1e3;
  if (deadline_seconds > 0.0) {
    for (QueryRequest& r : requests) r.timeout_seconds = deadline_seconds;
  }

  // --reload-on=sighup: a watcher thread re-opens the snapshot artifact
  // and hot-swaps it into the service whenever SIGHUP arrives — traffic
  // keeps flowing through the swap (DESIGN.md section 9).
  const std::string reload_on = GetFlag(flags, "reload-on");
  const std::string snapshot_path = GetFlag(flags, "snapshot");
  if (!reload_on.empty()) {
    if (reload_on != "sighup" && reload_on != "SIGHUP") {
      return Fail("unknown --reload-on (sighup)");
    }
    std::signal(SIGHUP, OnSighup);
  }

  ThreadPool pool(GetThreads(flags));
  QueryService service(engine, options, &pool);

  std::atomic<bool> replay_done{false};
  uint64_t reloads = 0;
  std::thread reload_watcher;
  if (!reload_on.empty()) {
    reload_watcher = std::thread([&] {
      while (!replay_done.load(std::memory_order_relaxed)) {
        if (g_sighup.exchange(false, std::memory_order_relaxed)) {
          auto reopened = LoadEngine(flags);
          if (!reopened.ok()) {
            std::cerr << "reload failed: " << reopened.status().ToString()
                      << "\n";
          } else {
            const auto previous = service.CurrentSnapshot();
            if (auto epoch = service.Publish(*reopened); epoch.ok()) {
              ++reloads;
              // Retire the superseded version so a long-running server
              // holds at most two engines (in-flight pins keep the old
              // one alive until its last request completes).
              (void)service.registry().Retire(previous->version);
              std::cerr << "reloaded " << snapshot_path << " as v"
                        << service.Stats().snapshot_version << " (epoch "
                        << *epoch << ")\n";
            }
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }

  service.ExecuteBatch(requests);
  replay_done.store(true, std::memory_order_relaxed);
  if (reload_watcher.joinable()) reload_watcher.join();

  const ServeStats stats = service.Stats();
  std::cout << "served " << stats.total_queries() << " requests ("
            << stats.pair_queries << " pair, " << stats.source_queries
            << " source, " << stats.topk_queries << " topk, "
            << stats.ppr_queries << " ppr, " << stats.n2v_queries
            << " n2v, " << stats.errors
            << " errors) on " << pool.num_threads()
            << " threads in " << HumanSeconds(stats.elapsed_seconds) << "\n"
            << "throughput:     " << FormatDouble(stats.qps, 1) << " QPS\n"
            << "latency:        p50 " << FormatDouble(stats.p50_ms, 2)
            << "ms  p95 " << FormatDouble(stats.p95_ms, 2) << "ms  p99 "
            << FormatDouble(stats.p99_ms, 2) << "ms\n"
            << "cache:          "
            << FormatDouble(100.0 * stats.CacheHitRate(), 1) << "% hit rate ("
            << stats.cache_hits << " hits, " << stats.cache_misses
            << " misses, " << stats.cache_evictions << " evictions, "
            << stats.cache_entries << " resident)\n"
            << "dedup:          " << stats.dedup_shared
            << " requests joined an in-flight computation\n"
            << "admission:      " << stats.deadline_exceeded
            << " deadline-exceeded, " << stats.cancelled << " cancelled, "
            << stats.rejected << " rejected\n"
            << "kernel runs:    " << stats.computed << "\n"
            << "engine:         v" << stats.snapshot_version << " (epoch "
            << stats.snapshot_epoch << ", " << reloads << " live reloads)\n";
  const uint64_t hard_errors = stats.errors - stats.deadline_exceeded -
                               stats.cancelled - stats.rejected;
  if (hard_errors != 0) {
    return Fail(std::to_string(hard_errors) +
                " of " + std::to_string(stats.total_queries()) +
                " requests failed (out-of-range nodes in the workload?)");
  }
  return 0;
}

void Usage() {
  std::cout <<
      "cloudwalker <command> [--flags]\n"
      "\n"
      "commands:\n"
      "  generate  Write a synthetic graph snapshot.\n"
      "            --out=PATH (required), --type=rmat|er|ba (rmat),\n"
      "            --nodes=N (100000), --edges=M (15*nodes), --seed=S (1),\n"
      "            --attach=K (8, ba only), --threads=N\n"
      "  stats     Print degree/memory statistics of a graph.\n"
      "            --graph=PATH (required)\n"
      "  index     Run offline indexing (estimate diag(D)) and persist.\n"
      "            --graph=PATH plus --snapshot-out=PATH (the snapshot,\n"
      "            mmap-loadable with --snapshot below); --walkers=R (100),\n"
      "            --steps=T (10), --decay=c (0.6), --iterations=L (3),\n"
      "            --seed=S (1), --regenerate (row regeneration mode),\n"
      "            --reorder=none|degree|bfs (none) renumbers the graph\n"
      "            for walk locality before writing the snapshot (the\n"
      "            permutation rides in the artifact; queries still\n"
      "            speak the original ids), --threads=N\n"
      "  snapshot-info  Print a snapshot's section directory: names,\n"
      "            offsets, sizes, per-section CRC verification, block\n"
      "            index and permutation presence.\n"
      "            snapshot-info FILE (or --snapshot=PATH)\n"
      "  pair      MCSP: estimate s(i, j).\n"
      "            --snapshot=PATH;\n"
      "            --i=A --j=B (0), --walkers=R' (10000), --seed=S (97),\n"
      "            --exact-push, --shards=N, --walk-threads=N,\n"
      "            --ooc-budget-mb=N\n"
      "  source    MCSS: the k nodes most similar to one node.\n"
      "            --snapshot=PATH;\n"
      "            --node=Q (0), --topk=K (10), --walkers=R' (10000),\n"
      "            --seed=S (97), --exact-push (the exact push unpruned,\n"
      "            not pruned at the default 0.03 of the source's\n"
      "            largest walk term), --shards=N,\n"
      "            --walk-threads=N, --ooc-budget-mb=N\n"
      "  ppr       Personalized PageRank: top-k by teleport-walk endpoint\n"
      "            frequency around one node.\n"
      "            --snapshot=PATH;\n"
      "            --node=Q (0), --topk=K (10), --alpha=A (0.85),\n"
      "            --walkers=R' (10000), --seed=S (97), --shards=N,\n"
      "            --walk-threads=N, --ooc-budget-mb=N\n"
      "  n2v       node2vec: top-k by second-order biased-walk visit\n"
      "            frequency around one node.\n"
      "            --snapshot=PATH;\n"
      "            --node=Q (0), --topk=K (10), --p=P (1), --q=Q (1),\n"
      "            --walkers=R' (10000), --seed=S (97), --shards=N,\n"
      "            --walk-threads=N, --ooc-budget-mb=N\n"
      "  serve     Replay a request workload through the concurrent\n"
      "            QueryService and report QPS / latency / cache stats.\n"
      "            --snapshot=PATH;\n"
      "            --reload-on=sighup re-opens --snapshot and hot-swaps\n"
      "            it into the running service on SIGHUP;\n"
      "            workload: --workload=PATH to replay a file, else\n"
      "            generated from --requests=N (1000), --skew=zipf|uniform\n"
      "            (zipf), --theta=T (0.99), --pair-frac=F (0.2),\n"
      "            --source-frac=F (0), --ppr-frac=F (0), --n2v-frac=F (0),\n"
      "            --topk=K (10), --wseed=S (42);\n"
      "            --save-workload=PATH writes the generated stream;\n"
      "            serving: --threads=N (hardware), --cache=ENTRIES\n"
      "            (16384, 0 disables), --cache-shards=S (8), --no-dedup,\n"
      "            --max-queue=N (4096, 0 unbounded), --deadline-ms=D\n"
      "            (0 = none, applied per request),\n"
      "            --walkers=R' (10000), --seed=S (97), --exact-push,\n"
      "            --alpha=A (0.85), --p=P (1), --q=Q (1),\n"
      "            --walk-threads=N, --ooc-budget-mb=N\n"
      "\n"
      "  version   Print build info and the wire-protocol version\n"
      "            (also --version).\n"
      "\n"
      "--shards=N on pair/source/ppr/n2v/serve runs the walk phases on\n"
      "the in-process sharded engine (N shard slices, BSP walker\n"
      "exchange); answers are bit-identical to single-node.\n"
      "--workers=HOST:PORT,... runs the walk phases on socket-connected\n"
      "cloudwalker_shard_worker processes serving the same --snapshot\n"
      "(each walk's walkers split into one range per worker; exclusive\n"
      "with --shards and --walk-threads); answers are bit-identical to\n"
      "single-node.\n"
      "--walk-threads=N runs each query's walk phase on N worker threads\n"
      "(0 = hardware concurrency; with --shards it sizes the sharded\n"
      "engine's superstep pool instead); answers are bit-identical to\n"
      "single-threaded execution at every N.\n"
      "--ooc-budget-mb=N on pair/source/ppr/n2v/serve opens --snapshot\n"
      "out of core: only the per-node arrays become resident and the\n"
      "per-edge walk arrays page in through a block cache capped at N\n"
      "MiB, so an artifact larger than RAM still serves every query\n"
      "kind; answers are bit-identical to the in-memory open (exclusive\n"
      "with --shards / --walk-threads / --workers).\n"
      "  help      Show this message (also --help).\n"
      "\n"
      "--threads=N sizes the worker pool (0 = hardware concurrency).\n"
      "graph paths ending in .txt are parsed as 'from to' edge lists.\n"
      "workload files are text: one 'pair I J', 'topk Q K', 'source Q',\n"
      "'ppr Q K', or 'n2v Q K' per line.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    Usage();
    return 0;
  }
  if (cmd == "version" || cmd == "--version") {
    std::cout << BuildInfoString("cloudwalker_cli") << "\n"
              << "wire protocol: " << kNetProtocolName << " (v"
              << kNetProtocolVersion << ")\n";
    return 0;
  }
  const auto flags = ParseFlags(argc, argv, 2);
  // Numeric flags parse with std::stoull/std::stod, which throw on
  // malformed values ("--requests=abc", bare "--cache"); keep the
  // "error: ... / exit 1" contract instead of aborting.
  try {
    if (cmd == "generate") return CmdGenerate(flags);
    if (cmd == "stats") return CmdStats(flags);
    if (cmd == "index") return CmdIndex(flags);
    if (cmd == "snapshot-info") {
      // Positional path (first non-flag argument) or --snapshot=PATH.
      std::string path = GetFlag(flags, "snapshot");
      for (int a = 2; a < argc && path.empty(); ++a) {
        if (!StartsWith(argv[a], "--")) path = argv[a];
      }
      return CmdSnapshotInfo(path);
    }
    if (cmd == "pair") return CmdQuery(flags, QueryKind::kPair);
    if (cmd == "source") return CmdQuery(flags, QueryKind::kSourceTopK);
    if (cmd == "ppr") return CmdQuery(flags, QueryKind::kPersonalizedPageRank);
    if (cmd == "n2v") return CmdQuery(flags, QueryKind::kNode2Vec);
    if (cmd == "serve") return CmdServe(flags);
  } catch (const std::invalid_argument& e) {
    return Fail(std::string("invalid flag value (") + e.what() +
                "); see 'cloudwalker_cli --help'");
  } catch (const std::out_of_range& e) {
    return Fail(std::string("flag value out of range (") + e.what() +
                "); see 'cloudwalker_cli --help'");
  } catch (const std::exception& e) {
    return Fail(e.what());
  }
  Usage();
  return 1;
}
