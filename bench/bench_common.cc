#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/cloudwalker.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {
namespace bench {

double BenchScale() {
  const char* quick = std::getenv("CW_BENCH_QUICK");
  if (quick != nullptr && quick[0] == '1') return 0.05;
  const char* env = std::getenv("CW_BENCH_SCALE");
  if (env != nullptr) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) return s;
    std::fprintf(stderr, "ignoring invalid CW_BENCH_SCALE=%s\n", env);
  }
  return 0.5;
}

void PrintHeader(const std::string& title, const std::string& artifact) {
  std::cout << "==============================================================="
               "=\n"
            << title << "\n"
            << "Reproduces: " << artifact << "\n"
            << "Dataset scale: " << BenchScale()
            << " (CW_BENCH_SCALE to change; stand-ins are scaled R-MAT "
               "graphs,\n see DESIGN.md section 2)\n"
            << "==============================================================="
               "=\n";
  TablePrinter params({"Parameter", "Value", "Meaning"});
  params.AddRow({"c", "0.6", "decay factor of SimRank"});
  params.AddRow({"T", "10", "# of walk steps"});
  params.AddRow({"L", "3", "# of iterations in Jacobi method"});
  params.AddRow({"R", "100", "# of walkers in simulating a_i"});
  params.AddRow({"R'", "10000", "# of walkers in MCSP and MCSS"});
  params.RenderText(std::cout);
  std::cout << "\n";
}

IndexingOptions PaperIndexingOptions() {
  IndexingOptions o;  // defaults already match the paper
  o.seed = 2015;      // SoCC'15
  return o;
}

QueryOptions PaperQueryOptions() {
  QueryOptions q;  // defaults already match the paper
  q.seed = 2016;   // PVLDB'16
  return q;
}

CostModel SparkCostModel() {
  CostModel m = CostModel::Default();
  m.seconds_per_walk_step = 1.5e-6;
  m.seconds_per_edge_op = 3e-7;
  m.seconds_per_flop = 1.5e-7;
  return m;
}

ClusterConfig PaperClusterConfig(uint64_t uk_union_replica_bytes,
                                 uint64_t clue_web_replica_bytes) {
  ClusterConfig cfg;
  cfg.num_workers = 10;
  cfg.cores_per_worker = 16;
  cfg.worker_memory_bytes =
      (uk_union_replica_bytes + clue_web_replica_bytes) / 2;
  return cfg;
}

std::vector<PaperDatasetInstance> MakeAllDatasets(ThreadPool* pool) {
  std::vector<PaperDatasetInstance> out;
  const double scale = BenchScale();
  for (PaperDataset d : AllPaperDatasets()) {
    WallTimer timer;
    out.push_back(MakePaperDataset(d, /*seed=*/2015, scale, pool));
    std::fprintf(stderr, "[bench] generated %-13s |V|=%s |E|=%s in %s\n",
                 out.back().name.c_str(),
                 HumanCount(out.back().graph.num_nodes()).c_str(),
                 HumanCount(out.back().graph.num_edges()).c_str(),
                 HumanSeconds(timer.Seconds()).c_str());
  }
  return out;
}

uint64_t ReplicaBytes(const Graph& graph) {
  // Graph replica plus the diag(D) iterate and right-hand side.
  return graph.MemoryBytes() +
         static_cast<uint64_t>(graph.num_nodes()) * 2 * sizeof(double);
}

namespace {

// Removes `path` on every exit from MeasureSnapshotLoad, error returns
// included, so a failed run never leaves a large .cwk in the workspace.
struct RemoveFileOnExit {
  const std::string& path;
  ~RemoveFileOnExit() { std::remove(path.c_str()); }
};

}  // namespace

StatusOr<SnapshotLoadResult> MeasureSnapshotLoad(
    NodeId num_nodes, uint64_t num_edges, const IndexingOptions& options,
    ThreadPool* pool, const std::string& path) {
  const RemoveFileOnExit cleanup{path};
  SnapshotLoadResult r;
  Graph graph = GenerateRmat(num_nodes, num_edges, /*seed=*/2015);
  r.nodes = graph.num_nodes();
  r.edges = graph.num_edges();

  // Cold build: the work a process without a snapshot pays at startup —
  // Monte-Carlo index estimation.
  WallTimer build_timer;
  CW_ASSIGN_OR_RETURN(std::shared_ptr<const CloudWalker> built,
                      CloudWalker::Build(std::move(graph), options, pool));
  r.build_seconds = build_timer.Seconds();

  WallTimer write_timer;
  CW_RETURN_IF_ERROR(built->WriteSnapshot(path));
  r.write_seconds = write_timer.Seconds();

  WallTimer open_timer;
  CW_ASSIGN_OR_RETURN(std::shared_ptr<const CloudWalker> opened,
                      CloudWalker::Open(path));
  r.open_seconds = open_timer.Seconds();
  r.file_bytes = opened->snapshot()->file_bytes();

  WallTimer reopen_timer;
  CW_ASSIGN_OR_RETURN(std::shared_ptr<const CloudWalker> reopened,
                      CloudWalker::Open(path));
  r.reopen_seconds = reopen_timer.Seconds();

  // Probe: the zero-copy instance must answer exactly like its builder.
  QueryOptions probe;
  probe.num_walkers = 200;
  r.identical = true;
  for (uint64_t i = 0; i < 3; ++i) {
    const NodeId source =
        static_cast<NodeId>((i * 131 + 7) % r.nodes);
    const QueryRequest request =
        QueryRequest::SingleSource(source).WithOptions(probe);
    const QueryResponse a = built->Execute(request);
    const QueryResponse b = opened->Execute(request);
    if (!a.ok() || !b.ok() || a.scores()->entries() != b.scores()->entries()) {
      r.identical = false;
      break;
    }
  }
  return r;
}

}  // namespace bench
}  // namespace cloudwalker
