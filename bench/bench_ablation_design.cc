// Ablations for the design choices DESIGN.md calls out (not in the paper's
// figures, but direct tests of its design arguments):
//
//   1. CACHE POLICY    — the paper picks LRU "because it favors recent
//                        queries, which performs well with smart routing";
//                        compare LRU / FIFO / LFU / CLOCK under a
//                        capacity-constrained cache.
//   2. QUERY STEALING  — Requirement 2's throughput-vs-locality trade:
//                        stealing on/off for both smart schemes.
//   3. STORAGE PARTITIONING — the headline claim: with smart routing, the
//                        storage tier's partitioning scheme barely matters
//                        (hash vs METIS-like multilevel vs range), whereas
//                        the coupled baseline lives and dies by it.

#include "bench/bench_common.h"

namespace grouting {
namespace bench {
namespace {

ExperimentEnv& Env() {
  static ExperimentEnv env(DatasetId::kWebGraphLike, BenchScale());
  return env;
}

std::vector<ResultRow>& PolicyRows() {
  static std::vector<ResultRow> rows;
  return rows;
}
std::vector<ResultRow>& StealRows() {
  static std::vector<ResultRow> rows;
  return rows;
}
std::vector<ResultRow>& PartitionRows() {
  static std::vector<ResultRow> rows;
  return rows;
}

void BM_CachePolicy(benchmark::State& state) {
  static const CachePolicy kPolicies[] = {CachePolicy::kLru, CachePolicy::kFifo,
                                          CachePolicy::kLfu, CachePolicy::kClock};
  const CachePolicy policy = kPolicies[static_cast<size_t>(state.range(0))];
  RunOptions opts;
  opts.num_hotspots = ScaledHotspots();
  opts.scheme = RoutingSchemeKind::kEmbed;
  opts.cluster.processor.cache_policy = policy;
  // Constrain capacity to 1/16 of the working set so eviction policy matters.
  opts.cluster.processor.cache_bytes = Env().graph().TotalAdjacencyBytes() / 16;
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m);
  PolicyRows().push_back({"embed + " + CachePolicyName(policy) + " (1/16 capacity)", m});
}

void BM_Stealing(benchmark::State& state) {
  static const RoutingSchemeKind kSchemes[] = {RoutingSchemeKind::kEmbed,
                                               RoutingSchemeKind::kLandmark};
  const auto scheme = kSchemes[static_cast<size_t>(state.range(0))];
  const bool stealing = state.range(1) != 0;
  RunOptions opts;
  opts.num_hotspots = ScaledHotspots();
  opts.scheme = scheme;
  opts.cluster.enable_stealing = stealing;
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m);
  StealRows().push_back({RoutingSchemeKindName(scheme) +
                             (stealing ? " stealing=on" : " stealing=off"),
                         m});
}

void BM_StoragePartitioning(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const Graph& g = Env().graph();
  auto queries = Env().HotspotWorkload(/*r=*/2, /*h=*/2, ScaledHotspots());

  PartitionAssignment placement;
  std::string label;
  switch (which) {
    case 0:
      placement = HashPartitioner().Partition(g, PaperDefaults::kStorageServers);
      label = "embed + hash storage partitioning";
      break;
    case 1:
      placement = MultilevelPartitioner().Partition(g, PaperDefaults::kStorageServers);
      label = "embed + multilevel (METIS-like) storage partitioning";
      break;
    default:
      placement = RangePartitioner().Partition(g, PaperDefaults::kStorageServers);
      label = "embed + range storage partitioning";
      break;
  }

  RunOptions opts;
  opts.scheme = RoutingSchemeKind::kEmbed;
  ClusterMetrics m;
  for (auto _ : state) {
    auto engine = MakeClusterEngine(BenchEngine(), g, Env().MakeClusterConfig(opts),
                                    Env().MakeStrategy(opts), &placement);
    m = engine->Run(queries);
  }
  SetCounters(state, m);
  PartitionRows().push_back({label, m});
}

BENCHMARK(BM_CachePolicy)->DenseRange(0, 3, 1)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Stealing)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StoragePartitioning)
    ->DenseRange(0, 2, 1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace grouting

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  grouting::bench::PrintMetricsTable("Ablation 1: cache eviction policy (constrained cache)",
                                     grouting::bench::PolicyRows());
  grouting::bench::PrintPaperShape(
      "LRU favours the recent queries smart routing groups together; FIFO/CLOCK trail, "
      "LFU can pin stale hubs.");
  grouting::bench::PrintMetricsTable("Ablation 2: query stealing on/off",
                                     grouting::bench::StealRows());
  grouting::bench::PrintPaperShape(
      "stealing trades a few points of hit rate for balance; net throughput is higher "
      "with stealing on (Requirement 2).");
  grouting::bench::PrintMetricsTable("Ablation 3: storage-tier partitioning under smart routing",
                                     grouting::bench::PartitionRows());
  grouting::bench::PrintPaperShape(
      "with embed routing the storage partitioning scheme barely moves the needle — "
      "the paper's core argument for skipping expensive partitioning.");
  grouting::bench::WriteBenchJson("ablation_design",
                                  {{"cache_policy", &grouting::bench::PolicyRows()},
                                   {"stealing", &grouting::bench::StealRows()},
                                   {"partitioning", &grouting::bench::PartitionRows()}});
  return 0;
}
