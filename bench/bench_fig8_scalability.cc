// Figure 8: deployment-flexibility scaling on the webgraph-like dataset.
//   (a) throughput vs number of query processors (1..7, 4 storage servers)
//   (b) cache hits vs number of query processors
//   (c) throughput vs number of storage servers (1..7, 4 processors)
//
// Paper: Embed sustains its cache-hit count as processors are added and
// scales near-linearly; baselines' hits decay and their throughput
// saturates at 3-5 processors. Storage-tier scaling saturates at ~4 servers
// (the bottleneck moves back to the processors).

#include "bench/bench_common.h"

namespace grouting {
namespace bench {
namespace {

ExperimentEnv& Env() {
  static ExperimentEnv env(DatasetId::kWebGraphLike, BenchScale());
  return env;
}

std::vector<ResultRow>& ProcRows() {
  static std::vector<ResultRow> rows;
  return rows;
}
std::vector<ResultRow>& StorageRows() {
  static std::vector<ResultRow> rows;
  return rows;
}

void BM_Fig8a_Processors(benchmark::State& state) {
  const auto scheme = AllSchemes()[static_cast<size_t>(state.range(0))];
  const auto procs = static_cast<uint32_t>(state.range(1));
  RunOptions opts;
  opts.num_hotspots = ScaledHotspots();
  opts.scheme = scheme;
  opts.cluster.num_processors = procs;
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m);
  ProcRows().push_back(
      {RoutingSchemeKindName(scheme) + " P=" + std::to_string(procs), m});
}

void BM_Fig8c_StorageServers(benchmark::State& state) {
  const auto scheme = AllSchemes()[static_cast<size_t>(state.range(0))];
  const auto servers = static_cast<uint32_t>(state.range(1));
  RunOptions opts;
  opts.num_hotspots = ScaledHotspots();
  opts.scheme = scheme;
  opts.cluster.num_processors = 4;
  opts.cluster.num_storage_servers = servers;
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m);
  StorageRows().push_back(
      {RoutingSchemeKindName(scheme) + " M=" + std::to_string(servers), m});
}

BENCHMARK(BM_Fig8a_Processors)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1, 2, 3, 4, 5, 6, 7}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Fig8c_StorageServers)
    ->ArgsProduct({{0, 2, 4}, {1, 2, 3, 4, 5, 6, 7}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace grouting

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  grouting::bench::PrintMetricsTable("Figure 8(a,b): vary query processors (4 storage servers)",
                                     grouting::bench::ProcRows());
  grouting::bench::PrintPaperShape(
      "embed/landmark sustain cache hits (and scale throughput) to 7 processors; "
      "next_ready/hash hit counts decay and throughput flattens by 3-5 processors.");
  grouting::bench::PrintMetricsTable("Figure 8(c): vary storage servers (4 processors)",
                                     grouting::bench::StorageRows());
  grouting::bench::PrintPaperShape(
      "1-2 storage servers bottleneck the tier; throughput saturates at ~4 servers "
      "as the bottleneck moves back to the processing tier.");
  grouting::bench::WriteBenchJson("fig8_scalability",
                                  {{"processors", &grouting::bench::ProcRows()},
                                   {"storage_servers", &grouting::bench::StorageRows()}});
  return 0;
}
