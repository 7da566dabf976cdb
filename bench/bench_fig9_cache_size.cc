// Figure 9: impact of per-processor cache capacity (webgraph-like).
//   (a) response time vs cache capacity, against the no-cache line
//   (b) cache hits vs cache capacity
//   (c) minimum cache needed to reach the no-cache response time
//
// Paper: below a threshold (~64 MB of their 4 GB working set) the cache is
// a net LOSS (maintenance + eviction churn with no reuse); smart routings
// reach the break-even response time with far less cache than baselines.

#include "bench/bench_common.h"

namespace grouting {
namespace bench {
namespace {

ExperimentEnv& Env() {
  static ExperimentEnv env(DatasetId::kWebGraphLike, BenchScale());
  return env;
}

double& NoCacheResponseMs() {
  static double v = 0.0;
  return v;
}

std::vector<ResultRow>& Rows() {
  static std::vector<ResultRow> rows;
  return rows;
}

// Cache sizes as fractions of the dataset's total adjacency bytes; the
// paper's 16MB..4GB axis scaled to our working set.
const std::vector<double>& CacheFractions() {
  static const std::vector<double> kFractions = {0.004, 0.016, 0.0625, 0.25, 1.25};
  return kFractions;
}

void BM_Fig9_NoCache(benchmark::State& state) {
  RunOptions opts;
  opts.num_hotspots = ScaledHotspots();
  opts.scheme = RoutingSchemeKind::kNoCache;
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m);
  NoCacheResponseMs() = m.mean_response_ms;
  Rows().push_back({"no_cache (break-even line)", m});
}

void BM_Fig9_CacheSweep(benchmark::State& state) {
  static const RoutingSchemeKind kSchemes[] = {
      RoutingSchemeKind::kNextReady, RoutingSchemeKind::kHash,
      RoutingSchemeKind::kLandmark, RoutingSchemeKind::kEmbed};
  const auto scheme = kSchemes[static_cast<size_t>(state.range(0))];
  const double fraction = CacheFractions()[static_cast<size_t>(state.range(1))];
  const auto bytes = static_cast<uint64_t>(
      fraction * static_cast<double>(Env().graph().TotalAdjacencyBytes()));
  RunOptions opts;
  opts.num_hotspots = ScaledHotspots();
  opts.scheme = scheme;
  opts.cluster.processor.cache_bytes = std::max<uint64_t>(bytes, 1);
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m);
  state.counters["cache_mb"] =
      static_cast<double>(opts.cluster.processor.cache_bytes) / (1 << 20);
  char label[128];
  std::snprintf(label, sizeof(label), "%s cache=%.1f%% (%s)",
                RoutingSchemeKindName(scheme).c_str(), 100.0 * fraction,
                Table::Bytes(opts.cluster.processor.cache_bytes).c_str());
  Rows().push_back({label, m});
}

BENCHMARK(BM_Fig9_NoCache)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig9_CacheSweep)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2, 3, 4}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Fig 9(c): bisection over cache size for the break-even response time.
void PrintFig9c() {
  Table t({"scheme", "min cache to reach no-cache response", "% of dataset"});
  const uint64_t total = Env().graph().TotalAdjacencyBytes();
  for (auto scheme : {RoutingSchemeKind::kNextReady, RoutingSchemeKind::kHash,
                      RoutingSchemeKind::kLandmark, RoutingSchemeKind::kEmbed}) {
    uint64_t lo = total / 512;
    uint64_t hi = total * 2;
    uint64_t best = hi;
    for (int iter = 0; iter < 7; ++iter) {
      const uint64_t mid = (lo + hi) / 2;
      RunOptions opts;
      opts.num_hotspots = ScaledHotspots();
      opts.scheme = scheme;
      opts.cluster.processor.cache_bytes = mid;
      const auto m = Env().Run(BenchEngine(), opts);
      if (m.mean_response_ms <= NoCacheResponseMs()) {
        best = mid;
        hi = mid;
      } else {
        lo = mid;
      }
    }
    t.AddRow({RoutingSchemeKindName(scheme), Table::Bytes(best),
              Table::Num(100.0 * static_cast<double>(best) / static_cast<double>(total), 1)});
  }
  std::printf("\n=== Figure 9(c): minimum cache to reach no-cache response (%.3f ms) ===\n%s",
              NoCacheResponseMs(), t.ToString().c_str());
  PrintPaperShape(
      "smart routings reach break-even with a much smaller cache than the baselines "
      "(paper: ~50MB vs ~150-200MB of a 4GB working set).");
}

}  // namespace
}  // namespace bench
}  // namespace grouting

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  grouting::bench::PrintMetricsTable("Figure 9(a,b): response time & hits vs cache capacity",
                                     grouting::bench::Rows());
  grouting::bench::PrintPaperShape(
      "tiny caches are WORSE than no cache (maintenance + churn); response improves "
      "with capacity until the working set fits, then flattens.");
  grouting::bench::PrintFig9c();
  grouting::bench::WriteBenchJson("fig9_cache_size",
                                  {{"cache_capacity", &grouting::bench::Rows()}});
  return 0;
}
