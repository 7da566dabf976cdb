// Compressed adjacency × cache-size sweep (extends the Figure 9 axis).
//
// Three modes at each cache budget, all answering the same workload:
//   raw        — v1 fixed-width blobs, decoded entries in cache (pre-PR
//                behaviour; the metric-identity baseline)
//   dv         — v2 delta+varint blobs on the wire, decoded entries in
//                cache (network win only)
//   dv+cc      — v2 blobs on the wire AND in the cache (cache_compressed):
//                the byte budget holds several times more vertices, every
//                hit pays the decode
//
// Expected shape: at small/medium cache budgets dv+cc holds >= 2x the
// entries, hits more, and answers faster than raw despite the decode tax;
// once everything fits, compression only saves wire time.

#include "bench/bench_common.h"

namespace grouting {
namespace bench {
namespace {

ExperimentEnv& Env() {
  static ExperimentEnv env(DatasetId::kWebGraphLike, BenchScale());
  return env;
}

std::vector<ResultRow>& Rows() {
  static std::vector<ResultRow> rows;
  return rows;
}

struct Mode {
  const char* name;
  AdjacencyEncoding encoding;
  bool cache_compressed;
};

const std::vector<Mode>& Modes() {
  static const std::vector<Mode> kModes = {
      {"raw", AdjacencyEncoding::kRaw, false},
      {"dv", AdjacencyEncoding::kDeltaVarint, false},
      {"dv+cc", AdjacencyEncoding::kDeltaVarint, true},
  };
  return kModes;
}

// Small and medium budgets (fractions of the logical working set) — where
// the compressed cache's extra entries matter — plus one ample point where
// every mode's hit rate saturates.
const std::vector<double>& CacheFractions() {
  static const std::vector<double> kFractions = {0.016, 0.0625, 0.25, 1.25};
  return kFractions;
}

void BM_CompressedCache(benchmark::State& state) {
  const Mode& mode = Modes()[static_cast<size_t>(state.range(0))];
  const double fraction = CacheFractions()[static_cast<size_t>(state.range(1))];
  const auto bytes = static_cast<uint64_t>(
      fraction * static_cast<double>(Env().graph().TotalAdjacencyBytes()));
  RunOptions opts;
  opts.num_hotspots = ScaledHotspots();
  opts.scheme = RoutingSchemeKind::kEmbed;
  // The paper's 10 Gbps Ethernet profile: compression is a wire-economics
  // trade, and this is the regime where the wire actually costs something
  // (on RDMA-class Infiniband the per-KB term is nearly free and the
  // decode tax has nothing to pay for).
  opts.cluster.cost = CostModel::EthernetDefaults();
  opts.cluster.processor.cache_bytes = std::max<uint64_t>(bytes, 1);
  opts.cluster.adjacency_encoding = mode.encoding;
  opts.cluster.processor.cache_compressed = mode.cache_compressed;
  ClusterMetrics m;
  for (auto _ : state) {
    m = Env().Run(BenchEngine(), opts);
  }
  SetCounters(state, m);
  state.counters["cache_mb"] =
      static_cast<double>(opts.cluster.processor.cache_bytes) / (1 << 20);
  char label[128];
  std::snprintf(label, sizeof(label), "%s cache=%.1f%% (%s)", mode.name, 100.0 * fraction,
                Table::Bytes(opts.cluster.processor.cache_bytes).c_str());
  Rows().push_back({label, m});
}

BENCHMARK(BM_CompressedCache)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2, 3}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The acceptance view: raw vs dv+cc at each budget — entry capacity, hit
// rate, response.
void PrintCapacityComparison() {
  Table t({"cache budget", "raw entries", "dv+cc entries", "capacity x",
           "raw hit %", "dv+cc hit %", "raw resp (ms)", "dv+cc resp (ms)"});
  const size_t num_modes = Modes().size();
  for (size_t c = 0; c < CacheFractions().size(); ++c) {
    // Rows land in benchmark execution order: all modes at a fraction, then
    // the next fraction (see the main table).
    const ResultRow* raw = &Rows()[c * num_modes + 0];
    const ResultRow* cc = &Rows()[c * num_modes + 2];
    const double capacity_x =
        raw->metrics.cache_entries == 0
            ? 0.0
            : static_cast<double>(cc->metrics.cache_entries) /
                  static_cast<double>(raw->metrics.cache_entries);
    t.AddRow({Table::Num(100.0 * CacheFractions()[c], 1) + "%",
              Table::Int(static_cast<int64_t>(raw->metrics.cache_entries)),
              Table::Int(static_cast<int64_t>(cc->metrics.cache_entries)),
              Table::Num(capacity_x, 2),
              Table::Num(100.0 * raw->metrics.CacheHitRate(), 1),
              Table::Num(100.0 * cc->metrics.CacheHitRate(), 1),
              Table::Num(raw->metrics.mean_response_ms, 3),
              Table::Num(cc->metrics.mean_response_ms, 3)});
  }
  std::printf("\n=== compressed cache: capacity / hit rate / response vs raw ===\n%s",
              t.ToString().c_str());
}

}  // namespace
}  // namespace bench
}  // namespace grouting

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  grouting::bench::PrintMetricsTable(
      "compressed adjacency x cache budget (embed routing)",
      grouting::bench::Rows());
  grouting::bench::PrintCapacityComparison();
  grouting::bench::PrintPaperShape(
      "delta+varint cuts bytes/entry ~2-3x; caching the compressed blob turns "
      "that into >=2x cached vertices per byte, so small/medium caches hit more "
      "and answer faster than raw despite paying a decode on every hit.");
  grouting::bench::WriteBenchJson("fig_compressed_cache",
                                  {{"compressed_cache", &grouting::bench::Rows()}});
  return 0;
}
