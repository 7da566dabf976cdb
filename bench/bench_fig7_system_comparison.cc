// Figure 7: query throughput of SEDGE/Giraph-like (BSP, multilevel
// partitioning), PowerGraph-like (GAS, vertex cut), gRouting-E (decoupled,
// Ethernet) and gRouting (decoupled, Infiniband) on the webgraph-like,
// memetracker-like and freebase-like datasets.
//
// Paper: gRouting-E is 5-10x the coupled systems; gRouting (Infiniband) is
// 10-35x — despite hash storage partitioning vs their expensive schemes.

#include "bench/bench_common.h"

#include <chrono>

namespace grouting {
namespace bench {
namespace {

struct Fig7Row {
  std::string dataset;
  double sedge_qps = 0;
  double powergraph_qps = 0;
  double grouting_e_qps = 0;
  double grouting_qps = 0;
  double sedge_partition_s = 0;
  double powergraph_partition_s = 0;
};

std::vector<Fig7Row>& Rows() {
  static std::vector<Fig7Row> rows;
  return rows;
}

ExperimentEnv& Env(int dataset) {
  static ExperimentEnv envs[] = {
      ExperimentEnv(DatasetId::kWebGraphLike, BenchScale()),
      ExperimentEnv(DatasetId::kMemetrackerLike, BenchScale()),
      ExperimentEnv(DatasetId::kFreebaseLike, BenchScale()),
  };
  return envs[dataset];
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// system: 0 = SEDGE-like, 1 = PowerGraph-like, 2 = gRouting-E, 3 = gRouting.
void BM_Fig7(benchmark::State& state) {
  const int dataset = static_cast<int>(state.range(0));
  const int system = static_cast<int>(state.range(1));
  ExperimentEnv& env = Env(dataset);
  auto queries = env.HotspotWorkload(/*r=*/2, /*h=*/2, ScaledHotspots());

  if (Rows().size() <= static_cast<size_t>(dataset)) {
    Rows().resize(dataset + 1);
    Rows()[dataset].dataset = env.spec().name;
  }
  Fig7Row& row = Rows()[dataset];

  for (auto _ : state) {
    switch (system) {
      case 0: {  // SEDGE-like: coupled BSP over 12 servers, METIS-like parts
        CoupledConfig cfg;
        cfg.num_servers = 12;
        const auto t0 = std::chrono::steady_clock::now();
        auto parts = MultilevelPartitioner().Partition(env.graph(), 12);
        const double part_s = Seconds(t0);
        SedgeLikeSystem sys(env.graph(), cfg, std::move(parts), part_s);
        const auto m = sys.Run(queries);
        row.sedge_qps = m.throughput_qps;
        row.sedge_partition_s = part_s;
        state.counters["throughput_qps"] = m.throughput_qps;
        break;
      }
      case 1: {  // PowerGraph-like: coupled GAS over 12 servers, vertex cut
        CoupledConfig cfg;
        cfg.num_servers = 12;
        const auto t0 = std::chrono::steady_clock::now();
        auto cut = GreedyVertexCut(env.graph(), 12, 7);
        const double part_s = Seconds(t0);
        PowerGraphLikeSystem sys(env.graph(), cfg, std::move(cut), part_s);
        const auto m = sys.Run(queries);
        row.powergraph_qps = m.throughput_qps;
        row.powergraph_partition_s = part_s;
        state.counters["throughput_qps"] = m.throughput_qps;
        break;
      }
      case 2:    // gRouting-E: decoupled 1 router / 7 proc / 4 storage, Ethernet
      case 3: {  // gRouting: same over Infiniband RDMA
        RunOptions opts;
        opts.scheme = RoutingSchemeKind::kEmbed;
        opts.cluster.cost = system == 2 ? CostModel::EthernetDefaults()
                                : CostModel::InfinibandDefaults();
        const auto m = env.Run(BenchEngine(), opts, queries);
        (system == 2 ? row.grouting_e_qps : row.grouting_qps) = m.throughput_qps;
        SetCounters(state, m);
        break;
      }
    }
  }
}

BENCHMARK(BM_Fig7)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2, 3}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void PrintFig7() {
  Table t({"dataset", "SEDGE-like (q/s)", "PowerGraph-like (q/s)", "gRouting-E (q/s)",
           "gRouting (q/s)", "E vs best coupled", "IB vs best coupled",
           "SEDGE part (s)", "PG part (s)"});
  for (const auto& r : Rows()) {
    const double best_coupled = std::max(r.sedge_qps, r.powergraph_qps);
    t.AddRow({r.dataset, Table::Num(r.sedge_qps, 1), Table::Num(r.powergraph_qps, 1),
              Table::Num(r.grouting_e_qps, 1), Table::Num(r.grouting_qps, 1),
              Table::Num(best_coupled > 0 ? r.grouting_e_qps / best_coupled : 0, 1) + "x",
              Table::Num(best_coupled > 0 ? r.grouting_qps / best_coupled : 0, 1) + "x",
              Table::Num(r.sedge_partition_s, 2), Table::Num(r.powergraph_partition_s, 2)});
  }
  std::printf("\n=== Figure 7: throughput, coupled baselines vs gRouting ===\n%s",
              t.ToString().c_str());
  PrintPaperShape(
      "gRouting-E ~5-10x the coupled systems, gRouting (Infiniband) ~10-35x; "
      "gRouting needs only hash partitioning (baselines paid partitioning offline: "
      "paper ~1h ParMETIS / ~30min PowerGraph).");
}

}  // namespace
}  // namespace bench
}  // namespace grouting

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  grouting::bench::PrintFig7();
  // Flatten the per-dataset system comparison into the shared JSON schema
  // (one row per dataset x system, throughput is the figure's metric).
  std::vector<grouting::bench::ResultRow> rows;
  for (const auto& r : grouting::bench::Rows()) {
    const std::pair<const char*, double> systems[] = {
        {"sedge_like", r.sedge_qps},
        {"powergraph_like", r.powergraph_qps},
        {"grouting_e", r.grouting_e_qps},
        {"grouting_ib", r.grouting_qps},
    };
    for (const auto& [system, qps] : systems) {
      grouting::ClusterMetrics m;
      m.throughput_qps = qps;
      rows.push_back({r.dataset + " " + system, m});
    }
  }
  grouting::bench::WriteBenchJson("fig7_system_comparison", {{"systems", &rows}});
  return 0;
}
