#include "perfbench/workloads.h"

#include <utility>

#include "src/workload/datasets.h"
#include "src/workload/mutations.h"
#include "src/workload/open_loop.h"
#include "src/workload/workload.h"

namespace grouting::perfbench {
namespace {

// The paper's preprocessing defaults (Section 4.1).
constexpr size_t kLandmarks = 96;
constexpr int32_t kMinSeparation = 3;
constexpr size_t kDimensions = 10;
constexpr double kLoadFactor = 20.0;
constexpr double kAlpha = 0.5;
constexpr uint32_t kStorageServers = 4;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<WorkloadSpec> AllWorkloads() {
  WorkloadSpec raw;
  raw.name = "hotspot-raw";
  raw.processors = 3;
  raw.cache_bytes = 1ull << 20;
  raw.hotspots = 100;
  raw.queries_per_hotspot = 25;
  raw.variants = 8;

  WorkloadSpec compressed = raw;
  compressed.name = "hotspot-compressed";
  compressed.encoding = AdjacencyEncoding::kDeltaVarint;
  compressed.cache_compressed = true;

  WorkloadSpec rw;
  rw.name = "openloop-rw";
  rw.processors = 2;
  rw.cache_bytes = 0;
  rw.open_loop = true;
  rw.arrivals = 16000;
  rw.arrival_rate_qps = 8000.0;
  rw.write_fraction = 0.1;
  rw.variants = 3;
  return {raw, compressed, rw};
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) {
      return spec;
    }
  }
  return std::nullopt;
}

WorkloadSpec SimHotspotSpec() {
  WorkloadSpec spec = *FindWorkload("hotspot-raw");
  spec.name = "sim-hotspot";
  // Fewer variants than the threaded runs get, so that each one runs
  // several times in the simulated share of a run.
  spec.variants = 4;
  return spec;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : AllWorkloads()) {
    names.push_back(spec.name);
  }
  return names;
}

ClusterConfig MakeConfig(const WorkloadSpec& spec, const Graph& graph) {
  ClusterConfig config;
  config.num_processors = spec.processors;
  config.num_storage_servers = kStorageServers;
  config.processor.cache_bytes =
      spec.cache_bytes != 0 ? spec.cache_bytes : graph.TotalAdjacencyBytes() + (16u << 20);
  config.processor.cache_policy = CachePolicy::kLru;
  config.processor.max_inflight_batches = 1;
  config.processor.cache_compressed = spec.cache_compressed;
  config.adjacency_encoding = spec.encoding;
  config.cost = CostModel::InfinibandDefaults();
  config.injected_network_us = config.cost.net.one_way_us;
  config.num_router_shards = 1;
  config.open_loop_arrivals = spec.open_loop;
  config.enable_mutations = spec.open_loop;
  // At the default cadence (a pass at every 200 us gossip tick) a pass of
  // the bench_fig10 maintainer takes ~700 us with every router-shard lock
  // held, so refresh alone set openloop-rw's p50 and p99 and they spread
  // 35% across seeds. A pass every 5 ms keeps the refresh path and its
  // lock contention in the workload.
  config.index_refresh_period_us = 5000.0;
  return config;
}

std::unique_ptr<RoutingStrategy> MakeStrategy(const WorkloadSpec& spec,
                                              const GraphEmbedding* embedding,
                                              uint64_t seed) {
  return std::make_unique<EmbedStrategy>(embedding, kAlpha, kLoadFactor, spec.processors,
                                         seed ^ 0x44);
}

Setup RunSetup(const WorkloadSpec& spec, uint64_t seed) {
  Setup setup;
  auto start = Clock::now();
  setup.graph = MakeDataset(DatasetId::kWebGraphLike, kGraphScale, seed);
  setup.times.graph_s = SecondsSince(start);

  start = Clock::now();
  LandmarkConfig lc;
  lc.num_landmarks = kLandmarks;
  lc.min_separation = kMinSeparation;
  lc.seed = seed ^ 0x11;
  setup.landmarks = std::make_unique<LandmarkSet>(LandmarkSet::Select(setup.graph, lc));
  setup.times.landmarks_s = SecondsSince(start);

  start = Clock::now();
  setup.index = std::make_unique<LandmarkIndex>(
      LandmarkIndex::Build(*setup.landmarks, spec.processors));
  setup.times.index_s = SecondsSince(start);

  start = Clock::now();
  EmbedConfig ec;
  ec.dimensions = kDimensions;
  ec.seed = seed ^ 0x22;
  setup.embedding =
      std::make_unique<GraphEmbedding>(GraphEmbedding::Build(*setup.landmarks, ec));
  setup.times.embed_s = SecondsSince(start);

  start = Clock::now();
  {
    auto engine = MakeClusterEngine(EngineKind::kThreaded, setup.graph,
                                    MakeConfig(spec, setup.graph),
                                    MakeStrategy(spec, setup.embedding.get(), seed));
  }
  setup.times.load_s = SecondsSince(start);
  return setup;
}

Inputs MakeInputs(const WorkloadSpec& spec, const Graph& graph, uint64_t seed) {
  Inputs in;
  if (!spec.open_loop) {
    WorkloadConfig wc;
    wc.num_hotspots = spec.hotspots;
    wc.queries_per_hotspot = spec.queries_per_hotspot;
    wc.hotspot_radius = 2;
    wc.hops = kHops;
    wc.seed = seed ^ 0x33;
    in.queries = GenerateHotspotWorkload(graph, wc);
    return in;
  }
  OpenLoopConfig oc;
  oc.num_tenants = 1;
  oc.num_arrivals = spec.arrivals;
  oc.arrival_rate_qps = spec.arrival_rate_qps;
  oc.hops = kHops;
  oc.seed = seed ^ 0x55;
  MutationScheduleConfig mc;
  mc.seed = seed ^ 0x66;
  MixedWorkload mixed = GenerateMixedOpenLoopWorkload(graph, oc, spec.write_fraction, mc);
  in.queries = std::move(mixed.queries);
  in.writes = std::move(mixed.mutations);
  return in;
}

IndexMaintainer MakeMaintainer(const Graph& graph, GraphEmbedding* embedding,
                               std::shared_ptr<LandmarkSet> landmarks) {
  // Wired as bench_fig10 wires the embed scheme: incremental coordinates
  // for the dirtied nodes plus a small relative-error probe per pass.
  return [e = embedding, lms = std::move(landmarks), g = &graph,
          pass = uint64_t{0}](std::span<const NodeId> nodes) mutable {
    IndexRefreshResult r;
    r.nodes_refreshed = e->RefreshNodes(*g, nodes, *lms);
    constexpr size_t kErrorSamples = 16;
    Rng err_rng(977 + ++pass);
    const double mean = e->MeasureRelativeError(*g, kErrorSamples, /*radius=*/2, err_rng);
    r.error_sum = mean * static_cast<double>(kErrorSamples);
    r.error_samples = kErrorSamples;
    return r;
  };
}

EngineRun MakeEngineRun(EngineKind kind, const WorkloadSpec& spec, const Setup& setup,
                        std::span<const GraphMutation> writes, uint64_t seed,
                        Probes* probes) {
  EngineRun run;
  // The index maintainer rewrites embedding coordinates and landmark
  // estimates, so each run gets its own copies.
  const GraphEmbedding* embedding = setup.embedding.get();
  if (spec.open_loop) {
    run.embedding = std::make_unique<GraphEmbedding>(*setup.embedding);
    run.landmarks = std::make_shared<LandmarkSet>(*setup.landmarks);
    embedding = run.embedding.get();
  }
  std::unique_ptr<RoutingStrategy> strategy = MakeStrategy(spec, embedding, seed);
  if (probes != nullptr) {
    strategy = std::make_unique<TimedStrategy>(std::move(strategy), probes->route);
  }
  run.engine = MakeClusterEngine(kind, setup.graph, MakeConfig(spec, setup.graph),
                                 std::move(strategy));
  if (spec.open_loop) {
    run.engine->set_mutation_schedule({writes.begin(), writes.end()});
    IndexMaintainer maintainer =
        MakeMaintainer(setup.graph, run.embedding.get(), run.landmarks);
    if (probes != nullptr) {
      maintainer = TimedMaintainer(std::move(maintainer), probes->maintainer);
    }
    run.engine->set_index_maintainer(std::move(maintainer));
  }
  return run;
}

}  // namespace grouting::perfbench
