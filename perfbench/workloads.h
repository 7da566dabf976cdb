// The benchmark's workloads: their fixed configurations, the seeded inputs
// each one is built from, and the preprocessing ("setup") every run pays.

#ifndef GROUTING_PERFBENCH_WORKLOADS_H_
#define GROUTING_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "src/core/cluster_engine.h"
#include "src/embed/embedding.h"
#include "src/graph/graph.h"
#include "src/landmark/landmark.h"
#include "src/landmark/landmark_index.h"
#include "src/query/query.h"
#include "src/storage/storage_tier.h"

namespace grouting::perfbench {

// Fixed per-workload configuration. Everything not listed here is shared:
// webgraph-like at scale 0.25, 4 storage servers, one router shard, embed
// routing, the InfiniBand profile, a multiget window of 1.
struct WorkloadSpec {
  std::string name;
  uint32_t processors = 3;
  uint64_t cache_bytes = 0;  // per processor; 0 = ample (never evicts)
  AdjacencyEncoding encoding = AdjacencyEncoding::kRaw;
  bool cache_compressed = false;
  bool open_loop = false;  // Poisson arrivals with live edge writes
  // Closed batch: the paper's hotspot workload.
  size_t hotspots = 0;
  size_t queries_per_hotspot = 0;
  // Open loop: arrivals per run, their rate, and the share that are writes.
  size_t arrivals = 0;
  double arrival_rate_qps = 0.0;
  double write_fraction = 0.0;
  // Input sets drawn per run (from --seed and seeds derived from it).
  size_t variants = 1;
};

// Returns the named workload, or nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// What every workload runs on the simulated engine ("sim-hotspot"):
// hotspot-raw's configuration and inputs. The simulator's cost per query
// and its virtual outputs are then one measurement, whichever workload
// reports them.
WorkloadSpec SimHotspotSpec();

inline constexpr double kGraphScale = 0.25;
inline constexpr int32_t kHops = 2;

// Wall time of each preprocessing phase (seconds).
struct SetupTimes {
  double graph_s = 0.0;
  double landmarks_s = 0.0;
  double index_s = 0.0;
  double embed_s = 0.0;
  double load_s = 0.0;  // one cluster assembly (storage-tier load)
  double Total() const { return graph_s + landmarks_s + index_s + embed_s + load_s; }
};

// Preprocessed state every engine run of a workload starts from.
struct Setup {
  Graph graph;
  std::unique_ptr<LandmarkSet> landmarks;
  // Part of the timed setup, as landmark routing needs it; embed routing,
  // which every workload uses, does not read it.
  std::unique_ptr<LandmarkIndex> index;
  std::unique_ptr<GraphEmbedding> embedding;
  SetupTimes times;
};

// Builds the graph, landmarks, landmark index and embedding from `seed`, and
// assembles (then discards) one cluster, timing each phase.
Setup RunSetup(const WorkloadSpec& spec, uint64_t seed);

// The workload's inputs: reads in arrival order and (open loop) the write
// schedule, interleaved with them by time.
struct Inputs {
  std::vector<Query> queries;
  std::vector<GraphMutation> writes;
};
Inputs MakeInputs(const WorkloadSpec& spec, const Graph& graph, uint64_t seed);

// Engine configuration of the workload.
ClusterConfig MakeConfig(const WorkloadSpec& spec, const Graph& graph);

// A fresh routing strategy (embed routing; its EMA state starts cold).
std::unique_ptr<RoutingStrategy> MakeStrategy(const WorkloadSpec& spec,
                                              const GraphEmbedding* embedding,
                                              uint64_t seed);

// The open-loop workload's index maintainer: refreshes `embedding` (and
// the landmark estimates) for the nodes a pass is given.
IndexMaintainer MakeMaintainer(const Graph& graph, GraphEmbedding* embedding,
                               std::shared_ptr<LandmarkSet> landmarks);

// One engine, assembled cold, with the workload's write schedule and index
// maintainer installed. Owns the copies of the index state the maintainer
// mutates, so runs never share it.
struct EngineRun {
  std::unique_ptr<GraphEmbedding> embedding;
  std::shared_ptr<LandmarkSet> landmarks;
  std::unique_ptr<ClusterEngine> engine;
};

// `probes` (optional) decorates the strategy and the maintainer, for the
// traced run.
EngineRun MakeEngineRun(EngineKind kind, const WorkloadSpec& spec, const Setup& setup,
                        std::span<const GraphMutation> writes, uint64_t seed,
                        Probes* probes = nullptr);

}  // namespace grouting::perfbench

#endif  // GROUTING_PERFBENCH_WORKLOADS_H_
