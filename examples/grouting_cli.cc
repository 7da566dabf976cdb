// gRouting experiment CLI: run any cluster configuration from the command
// line without writing code.
//
//   ./grouting_cli --dataset=webgraph --scale=0.3 --scheme=embed
//                  --engine=sim --processors=7 --storage=4 --cache=16MB
//                  --radius=2 --hops=2 --hotspots=100 --per-hotspot=10
//                  --network=infiniband --load-factor=20 --alpha=0.5
//
// Prints every scalar ClusterMetrics field as a table, by field name.
// `--help` lists everything.

#include <charconv>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "src/core/grouting.h"

using namespace grouting;

namespace {

// The command line as --key[=value] flags (a bare --key reads as "1").
// Each getter consumes its key and records a diagnostic for a malformed or
// out-of-range value, so main() reads every flag first and then reports all
// problems, unknown keys included, before it builds anything.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg(argv[i]);
      const size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0) {
        errors_.push_back("unexpected argument '" + arg + "'");
      } else {
        values_[arg.substr(2, eq - 2)] =
            eq == std::string::npos ? "1" : arg.substr(eq + 1);
      }
    }
  }

  std::string String(const std::string& key, const std::string& def) {
    const std::string* value = Take(key);
    return value == nullptr ? def : *value;
  }

  bool Switch(const std::string& key) {
    const std::string* value = Take(key);
    if (value != nullptr && *value != "1") {
      Reject(key, *value, "takes no value");
    }
    return value != nullptr;
  }

  // The entry of `choices` named by the flag; `name` receives the name.
  template <typename T>
  T Choice(const std::string& key, const std::string& def,
           const std::map<std::string, T>& choices, std::string* name = nullptr) {
    const std::string value = String(key, def);
    if (name != nullptr) {
      *name = value;
    }
    const auto it = choices.find(value);
    if (it != choices.end()) {
      return it->second;
    }
    std::string expected = "expected one of";
    for (const auto& choice : choices) {
      expected += " " + choice.first;
    }
    Reject(key, value, expected);
    return T{};
  }

  // An integer or a finite number in [lo, hi]; signs, trailing text and
  // overflow are all diagnostics.
  template <typename T>
  T Number(const std::string& key, T def, T lo = 0,
           T hi = std::numeric_limits<T>::max()) {
    const std::string* text = Take(key);
    if (text == nullptr) {
      return def;
    }
    T value{};
    const char* end = text->data() + text->size();
    const auto [ptr, ec] = std::from_chars(text->data(), end, value);
    if (ec == std::errc() && ptr == end && value >= lo && value <= hi) {
      return value;
    }
    std::ostringstream expected;
    expected << "expected a number in [" << lo << ", ";
    if (std::is_floating_point_v<T> && hi == std::numeric_limits<T>::max()) {
      expected << "inf)";
    } else {
      expected << hi << "]";
    }
    Reject(key, *text, expected.str());
    return def;
  }

  // A byte size such as 16MB; "0" stays 0 (the caller's "ample").
  uint64_t Bytes(const std::string& key, const std::string& def) {
    const std::string text = String(key, def);
    const std::optional<uint64_t> bytes = ParseByteSize(text);
    if (!bytes.has_value()) {
      Reject(key, text, "expected a byte size such as 512, 64KB or 16MB");
    }
    return bytes.value_or(0);
  }

  void Fail(const std::string& error) { errors_.push_back(error); }

  // Prints every diagnostic, unknown flags included; true if there were any.
  bool ReportErrors() {
    for (const auto& entry : values_) {
      if (consumed_.count(entry.first) == 0) {
        Fail("unknown flag --" + entry.first);
      }
    }
    for (const std::string& error : errors_) {
      std::fprintf(stderr, "grouting_cli: %s\n", error.c_str());
    }
    return !errors_.empty();
  }

 private:
  const std::string* Take(const std::string& key) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  void Reject(const std::string& key, const std::string& value, const std::string& why) {
    Fail("--" + key + "=" + value + ": " + why);
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
  std::vector<std::string> errors_;
};

void PrintHelp() {
  std::printf(
      "gRouting experiment CLI\n"
      "  --dataset=webgraph|friendster|memetracker|freebase   (default webgraph)\n"
      "  --scale=<float>          dataset scale               (default 0.25)\n"
      "  --scheme=no_cache|next_ready|hash|landmark|embed     (default embed)\n"
      "  --engine=sim|threaded    execution engine            (default sim)\n"
      "  --processors=<int>       query processors            (default 7)\n"
      "  --storage=<int>          storage servers             (default 4)\n"
      "  --cache=<size>           per-processor cache, e.g. 16MB; 0 = ample\n"
      "  --policy=lru|fifo|lfu|clock                          (default lru)\n"
      "  --network=infiniband|ethernet                        (default infiniband)\n"
      "  --radius=<int> --hops=<int>                          (defaults 2, 2)\n"
      "  --hotspots=<int> --per-hotspot=<int>                 (defaults 100, 10)\n"
      "  --landmarks=<int> --separation=<int> --dims=<int>\n"
      "  --load-factor=<float> --alpha=<float> --no-stealing\n"
      "  --router-shards=<int>    router frontend shards      (default 1)\n"
      "  --splitter=round_robin|hash|sticky|adaptive          (default round_robin)\n"
      "  --gossip-period=<µs>     0 disables gossip           (default 200)\n"
      "  --gossip-weight=<float>  EMA blend weight            (default 0.5)\n"
      "  --rebalance-threshold=<ratio>  adaptive splitter migration trigger\n"
      "                           (max/min routed load; <=1 disables, default 0)\n"
      "  --migration-cap=<int>    sessions moved per rebalance round (default 8)\n"
      "  --session-capacity=<int> sticky/adaptive session bound (default 65536)\n"
      "  --arrival-gap=<µs>       sim inter-arrival gap       (default 0)\n"
      "  --inflight-batches=<int> async multiget window per processor\n"
      "                           (1 = synchronous level barrier, default 1)\n"
      "  --repartition-threshold=<ratio>  storage-tier repartition trigger\n"
      "                           (max/min server access rate; <=1 disables,\n"
      "                           default 0)\n"
      "  --repartition-cap=<int>  partitions moved per repartition round\n"
      "                           (default 4)\n"
      "  --partitions-per-server=<int>  virtual partitions per storage server\n"
      "                           (migration granularity, default 8)\n"
      "  --replication-top-k=<int>  hot partitions promoted to an extra\n"
      "                           replica per round (0 disables, default 0)\n"
      "  --replica-demote-threshold=<frac>  demote replicas once a\n"
      "                           partition's rate falls to this fraction of\n"
      "                           the average server load (default 0.1)\n"
      "  --max-replicas-per-partition=<int>  extra copies a partition may\n"
      "                           hold beyond its primary (default 2, max 3)\n"
      "  --adjacency-encoding=raw|delta_varint  storage wire format\n"
      "                           (default raw)\n"
      "  --cache-compressed       processor caches admit the compressed blob\n"
      "                           (decode on hit; needs delta_varint to pay off)\n"
      "  --trace-out=<file>       export the query-lifecycle trace as Chrome-\n"
      "                           trace JSON (open in Perfetto / chrome://tracing)\n"
      "  --trace-sample-every-n=<int>  trace every Nth query (default 1 when\n"
      "                           --trace-out is set, else 0 = tracing off)\n"
      "  --trace-buffer-capacity=<int> events per trace ring (default 65536)\n"
      "  --num-tenants=<int>      tenant keyspaces federated over the storage\n"
      "                           tier (default 1)\n"
      "  --tenant-quota-qps=<float>  per-tenant admission quota at the\n"
      "                           splitter (<=0 disables, default 0)\n"
      "  --tenant-quota-burst=<float>  admission token-bucket burst\n"
      "                           (default 32)\n"
      "  --open-loop              open-loop Poisson workload: Query::arrive_us\n"
      "                           timestamps drive arrivals on both engines\n"
      "  --arrivals=<int>         open-loop arrivals          (default 8192)\n"
      "  --arrival-rate=<qps>     open-loop aggregate rate    (default 50000)\n"
      "  --tenant-skew=<float>    Zipf skew of per-tenant rates (default 1.0)\n"
      "  --sessions-per-tenant=<int>  open-loop session universe per tenant\n"
      "                           (default 1000000)\n"
      "  --session-skew=<float>   heavy-tail exponent of session popularity\n"
      "                           (default 1.1)\n"
      "  --tenant-metrics-out=<file>  write per-tenant admission/latency\n"
      "                           metrics + answer checksum as JSON\n"
      "  --mutation-fraction=<frac>  fraction of open-loop arrivals converted\n"
      "                           to live graph writes (enables the versioned\n"
      "                           mutation path; requires --open-loop;\n"
      "                           default 0 = read-only)\n"
      "  --index-refresh-period=<µs>  minimum time between incremental\n"
      "                           index-maintenance passes on the gossip\n"
      "                           cadence (default 0 = every gossip tick)\n"
      "  --seed=<int>\n");
}

// Order-independent checksum over the run's answers: each answer folds its
// id and result fields through a SplitMix64 chain into one 64-bit word, and
// the words XOR together — so the value is identical across engines
// regardless of completion order (the soak pipeline's exactly-once check).
// With `ids_only`, only query ids are folded: under concurrent mutations
// the VALUE a query observes legitimately depends on whether the write
// landed first (engine timing), but the SET of answered ids must still
// match exactly-once across engines.
uint64_t AnswerChecksum(const std::vector<AnsweredQuery>& answers, bool ids_only) {
  uint64_t sum = 0;
  for (const AnsweredQuery& a : answers) {
    SplitMix64 chain(a.query_id);
    if (ids_only) {
      sum ^= chain.Next();
      continue;
    }
    uint64_t w = chain.Next();
    chain = SplitMix64(w ^ static_cast<uint64_t>(a.result.type));
    w = chain.Next();
    chain = SplitMix64(w ^ a.result.aggregate);
    w = chain.Next();
    chain = SplitMix64(w ^ (static_cast<uint64_t>(a.result.walk_end) << 32 |
                            a.result.walk_distinct_nodes));
    w = chain.Next();
    chain = SplitMix64(w ^ (a.result.reachable ? 1u : 0u) ^
                       (static_cast<uint64_t>(static_cast<uint32_t>(a.result.distance))
                        << 8));
    sum ^= chain.Next();
  }
  return sum;
}

// Per-tenant admission/latency metrics as JSON, consumed by
// tools/check_soak.py to gate the CI multi-tenant soak on both engines.
bool WriteTenantMetricsJson(const std::string& path, const std::string& engine,
                            const ClusterConfig& config, size_t arrivals,
                            const ClusterMetrics& m, uint64_t checksum) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "{\n  \"engine\": \"%s\",\n  \"tenants\": %u,\n"
               "  \"quota_qps\": %.6g,\n  \"arrivals\": %zu,\n"
               "  \"answered\": %llu,\n  \"shed_total\": %llu,\n"
               "  \"mutations_applied\": %llu,\n  \"index_refreshes\": %llu,\n"
               "  \"answer_checksum\": \"%016llx\",\n  \"per_tenant\": [",
               engine.c_str(), config.num_tenants, config.tenant_quota_qps, arrivals,
               static_cast<unsigned long long>(m.queries),
               static_cast<unsigned long long>(m.queries_shed),
               static_cast<unsigned long long>(m.mutations_applied),
               static_cast<unsigned long long>(m.index_refreshes),
               static_cast<unsigned long long>(checksum));
  for (size_t i = 0; i < m.per_tenant.size(); ++i) {
    const TenantMetrics& t = m.per_tenant[i];
    std::fprintf(f,
                 "%s\n    {\"tenant\": %u, \"queries\": %llu, \"shed\": %llu, "
                 "\"shed_rate\": %.6g, \"mean_response_ms\": %.6g, "
                 "\"p50_response_ms\": %.6g, \"p99_response_ms\": %.6g, "
                 "\"p999_response_ms\": %.6g}",
                 i == 0 ? "" : ",", t.tenant, static_cast<unsigned long long>(t.queries),
                 static_cast<unsigned long long>(t.shed), t.ShedRate(),
                 t.mean_response_ms, t.p50_response_ms, t.p99_response_ms,
                 t.p999_response_ms);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.Switch("help")) {
    PrintHelp();
    return 0;
  }

  static const std::map<std::string, DatasetId> kDatasets = {
      {"webgraph", DatasetId::kWebGraphLike},
      {"friendster", DatasetId::kFriendsterLike},
      {"memetracker", DatasetId::kMemetrackerLike},
      {"freebase", DatasetId::kFreebaseLike},
  };
  static const std::map<std::string, RoutingSchemeKind> kSchemes = {
      {"no_cache", RoutingSchemeKind::kNoCache},
      {"next_ready", RoutingSchemeKind::kNextReady},
      {"hash", RoutingSchemeKind::kHash},
      {"landmark", RoutingSchemeKind::kLandmark},
      {"embed", RoutingSchemeKind::kEmbed},
  };
  static const std::map<std::string, EngineKind> kEngines = {
      {"sim", EngineKind::kSimulated},
      {"threaded", EngineKind::kThreaded},
  };
  static const std::map<std::string, CachePolicy> kPolicies = {
      {"lru", CachePolicy::kLru},
      {"fifo", CachePolicy::kFifo},
      {"lfu", CachePolicy::kLfu},
      {"clock", CachePolicy::kClock},
  };
  static const std::map<std::string, CostModel> kNetworks = {
      {"infiniband", CostModel::InfinibandDefaults()},
      {"ethernet", CostModel::EthernetDefaults()},
  };
  static const std::map<std::string, SplitterKind> kSplitters = {
      {"round_robin", SplitterKind::kRoundRobin},
      {"hash", SplitterKind::kHash},
      {"sticky", SplitterKind::kSticky},
      {"adaptive", SplitterKind::kAdaptive},
  };
  static const std::map<std::string, AdjacencyEncoding> kEncodings = {
      {"raw", AdjacencyEncoding::kRaw},
      {"delta_varint", AdjacencyEncoding::kDeltaVarint},
  };

  std::string dataset_name, scheme_name, engine_name;
  const DatasetId dataset = flags.Choice("dataset", "webgraph", kDatasets, &dataset_name);
  const EngineKind engine = flags.Choice("engine", "sim", kEngines, &engine_name);
  const std::string scale_text = flags.String("scale", "0.25");
  const double scale = flags.Number("scale", 0.25);
  if (scale == 0.0) {
    flags.Fail("--scale must be > 0");
  }
  const uint64_t seed = flags.Number<uint64_t>("seed", 4242);

  RunOptions opts;
  opts.scheme = flags.Choice("scheme", "embed", kSchemes, &scheme_name);
  opts.hotspot_radius = flags.Number<int32_t>("radius", 2);
  opts.hops = flags.Number<int32_t>("hops", 2);
  opts.num_hotspots = flags.Number<size_t>("hotspots", 100, 1);
  opts.queries_per_hotspot = flags.Number<size_t>("per-hotspot", 10, 1);
  opts.num_landmarks = flags.Number<size_t>("landmarks", 96, 1);
  opts.min_separation = flags.Number<int32_t>("separation", 3);
  opts.dimensions = flags.Number<size_t>("dims", 10, 1);
  opts.load_factor = flags.Number("load-factor", 20.0);
  opts.alpha = flags.Number("alpha", 0.5, 0.0, 1.0);

  ClusterConfig& c = opts.cluster;
  c.num_processors = flags.Number<uint32_t>("processors", 7, 1);
  c.num_storage_servers = flags.Number<uint32_t>("storage", 4, 1);
  c.processor.cache_bytes = flags.Bytes("cache", "0");
  c.processor.cache_policy = flags.Choice("policy", "lru", kPolicies);
  c.cost = flags.Choice("network", "infiniband", kNetworks);
  c.enable_stealing = !flags.Switch("no-stealing");
  c.num_router_shards = flags.Number<uint32_t>("router-shards", 1, 1);
  c.router_splitter = flags.Choice("splitter", "round_robin", kSplitters);
  c.gossip_period_us = flags.Number("gossip-period", 200.0);
  c.gossip_merge_weight = flags.Number("gossip-weight", 0.5, 0.0, 1.0);
  c.router_rebalance_threshold = flags.Number("rebalance-threshold", 0.0);
  c.router_migration_cap = flags.Number<uint32_t>("migration-cap", 8);
  c.router_session_capacity = flags.Number<uint32_t>("session-capacity", 1 << 16, 1);
  c.arrival_gap_us = flags.Number("arrival-gap", 0.0);
  c.processor.max_inflight_batches = flags.Number<uint32_t>("inflight-batches", 1, 1);
  c.repartition_threshold = flags.Number("repartition-threshold", 0.0);
  c.repartition_cap = flags.Number<uint32_t>("repartition-cap", 4);
  c.partitions_per_server = flags.Number<uint32_t>("partitions-per-server", 8, 1);
  c.replication_top_k = flags.Number<uint32_t>("replication-top-k", 0);
  c.replica_demote_threshold = flags.Number("replica-demote-threshold", 0.1);
  c.max_replicas_per_partition = flags.Number<uint32_t>(
      "max-replicas-per-partition", 2, 0, PartitionMap::kMaxReplicas);
  c.adjacency_encoding = flags.Choice("adjacency-encoding", "raw", kEncodings);
  c.processor.cache_compressed = flags.Switch("cache-compressed");
  const std::string trace_out = flags.String("trace-out", "");
  c.trace_sample_every_n =
      flags.Number<uint32_t>("trace-sample-every-n", trace_out.empty() ? 0 : 1);
  c.trace_buffer_capacity = flags.Number<uint32_t>("trace-buffer-capacity", 1 << 16, 1);
  if (!trace_out.empty() && c.trace_sample_every_n == 0) {
    flags.Fail("--trace-out requires --trace-sample-every-n >= 1");
  }
  c.num_tenants = flags.Number<uint32_t>("num-tenants", 1, 1);
  c.tenant_quota_qps = flags.Number("tenant-quota-qps", 0.0);
  c.tenant_quota_burst = flags.Number("tenant-quota-burst", 32.0, 1.0);
  c.open_loop_arrivals = flags.Switch("open-loop");
  const std::string tenant_metrics_out = flags.String("tenant-metrics-out", "");
  const double mutation_fraction = flags.Number("mutation-fraction", 0.0, 0.0, 1.0);
  if (mutation_fraction > 0.0 && !c.open_loop_arrivals) {
    flags.Fail("--mutation-fraction requires --open-loop");
  }
  c.enable_mutations = mutation_fraction > 0.0;
  c.index_refresh_period_us = flags.Number("index-refresh-period", 0.0);

  OpenLoopConfig ol;
  ol.num_tenants = c.num_tenants;
  ol.num_arrivals = flags.Number<size_t>("arrivals", 8192, 1);
  ol.arrival_rate_qps = flags.Number("arrival-rate", 50000.0);
  if (ol.arrival_rate_qps == 0.0) {
    flags.Fail("--arrival-rate must be > 0");
  }
  ol.tenant_skew = flags.Number("tenant-skew", 1.0);
  ol.sessions_per_tenant = flags.Number<uint64_t>("sessions-per-tenant", 1000000, 1);
  ol.session_skew = flags.Number("session-skew", 1.1);
  ol.hops = opts.hops;
  if (flags.ReportErrors()) {
    return 1;
  }

  ExperimentEnv env(dataset, scale, seed);
  ol.seed = env.seed() ^ 0x99;
  const Graph& g = env.graph();
  std::printf("dataset %s (scale %.2f): %zu nodes, %zu edges\n", dataset_name.c_str(),
              scale, g.num_nodes(), g.num_edges());
  std::printf("running %s on %u processors / %u storage servers (%s, %s engine)...\n",
              scheme_name.c_str(), c.num_processors, c.num_storage_servers,
              c.cost.net.name.c_str(), EngineKindName(engine).c_str());

  // Assembled by hand (rather than env.Run) so the engine outlives the run:
  // the trace export reads the recorder after the metrics come back.
  std::vector<Query> workload;
  std::vector<GraphMutation> mutations;
  if (c.open_loop_arrivals) {
    if (mutation_fraction > 0.0) {
      // Mixed read/write stream from one arrival process: a deterministic
      // slice of the arrivals becomes live edge writes at the same instants.
      MutationScheduleConfig mc;
      mc.seed = env.seed() ^ 0x66;
      MixedWorkload mixed = GenerateMixedOpenLoopWorkload(g, ol, mutation_fraction, mc);
      workload = std::move(mixed.queries);
      mutations = std::move(mixed.mutations);
    } else {
      workload = GenerateOpenLoopWorkload(g, ol);
    }
  } else {
    workload = env.HotspotWorkload(opts.hotspot_radius, opts.hops, opts.num_hotspots,
                                   opts.queries_per_hotspot);
  }
  const ClusterConfig config = env.MakeClusterConfig(opts);
  auto cluster = MakeClusterEngine(engine, g, config, env.MakeStrategy(opts));
  if (!mutations.empty()) {
    cluster->set_mutation_schedule(std::move(mutations));
  }
  const ClusterMetrics m = cluster->Run(workload);

  if (!trace_out.empty()) {
    TraceMetadata metadata;
    metadata.emplace_back("dataset", dataset_name);
    metadata.emplace_back("scheme", scheme_name);
    metadata.emplace_back("scale", scale_text);
    if (cluster->ExportTrace(trace_out, metadata)) {
      std::printf("wrote trace: %s (%llu events, %llu dropped)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(m.trace_events_recorded),
                  static_cast<unsigned long long>(m.trace_events_dropped));
    } else {
      std::fprintf(stderr, "trace export to %s failed\n", trace_out.c_str());
      return 1;
    }
  }

  // Run identity, then every scalar metric under its ClusterMetrics field
  // name (the names carry the units) and the cache hit rate, then the
  // per-tenant slice.
  Table t({"metric", "value"});
  t.AddRow({"engine", EngineKindName(engine)});
  t.AddRow({"adjacency encoding",
            AdjacencyEncodingName(config.adjacency_encoding) +
                (config.processor.cache_compressed ? " (compressed cache)" : "")});
  t.AddRow({"router shards", Table::Int(static_cast<int64_t>(config.num_router_shards)) +
                                 " (" + SplitterKindName(config.router_splitter) + ")"});
  t.AddRow({"tenants", Table::Int(static_cast<int64_t>(config.num_tenants))});
  ForEachScalarMetric(m, [&](const char* name, auto v) {
    if constexpr (std::is_integral_v<decltype(v)>) {
      t.AddRow({name, Table::Int(static_cast<int64_t>(v))});
    } else {
      t.AddRow({name, Table::Num(v, 4)});
    }
  });
  t.AddRow({"hit_rate", Table::Num(m.CacheHitRate(), 4)});  // as in BENCH_*.json
  for (const TenantMetrics& tm : m.per_tenant) {
    t.AddRow({"tenant " + Table::Int(tm.tenant),
              Table::Int(static_cast<int64_t>(tm.queries)) + " q / " +
                  Table::Int(static_cast<int64_t>(tm.shed)) + " shed / p99 " +
                  Table::Num(tm.p99_response_ms, 3) + " ms"});
  }
  std::printf("%s", t.ToString().c_str());

  if (!tenant_metrics_out.empty()) {
    // Under concurrent mutations the observed values depend on engine
    // timing; exactly-once is then asserted over the answered-id set.
    const uint64_t checksum =
        AnswerChecksum(cluster->answers(), /*ids_only=*/config.enable_mutations);
    if (WriteTenantMetricsJson(tenant_metrics_out, engine_name, config, workload.size(),
                               m, checksum)) {
      std::printf("wrote tenant metrics: %s\n", tenant_metrics_out.c_str());
    } else {
      std::fprintf(stderr, "tenant metrics export to %s failed\n",
                   tenant_metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}
