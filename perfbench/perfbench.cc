// gRouting end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Sets the cluster up several times (setup_s is the median), builds the
// workload's input variants from the seed, then for --seconds serves them
// through the public engine API (MakeClusterEngine -> ClusterEngine::Run)
// on fresh, cold clusters of the threaded engine, after one simulated run
// of each sim-hotspot variant. Every answer is checked. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
// same inputs with outside probes (probes.h) and a single-threaded replay,
// replays an openloop-rw input variant for the write and index layers, and
// reports the per-layer metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// check failed, 2 on bad arguments.

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/cache/cache.h"
#include "src/proc/processor.h"

namespace grouting::perfbench {
namespace {

// Setups per process: setup_s is their median.
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;  // traced run: where the last replay's spans go
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return false;
      }
    } else if (key == "--spans") {
      args->spans = value;
    } else if (key == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 && args->trace >= 0 &&
         FindWorkload(args->workload).has_value();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Samples of one metric, kept per input variant. Its value is the median
// over variants of one statistic per variant, so a run's result does not
// depend on how often each variant happened to run.
class PerVariant {
 public:
  explicit PerVariant(size_t variants) : samples_(variants) {}
  void Add(size_t variant, double x) { samples_[variant].push_back(x); }
  // Median over variants of each variant's median.
  double MedianOfMedians() const { return Over(Median); }
  // Median over variants of each variant's smallest sample.
  double MedianOfMinima() const {
    return Over([](std::vector<double> v) { return *std::min_element(v.begin(), v.end()); });
  }

 private:
  template <typename Stat>
  double Over(Stat stat) const {
    std::vector<double> per_variant;
    for (const std::vector<double>& s : samples_) {
      if (!s.empty()) {
        per_variant.push_back(stat(s));
      }
    }
    return Median(per_variant);
  }

  std::vector<std::vector<double>> samples_;
};

// Quantile q in [0, 1] of raw samples, interpolated between ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed beside the value, not in the JSON
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back(Metric{name, value, unit, note});
  }
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0,
                    metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// One input set of a workload and its reference answers.
struct Variant {
  Inputs inputs;
  std::vector<std::optional<QueryResult>> reference;
};

// A served workload: its configuration and its input variants. A run
// cycles through the variants, so its medians average over many hotspot
// sets (or arrival streams) drawn on the seed's graph, not over one.
struct Served {
  WorkloadSpec spec;
  std::vector<Variant> variants;
};

// Draws the workload's variants and computes their reference answers, one
// thread per variant (this is input preparation; nothing is timed yet).
Served Serve(const WorkloadSpec& spec, const Graph& graph, uint64_t seed) {
  Served s;
  s.spec = spec;
  s.variants.resize(spec.variants);
  for (size_t i = 0; i < spec.variants; ++i) {
    // Variant 0 draws from the seed itself; the rest from derived seeds.
    s.variants[i].inputs = MakeInputs(spec, graph, seed ^ (i * 0x9E3779B97F4A7C15ull));
  }
  std::vector<std::thread> workers;
  for (Variant& v : s.variants) {
    workers.emplace_back([&graph, &v] {
      v.reference =
          ReferenceAnswers(graph, v.inputs.queries, ChangedNodes(graph, v.inputs.writes));
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  return s;
}

// The fixed state of one benchmark process.
struct Bench {
  uint64_t seed = 0;
  Setup setup;
  Served main;  // the workload, on the threaded engine
  Served sim;   // sim-hotspot, on the simulated engine
  CheckReport check;
};

// Checks one finished engine run against the references.
void CheckRun(Bench& b, const Served& served, const Variant& v, ClusterEngine& engine,
              const ClusterMetrics& m) {
  CheckReport r;
  CheckAnswers(v.inputs.queries, v.reference, engine.answers(), m.queries_shed, &r);
  if (served.spec.open_loop) {
    CheckWrites(b.setup.graph, v.inputs.writes, m.mutations_applied, engine.storage(), &r);
  }
  b.check.Merge(r);
}

// Hands the memory an engine run freed back to the system, so the peak
// resident set is that of one run, not of allocator leftovers.
void ReleaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

// The virtual-time outputs of a simulated run, compared bit for bit.
std::vector<double> VirtualOutputs(const ClusterMetrics& m) {
  return {static_cast<double>(m.queries), m.makespan_us, m.throughput_qps,
          m.mean_response_ms, m.p50_response_ms, m.p99_response_ms, m.p999_response_ms,
          m.mean_queue_wait_ms, static_cast<double>(m.cache_hits),
          static_cast<double>(m.cache_misses), static_cast<double>(m.storage_batches),
          static_cast<double>(m.bytes_from_storage), static_cast<double>(m.steals),
          static_cast<double>(m.mutations_applied), static_cast<double>(m.index_refreshes),
          m.decompress_us};
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ----------------------------------------------------------- untraced run

struct ThreadedSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t evictions = 0;  // summed over the processors' caches
  ClusterMetrics m;
};

ThreadedSample RunThreadedOnce(Bench& b, const Variant& v, Probes* probes,
                               int64_t* run_start_ns) {
  ThreadedSample s;
  {
    EngineRun run = MakeEngineRun(EngineKind::kThreaded, b.main.spec, b.setup,
                                  v.inputs.writes, b.seed, probes);
    const double cpu0 = CpuSeconds();
    if (run_start_ns != nullptr) {
      *run_start_ns = NowNs();
    }
    const auto start = Clock::now();
    s.m = run.engine->Run(v.inputs.queries);
    s.wall_s = SecondsSince(start);
    s.cpu_s = CpuSeconds() - cpu0;
    CheckRun(b, b.main, v, *run.engine, s.m);
    for (uint32_t p = 0; p < b.main.spec.processors; ++p) {
      s.evictions += run.engine->processor(p).cache()->stats().evictions;
    }
  }
  ReleaseFreedMemory();
  return s;
}

struct SimSample {
  double wall_s = 0.0;
  ClusterMetrics m;
};

SimSample RunSimOnce(Bench& b, const Variant& v, Probes* probes) {
  SimSample s;
  {
    EngineRun run = MakeEngineRun(EngineKind::kSimulated, b.sim.spec, b.setup,
                                  v.inputs.writes, b.seed, probes);
    const auto start = Clock::now();
    s.m = run.engine->Run(v.inputs.queries);
    s.wall_s = SecondsSince(start);
    CheckRun(b, b.sim, v, *run.engine, s.m);
  }
  ReleaseFreedMemory();
  return s;
}

void RunUntraced(Bench& b, double seconds, double setup_s, Report* report) {
  // The simulated engine (sim-hotspot) runs every variant once, for its
  // virtual outputs, and variant 0 a second time, which must reproduce the
  // first bit for bit. The rest of the budget goes to the threaded engine
  // on fresh, cold clusters, cycling through the variants.
  const size_t n_main = b.main.variants.size();
  const size_t n_sim = b.sim.variants.size();
  const auto start = Clock::now();

  std::vector<double> virtual_qps, virtual_p99, first_virtual;
  for (size_t v = 0; v <= n_sim; ++v) {
    const SimSample s = RunSimOnce(b, b.sim.variants[v % n_sim], nullptr);
    if (v == n_sim) {
      if (!SameBits(first_virtual, VirtualOutputs(s.m))) {
        b.check.Fail(1, "simulated runs of identical inputs differ");
      }
      break;
    }
    if (v == 0) {
      first_virtual = VirtualOutputs(s.m);
    }
    virtual_qps.push_back(s.m.throughput_qps);
    virtual_p99.push_back(s.m.p99_response_ms * 1e3);
  }

  PerVariant qps(n_main), p50(n_main), p99(n_main), p999(n_main), cpu_per_q(n_main);
  size_t threaded_runs = 0;
  uint64_t samples = 0;
  // Peak resident set through setup, input preparation and one threaded
  // run of every variant. Later runs do not raise it much, but would make
  // it depend on how many runs fit into the budget.
  double peak_rss_mb = 0.0;
  while (threaded_runs < n_main || SecondsSince(start) < seconds) {
    const size_t v = threaded_runs++ % n_main;
    const ThreadedSample s = RunThreadedOnce(b, b.main.variants[v], nullptr, nullptr);
    const double answered = static_cast<double>(s.m.queries);
    qps.Add(v, answered / s.wall_s);
    p50.Add(v, s.m.p50_response_ms * 1e3);
    p99.Add(v, s.m.p99_response_ms * 1e3);
    p999.Add(v, s.m.p999_response_ms * 1e3);
    cpu_per_q.Add(v, s.cpu_s * 1e6 / answered);
    samples += s.m.queries;
    if (threaded_runs == n_main) {
      peak_rss_mb = PeakRssMb();
    }
  }

  const std::string runs = "median over " + std::to_string(n_main) +
                           " input variants of their median, " +
                           std::to_string(threaded_runs) + " runs";
  const std::string per_run = "per-run percentiles of " +
                              std::to_string(samples / threaded_runs) + " samples, " + runs;
  report->Add("setup_s", setup_s, "s",
              "median of " + std::to_string(kSetupRepeats) + " setups");
  report->Add("peak_rss_mb", peak_rss_mb, "MB",
              "through setup and one run of each input variant");
  report->Add("throughput_qps", qps.MedianOfMedians(), "q/s", runs);
  report->Add("p50_us", p50.MedianOfMedians(), "us", per_run);
  report->Add("p99_us", p99.MedianOfMedians(), "us",
              b.main.spec.open_loop ? per_run + "; service time (dispatch->completion), "
                                                "not due->completion"
                                    : per_run);
  report->Add("cpu_us_per_query", cpu_per_q.MedianOfMedians(), "us", runs);
  report->Add("sim_virtual_qps", Median(virtual_qps), "q/s",
              "sim-hotspot: median over variants, deterministic per seed");
  report->Add("sim_virtual_p99_us", Median(virtual_p99), "us",
              "sim-hotspot: median over variants, deterministic per seed");
  std::printf("  %-32s %14.6g %-6s %s (not gated: too few samples beyond it)\n", "p999_us",
              p999.MedianOfMedians(), "us", per_run.c_str());
}

// ------------------------------------------------------------- traced run

// Per-layer totals of one single-threaded replay pass.
struct ReplayPass {
  double wall_ns = 0.0;  // the whole replay loop
  double reads = 0.0;
  double writes = 0.0;
  double routing_ns = 0.0;
  double query_ns = 0.0;
  double proc_ns = 0.0;
  double storage_ns = 0.0;
  double write_ns = 0.0;
  double index_ns = 0.0;
  double refreshes = 0.0;
  double decode_ns = 0.0;
  double batches = 0.0;
  double batch_values = 0.0;
  double bytes = 0.0;
  double visited = 0.0;
  SpanLog log;
};

// Replays a workload's inputs in arrival order through the public layer
// functions: Route, then ExecuteQuery over a TimedSource around each
// processor's CachedStorageSource, whose multigets run in a TimedExecutor;
// writes go to StorageTier::ApplyMutation, and the index maintainer runs
// over the nodes they dirtied at the engine's refresh cadence. Answers and
// the final adjacency are checked like an engine run's.
ReplayPass Replay(Bench& b, const WorkloadSpec& spec, const Variant& v) {
  const auto& queries = v.inputs.queries;
  const auto& writes = v.inputs.writes;
  const ClusterConfig config = MakeConfig(spec, b.setup.graph);
  ReplayPass pass;
  pass.log.Reserve(queries.size() * 12 + writes.size());

  StorageTier tier(config.num_storage_servers);
  tier.set_encoding(config.adjacency_encoding);
  tier.set_retain_wire(config.processor.cache_compressed);
  if (config.enable_mutations) {
    tier.EnableMutations(b.setup.graph);
  }
  tier.LoadGraph(b.setup.graph);

  TimedExecutor executor(&pass.log);
  std::vector<std::unique_ptr<NodeCache<CachedAdjacency>>> caches;
  std::vector<std::unique_ptr<CachedStorageSource>> sources;
  std::vector<std::unique_ptr<TimedSource>> timed;
  for (uint32_t p = 0; p < spec.processors; ++p) {
    caches.push_back(std::make_unique<NodeCache<CachedAdjacency>>(
        config.processor.cache_bytes, config.processor.cache_policy));
    sources.push_back(std::make_unique<CachedStorageSource>(
        &tier, caches.back().get(), 1, config.processor.cache_compressed));
    sources.back()->set_fetch_executor(&executor);
    timed.push_back(std::make_unique<TimedSource>(sources.back().get(), &pass.log));
  }
  // With writes, routing reads a copy of the embedding that the maintainer
  // refreshes, as on the engine.
  const GraphEmbedding* embedding = b.setup.embedding.get();
  std::unique_ptr<GraphEmbedding> refreshed;
  IndexMaintainer maintainer;
  if (config.enable_mutations) {
    refreshed = std::make_unique<GraphEmbedding>(*b.setup.embedding);
    embedding = refreshed.get();
    maintainer = MakeMaintainer(b.setup.graph, refreshed.get(),
                                std::make_shared<LandmarkSet>(*b.setup.landmarks));
  }
  auto sink = std::make_shared<RouteSink>();
  sink->route_call_ns.reserve(queries.size());
  TimedStrategy strategy(MakeStrategy(spec, embedding, b.seed), sink, &pass.log);
  const std::vector<uint32_t> zero_load(spec.processors, 0);
  RouterContext ctx;
  ctx.num_processors = spec.processors;
  ctx.queue_lengths = zero_load;

  std::vector<AnsweredQuery> answers;
  answers.reserve(queries.size());
  std::vector<NodeId> dirty;
  double last_refresh_us = -std::numeric_limits<double>::infinity();
  const auto apply = [&](const GraphMutation& m) {
    const int64_t start = NowNs();
    tier.ApplyMutation(m);
    pass.log.Add(Layer::kWrite, start, NowNs());
    dirty.push_back(m.u);
    if (m.v != kInvalidNode) {
      dirty.push_back(m.v);
    }
  };
  size_t wi = 0;
  const int64_t loop_start = NowNs();
  for (const Query& q : queries) {
    while (wi < writes.size() && writes[wi].apply_us < q.arrive_us) {
      apply(writes[wi++]);
    }
    if (maintainer && !dirty.empty() &&
        q.arrive_us - last_refresh_us >= config.index_refresh_period_us) {
      std::sort(dirty.begin(), dirty.end());
      dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
      const int64_t start = NowNs();
      maintainer(dirty);
      pass.log.Add(Layer::kIndex, start, NowNs(), dirty.size());
      dirty.clear();
      last_refresh_us = q.arrive_us;
    }
    pass.log.set_query(q.id);
    const uint32_t p = strategy.Route(q.node, ctx);
    strategy.OnDispatch(q.node, p, p);
    timed[p]->ResetTrace();
    const int64_t start = NowNs();
    QueryResult result = ExecuteQuery(q, *timed[p]);
    pass.log.Add(Layer::kQuery, start, NowNs());
    const FetchTrace& t = timed[p]->trace();
    pass.decode_ns += t.decompress_us * 1e3;
    pass.bytes += static_cast<double>(t.bytes_fetched);
    pass.visited += static_cast<double>(t.visited);
    answers.push_back(AnsweredQuery{q.id, p, result});
  }
  while (wi < writes.size()) {
    apply(writes[wi++]);
  }
  pass.wall_ns = static_cast<double>(NowNs() - loop_start);

  CheckReport r;
  CheckAnswers(queries, v.reference, answers, 0, &r);
  if (spec.open_loop) {
    CheckWrites(b.setup.graph, writes, writes.size(), tier, &r);
  }
  b.check.Merge(r);

  pass.reads = static_cast<double>(queries.size());
  pass.writes = static_cast<double>(writes.size());
  for (const Span& s : pass.log.spans()) {
    const auto ns = static_cast<double>(s.end_ns - s.start_ns);
    switch (s.layer) {
      case Layer::kRouting:
        pass.routing_ns += ns;
        break;
      case Layer::kQuery:
        pass.query_ns += ns;
        break;
      case Layer::kProc:
        pass.proc_ns += ns;
        break;
      case Layer::kStorage:
        pass.storage_ns += ns;
        pass.batches += 1.0;
        pass.batch_values += static_cast<double>(s.value);
        break;
      case Layer::kWrite:
        pass.write_ns += ns;
        break;
      case Layer::kIndex:
        pass.index_ns += ns;
        pass.refreshes += 1.0;
        break;
    }
  }
  return pass;
}

// Self time of each layer over one replay pass (ns): a span minus the child
// spans inside it. Proc spans sit inside query spans; storage spans and the
// FetchTrace's decode time sit inside proc spans.
struct SelfTimes {
  double routing = 0.0;
  double query = 0.0;
  double proc = 0.0;
  double storage = 0.0;
  double decode = 0.0;
  double write = 0.0;
  double index = 0.0;

  double Sum() const { return routing + query + proc + storage + decode + write + index; }
};

SelfTimes SelfTimesOf(const ReplayPass& p) {
  SelfTimes s;
  s.routing = p.routing_ns;
  s.query = p.query_ns - p.proc_ns;
  s.proc = p.proc_ns - p.storage_ns - p.decode_ns;
  s.storage = p.storage_ns;
  s.decode = p.decode_ns;
  s.write = p.write_ns;
  s.index = p.index_ns;
  return s;
}

// The replays' attribution: how far the layer self times miss each pass's
// wall time, and how far below zero a nested layer's self time falls (a
// span counted under the wrong parent), both as shares of the wall time.
struct Attribution {
  double worst_miss = 0.0;
  double worst_negative = 0.0;

  void Add(const ReplayPass& p) {
    const SelfTimes s = SelfTimesOf(p);
    worst_miss = std::max(worst_miss, std::abs(s.Sum() - p.wall_ns) / p.wall_ns);
    worst_negative = std::max(worst_negative, -std::min(s.query, s.proc) / p.wall_ns);
  }
  // Fails the run when the self times miss the wall time by more than 5%,
  // or a self time is negative beyond timer noise (1% of the wall time).
  void Check(CheckReport* check) const {
    if (worst_miss > 0.05) {
      check->Fail(1, "replay layer self times miss the replay wall time by " +
                         std::to_string(100.0 * worst_miss) + "%");
    }
    if (worst_negative > 0.01) {
      check->Fail(1, "a replay layer's self time is negative by " +
                         std::to_string(100.0 * worst_negative) + "% of the wall time");
    }
  }
};

void RunTraced(Bench& b, double seconds, const std::vector<SetupTimes>& setups,
               const std::string& span_path, Report* report) {
  const WorkloadSpec& spec = b.main.spec;
  const size_t n_main = b.main.variants.size();
  const CostModel cost = MakeConfig(spec, b.setup.graph).cost;
  const auto start = Clock::now();

  // (a) Engine runs for ~40% of the budget: a plain and a probed run of
  // each variant in turn; their wall times give the probes' overhead.
  std::vector<double> overhead_pct;
  std::map<std::string, std::vector<double>> eng;
  uint64_t engine_refreshes = 0;  // open loop: the engine's maintainer passes
  int64_t engine_refresh_ns = 0;
  while (overhead_pct.size() < n_main ||
         SecondsSince(start) < seconds * 0.40) {
    const Variant& v = b.main.variants[overhead_pct.size() % n_main];
    const std::vector<Query>& queries = v.inputs.queries;
    const double plain_wall = RunThreadedOnce(b, v, nullptr, nullptr).wall_s;
    Probes probes;
    probes.route->route_call_ns.reserve(queries.size());
    int64_t run_start_ns = 0;
    const ThreadedSample s = RunThreadedOnce(b, v, &probes, &run_start_ns);
    overhead_pct.push_back(100.0 * (s.wall_s - plain_wall) / plain_wall);
    const RouteSink& rs = *probes.route;
    const ClusterMetrics& m = s.m;
    const double answered = static_cast<double>(m.queries);
    // Route lag: the k-th Route call serves the k-th arrival (one router
    // shard, FIFO), due at its open-loop time or, in a closed batch, at
    // the start of Run().
    std::vector<double> lag_us;
    lag_us.reserve(rs.route_call_ns.size());
    for (size_t k = 0; k < rs.route_call_ns.size() && k < queries.size(); ++k) {
      const double due_us = std::max(0.0, queries[k].arrive_us);
      lag_us.push_back(static_cast<double>(rs.route_call_ns[k] - run_start_ns) / 1e3 -
                       due_us);
    }
    eng["routing.route_ns"].push_back(static_cast<double>(rs.route_ns_total) /
                                      static_cast<double>(std::max<uint64_t>(1, rs.routes)));
    eng["frontend.route_lag_p50_us"].push_back(Quantile(lag_us, 0.50));
    eng["frontend.route_lag_p99_us"].push_back(Quantile(lag_us, 0.99));
    eng["routing.on_target_frac"].push_back(
        1.0 - static_cast<double>(rs.off_target) /
                  static_cast<double>(std::max<uint64_t>(1, rs.dispatches)));
    eng["runtime.steals"].push_back(static_cast<double>(m.steals));
    eng["runtime.queue_wait_us"].push_back(m.mean_queue_wait_ms * 1e3);
    const double busiest = static_cast<double>(
        *std::max_element(m.queries_per_processor.begin(), m.queries_per_processor.end()));
    eng["runtime.proc_imbalance"].push_back(
        busiest * static_cast<double>(m.queries_per_processor.size()) / answered);
    eng["cache.hit_rate"].push_back(m.CacheHitRate());
    eng["cache.lookups_per_query"].push_back(
        static_cast<double>(m.cache_hits + m.cache_misses) / answered);
    eng["cache.evictions"].push_back(static_cast<double>(s.evictions));
    eng["cache.entries"].push_back(static_cast<double>(m.cache_entries));
    eng["storage.load_imbalance"].push_back(m.storage_load_imbalance);
    eng["codec.compression_ratio"].push_back(m.adjacency_compression_ratio);
    engine_refreshes += probes.maintainer->calls;
    engine_refresh_ns += probes.maintainer->total_ns;
  }

  // (b) Single-threaded replays, cycling through the variants, for ~20% of
  // the budget.
  std::vector<ReplayPass> passes;
  const auto replay_start = Clock::now();
  while (passes.empty() || SecondsSince(replay_start) < seconds * 0.20) {
    passes.push_back(Replay(b, spec, b.main.variants[passes.size() % n_main]));
  }
  std::map<std::string, std::vector<double>> rep;
  Attribution attribution;
  for (const ReplayPass& p : passes) {
    attribution.Add(p);
    const SelfTimes self = SelfTimesOf(p);
    const double reads = std::max(1.0, p.reads);
    rep["proc.fetch_us_per_query"].push_back(p.proc_ns / 1e3 / reads);
    rep["proc.self_us_per_query"].push_back(self.proc / 1e3 / reads);
    rep["proc.batches_per_query"].push_back(p.batches / reads);
    rep["proc.bytes_per_query"].push_back(p.bytes / reads);
    rep["storage.multiget_us_per_batch"].push_back(p.storage_ns / 1e3 /
                                                   std::max(1.0, p.batches));
    rep["storage.values_per_batch"].push_back(p.batch_values / std::max(1.0, p.batches));
    rep["codec.decode_us_per_query"].push_back(p.decode_ns / 1e3 / reads);
    rep["query.self_us_per_query"].push_back(self.query / 1e3 / reads);
    rep["query.visited_per_query"].push_back(p.visited / reads);
    rep["net.wire_wait_us_per_query"].push_back(
        (2.0 * cost.net.one_way_us * p.batches + cost.net.per_kb_us * p.bytes / 1024.0) /
        reads);
    rep["replay.us_per_query"].push_back(p.wall_ns / 1e3 / reads);
  }
  if (!span_path.empty() && !passes.back().log.WriteCsv(span_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", span_path.c_str());
  }

  // (c) The write path and index maintenance, which the closed batches do
  // not exercise: a single-threaded replay of an openloop-rw input variant
  // drawn from the seed. Its writes go through StorageTier::ApplyMutation,
  // the maintainer runs over the nodes they dirtied, and its reads and the
  // final adjacency are checked.
  Served rw_owned;
  const Served* rw = &b.main;
  if (!spec.open_loop) {
    WorkloadSpec rw_spec = *FindWorkload("openloop-rw");
    rw_spec.variants = 1;
    rw_owned = Serve(rw_spec, b.setup.graph, b.seed);
    rw = &rw_owned;
  }
  const ReplayPass writes = Replay(b, rw->spec, rw->variants[0]);
  attribution.Add(writes);
  attribution.Check(&b.check);

  // (d) Simulated runs, plain and probed in pairs: the probes must leave
  // every virtual output bit-identical. The simulator executes every query
  // for real before replaying its cost in virtual time; a replay of the
  // same variant measures that execution, and the rest of the simulator's
  // wall time is its own.
  std::map<size_t, double> replay_exec_us;  // variant -> route + execute per read
  std::vector<double> sim_self_us;
  const size_t n_sim = b.sim.variants.size();
  PerVariant sim_wall_us(n_sim);
  size_t pairs = 0;
  const auto sim_start = Clock::now();
  const double sim_budget = std::max(0.0, seconds * 0.95 - SecondsSince(start));
  while (pairs == 0 || SecondsSince(sim_start) < sim_budget) {
    const size_t vi = pairs % n_sim;
    const Variant& v = b.sim.variants[vi];
    const SimSample plain = RunSimOnce(b, v, nullptr);
    Probes probes;
    const SimSample probed = RunSimOnce(b, v, &probes);
    if (!SameBits(VirtualOutputs(plain.m), VirtualOutputs(probed.m))) {
      b.check.Fail(1, "probes changed the simulated run's virtual outputs");
    }
    if (replay_exec_us.count(vi) == 0) {
      const ReplayPass p = Replay(b, b.sim.spec, v);
      replay_exec_us[vi] = (p.routing_ns + p.query_ns) / 1e3 / std::max(1.0, p.reads);
    }
    const double wall_us = plain.wall_s * 1e6 / static_cast<double>(plain.m.queries);
    sim_wall_us.Add(vi, wall_us);
    sim_self_us.push_back(wall_us - replay_exec_us[vi]);
    ++pairs;
  }

  // (e) The codec on its own: decode every stored blob of the workload's
  // wire format.
  std::vector<std::vector<uint8_t>> blobs;
  double edges = 0.0;
  blobs.reserve(b.setup.graph.num_nodes());
  for (NodeId u = 0; u < b.setup.graph.num_nodes(); ++u) {
    blobs.push_back(EncodeAdjacency(b.setup.graph, u, spec.encoding));
    edges += static_cast<double>(b.setup.graph.Degree(u));
  }
  std::vector<double> medges_per_s;
  for (int round = 0; round < 3; ++round) {
    size_t decoded_edges = 0;
    const auto decode_start = Clock::now();
    for (const auto& blob : blobs) {
      const AdjacencyPtr e = DecodeAdjacency(blob);
      decoded_edges += e->out.size() + e->in.size();
    }
    const double s = SecondsSince(decode_start);
    if (static_cast<double>(decoded_edges) != edges) {
      b.check.Fail(1, "decoded edge count differs from the graph");
    }
    medges_per_s.push_back(edges / s / 1e6);
  }

  const auto median_of = [](const std::map<std::string, std::vector<double>>& m,
                            const std::string& key) { return Median(m.at(key)); };
  const std::string eng_note = "median of " + std::to_string(overhead_pct.size()) +
                               " probed threaded runs";
  const std::string rep_note =
      "median of " + std::to_string(passes.size()) + " single-threaded replays";
  const auto add_eng = [&](const std::string& name, const std::string& unit) {
    report->Add(name, median_of(eng, name), unit, eng_note);
  };
  const auto add_rep = [&](const std::string& name, const std::string& unit) {
    report->Add(name, median_of(rep, name), unit, rep_note);
  };
  std::vector<double> graph_s, landmarks_s, index_s, embed_s, load_s;
  for (const SetupTimes& t : setups) {
    graph_s.push_back(t.graph_s);
    landmarks_s.push_back(t.landmarks_s);
    index_s.push_back(t.index_s);
    embed_s.push_back(t.embed_s);
    load_s.push_back(t.load_s);
  }

  add_eng("routing.route_ns", "ns");
  add_eng("frontend.route_lag_p50_us", "us");
  add_eng("frontend.route_lag_p99_us", "us");
  add_eng("routing.on_target_frac", "ratio");
  add_eng("runtime.steals", "count");
  add_eng("runtime.queue_wait_us", "us");
  add_eng("runtime.proc_imbalance", "ratio");
  add_eng("cache.hit_rate", "ratio");
  add_eng("cache.lookups_per_query", "count");
  add_eng("cache.evictions", "count");
  add_eng("cache.entries", "count");
  add_rep("proc.fetch_us_per_query", "us");
  add_rep("proc.self_us_per_query", "us");
  add_rep("proc.batches_per_query", "count");
  add_rep("proc.bytes_per_query", "B");
  add_rep("storage.multiget_us_per_batch", "us");
  add_rep("storage.values_per_batch", "count");
  add_eng("storage.load_imbalance", "ratio");
  const std::string rw_note = "one openloop-rw replay: " +
                              std::to_string(static_cast<uint64_t>(writes.writes)) +
                              " writes, " +
                              std::to_string(static_cast<uint64_t>(writes.refreshes)) +
                              " index passes";
  report->Add("storage.write_us", writes.write_ns / 1e3 / std::max(1.0, writes.writes), "us",
              rw_note + "; ApplyMutation wall per write");
  add_rep("codec.decode_us_per_query", "us");
  report->Add("codec.decode_medges_per_s", Median(medges_per_s), "Medges/s",
              "decode of every " + AdjacencyEncodingName(spec.encoding) + " blob, median of 3");
  add_eng("codec.compression_ratio", "ratio");
  add_rep("query.self_us_per_query", "us");
  add_rep("query.visited_per_query", "count");
  add_rep("net.wire_wait_us_per_query", "us");
  report->Add("index.refreshes", writes.refreshes, "count", rw_note);
  report->Add("index.refresh_us", writes.index_ns / 1e3 / std::max(1.0, writes.refreshes),
              "us", rw_note + "; maintainer wall per pass");
  // The simulator is single-threaded and deterministic: runs of one input
  // differ only by what else the host was doing, so a variant's fastest
  // run is its cost.
  report->Add("sim.wall_us_per_query", sim_wall_us.MedianOfMinima(), "us",
              "sim-hotspot Run() wall/query, median over variants of their fastest run");
  report->Add("sim.self_us_per_query", Median(sim_self_us), "us",
              "sim-hotspot wall/query minus its replay's route+execute/query");
  report->Add("setup.graph_s", Median(graph_s), "s");
  report->Add("setup.landmarks_s", Median(landmarks_s), "s");
  report->Add("setup.index_s", Median(index_s), "s");
  report->Add("setup.embed_s", Median(embed_s), "s");
  report->Add("setup.load_s", Median(load_s), "s");
  report->Add("obs.trace_overhead_pct", Median(overhead_pct), "%",
              "probed minus plain threaded Run() wall, median over pairs");
  std::printf("  replay: %.1f us/query wall; layer self times sum within %.2f%% of it "
              "(limit 5%%), none below zero by more than %.2f%% (limit 1%%); %llu sim "
              "pairs bit-identical with probes\n",
              median_of(rep, "replay.us_per_query"), 100.0 * attribution.worst_miss,
              100.0 * attribution.worst_negative, static_cast<unsigned long long>(pairs));
  if (spec.open_loop) {
    std::printf("  engine runs: %llu index passes, %.1f us per pass (timed maintainer)\n",
                static_cast<unsigned long long>(engine_refreshes),
                static_cast<double>(engine_refresh_ns) / 1e3 /
                    static_cast<double>(std::max<uint64_t>(1, engine_refreshes)));
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) {
      names += (names.empty() ? "" : "|") + n;
    }
    std::fprintf(stderr,
                 "usage: perfbench --workload <%s> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n",
                 names.c_str());
    return 2;
  }
  const WorkloadSpec spec = *FindWorkload(args.workload);
  Bench b;
  b.seed = args.seed;

  // Set up several times; setup_s is the median total. The last setup's
  // state serves the runs.
  std::vector<SetupTimes> setups;
  std::vector<double> totals;
  for (int i = 0; i < kSetupRepeats; ++i) {
    b.setup = Setup{};
    ReleaseFreedMemory();
    b.setup = RunSetup(spec, b.seed);
    setups.push_back(b.setup.times);
    totals.push_back(b.setup.times.Total());
  }
  const auto inputs_start = Clock::now();
  b.main = Serve(spec, b.setup.graph, b.seed);
  if (spec.open_loop) {
    b.sim = Serve(SimHotspotSpec(), b.setup.graph, b.seed);
  } else {
    // Closed hotspot workloads draw the very inputs sim-hotspot uses.
    b.sim.spec = SimHotspotSpec();
    b.sim.variants.assign(b.main.variants.begin(),
                          b.main.variants.begin() + b.sim.spec.variants);
  }
  const double inputs_s = SecondsSince(inputs_start);

  const Inputs& in = b.main.variants[0].inputs;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("  graph: %zu nodes, %zu edges; %zu input variants of about %zu reads and "
              "%zu writes; sim-hotspot: %zu variants of %zu reads; inputs and "
              "reference answers took %.2f s\n",
              b.setup.graph.num_nodes(), b.setup.graph.num_edges(), b.main.variants.size(),
              in.queries.size(), in.writes.size(), b.sim.variants.size(),
              b.sim.variants[0].inputs.queries.size(), inputs_s);

  Report report;
  if (args.trace == 0) {
    RunUntraced(b, args.seconds, Median(totals), &report);
  } else {
    RunTraced(b, args.seconds, setups, args.spans, &report);
  }
  report.Print();
  const double error_rate =
      static_cast<double>(b.check.failed) / static_cast<double>(std::max<uint64_t>(1, b.check.attempted));
  std::printf("  %-32s %14.6g %-6s %llu failed of %llu operations; %llu reads compared\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(b.check.failed),
              static_cast<unsigned long long>(b.check.attempted),
              static_cast<unsigned long long>(b.check.reads_compared));
  for (const std::string& p : b.check.problems) {
    std::printf("  FAILED: %s\n", p.c_str());
  }
  const bool correct = b.check.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(b.check.attempted),
              static_cast<unsigned long long>(b.check.failed), report.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace grouting::perfbench

int main(int argc, char** argv) { return grouting::perfbench::Main(argc, argv); }

