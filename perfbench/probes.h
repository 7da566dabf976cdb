// Outside-in probes for the benchmark's traced run.
//
// Every probe here wraps a public seam of the library and times the calls
// crossing it; none adds a span or a counter inside the program. A probe
// records into a SpanLog kept in memory, and the benchmark turns the log
// into per-layer self times once the run has ended (self time = a span
// minus the part of it its child spans cover).
//
//   TimedStrategy  — RoutingStrategy decorator (Route, OnDispatch, Clone,
//                    GossipState, DecisionCostUs, MergeRemoteState forward)
//   TimedSource    — NodeDataSource wrapper around CachedStorageSource
//   TimedExecutor  — BatchFetchExecutor that runs each multiget in a span
//   TimedMaintainer — IndexMaintainer wrapper

#ifndef GROUTING_PERFBENCH_PROBES_H_
#define GROUTING_PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/query/query.h"
#include "src/routing/strategy.h"
#include "src/storage/storage_tier.h"

namespace grouting::perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// The layers a replay span can belong to.
enum class Layer : uint8_t { kRouting, kQuery, kProc, kStorage, kWrite, kIndex };

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRouting:
      return "routing";
    case Layer::kQuery:
      return "query";
    case Layer::kProc:
      return "proc";
    case Layer::kStorage:
      return "storage";
    case Layer::kWrite:
      return "storage.write";
    case Layer::kIndex:
      return "index";
  }
  return "?";
}

struct Span {
  Layer layer = Layer::kQuery;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t query = 0;  // query id the span belongs to
  uint64_t value = 0;  // layer-specific count (keys in a batch, nodes fetched)
};

// Spans of one single-threaded replay, in the order they ended.
class SpanLog {
 public:
  void Reserve(size_t n) { spans_.reserve(n); }
  void Add(Layer layer, int64_t start_ns, int64_t end_ns, uint64_t value = 0) {
    spans_.push_back(Span{layer, start_ns, end_ns, query_, value});
  }
  void set_query(uint64_t id) { query_ = id; }
  const std::vector<Span>& spans() const { return spans_; }

  // Writes one "layer,start_ns,end_ns,query,value" line per span.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint64_t query_ = 0;
};

// Route-call observations of an engine run. Route and OnDispatch are called
// under the router shard's mutex, so one shard's sink needs no lock of its
// own; the benchmark runs a single router shard.
struct RouteSink {
  std::vector<int64_t> route_call_ns;  // wall clock at each Route call
  int64_t route_ns_total = 0;
  uint64_t routes = 0;
  uint64_t dispatches = 0;
  uint64_t off_target = 0;  // dispatched to another processor than routed
};

// Passive RoutingStrategy decorator: forwards every hook unchanged and
// times Route. Optionally logs Route spans into a replay SpanLog.
class TimedStrategy : public RoutingStrategy {
 public:
  TimedStrategy(std::unique_ptr<RoutingStrategy> inner, std::shared_ptr<RouteSink> sink,
                SpanLog* log = nullptr)
      : inner_(std::move(inner)), sink_(std::move(sink)), log_(log) {}

  std::string name() const override { return inner_->name(); }

  uint32_t Route(NodeId query_node, const RouterContext& ctx) override {
    const int64_t start = NowNs();
    const uint32_t target = inner_->Route(query_node, ctx);
    const int64_t end = NowNs();
    sink_->route_call_ns.push_back(start);
    sink_->route_ns_total += end - start;
    ++sink_->routes;
    if (log_ != nullptr) {
      log_->Add(Layer::kRouting, start, end);
    }
    return target;
  }

  void OnDispatch(NodeId query_node, uint32_t processor,
                  uint32_t routed_processor) override {
    const int64_t start = log_ != nullptr ? NowNs() : 0;
    inner_->OnDispatch(query_node, processor, routed_processor);
    ++sink_->dispatches;
    if (processor != routed_processor) {
      ++sink_->off_target;
    }
    if (log_ != nullptr) {
      log_->Add(Layer::kRouting, start, NowNs());
    }
  }

  std::unique_ptr<RoutingStrategy> Clone() const override {
    auto clone = inner_->Clone();
    if (clone == nullptr) {
      return nullptr;
    }
    // Clones are gossip snapshots or sibling shards: they get a sink of
    // their own so no two threads share one.
    return std::make_unique<TimedStrategy>(std::move(clone),
                                           std::make_shared<RouteSink>());
  }

  void MergeRemoteState(const RoutingStrategy& remote, double weight) override {
    const auto* timed = dynamic_cast<const TimedStrategy*>(&remote);
    inner_->MergeRemoteState(timed != nullptr ? *timed->inner_ : remote, weight);
  }

  std::span<const double> GossipState() const override { return inner_->GossipState(); }

  SimTimeUs DecisionCostUs(const CostModel& cm, uint32_t num_processors) const override {
    return inner_->DecisionCostUs(cm, num_processors);
  }

 private:
  std::unique_ptr<RoutingStrategy> inner_;
  std::shared_ptr<RouteSink> sink_;
  SpanLog* log_;
};

// Runs each submitted multiget inline, inside a storage span.
class TimedExecutor : public BatchFetchExecutor {
 public:
  explicit TimedExecutor(SpanLog* log) : log_(log) {}

  void Submit(std::shared_ptr<MultiGetHandle> handle) override {
    const int64_t start = NowNs();
    handle->Execute();
    log_->Add(Layer::kStorage, start, NowNs(), handle->keys().size());
  }

 private:
  SpanLog* log_;
};

// NodeDataSource wrapper: each FetchBatch is a proc span.
class TimedSource : public NodeDataSource {
 public:
  TimedSource(NodeDataSource* inner, SpanLog* log) : inner_(inner), log_(log) {}

  std::vector<AdjacencyPtr> FetchBatch(std::span<const NodeId> nodes) override {
    const int64_t start = NowNs();
    auto out = inner_->FetchBatch(nodes);
    log_->Add(Layer::kProc, start, NowNs(), nodes.size());
    return out;
  }
  const FetchTrace& trace() const override { return inner_->trace(); }
  void ResetTrace() override { inner_->ResetTrace(); }

 private:
  NodeDataSource* inner_;
  SpanLog* log_;
};

// Index-maintenance passes observed from outside. Passes run on the
// engine's serialised controller context, so the sink needs no lock.
struct MaintainerSink {
  uint64_t calls = 0;
  int64_t total_ns = 0;
};

inline IndexMaintainer TimedMaintainer(IndexMaintainer inner,
                                       std::shared_ptr<MaintainerSink> sink) {
  return [inner = std::move(inner), sink = std::move(sink)](
             std::span<const NodeId> nodes) {
    const int64_t start = NowNs();
    IndexRefreshResult r = inner(nodes);
    sink->total_ns += NowNs() - start;
    ++sink->calls;
    return r;
  };
}

// The sinks one traced engine run records into.
struct Probes {
  std::shared_ptr<RouteSink> route = std::make_shared<RouteSink>();
  std::shared_ptr<MaintainerSink> maintainer = std::make_shared<MaintainerSink>();
};

}  // namespace grouting::perfbench

#endif  // GROUTING_PERFBENCH_PROBES_H_
