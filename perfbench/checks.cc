#include "perfbench/checks.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

namespace grouting::perfbench {
namespace {

constexpr size_t kMaxProblems = 8;

// Whether any node within `hops` hops of `source` (bi-directed) is marked.
// `stamp` is scratch sized num_nodes, reused across calls via `epoch`.
bool BallTouches(const Graph& g, NodeId source, int32_t hops,
                 const std::vector<uint8_t>& marked, std::vector<uint32_t>* stamp,
                 uint32_t epoch) {
  if (source >= g.num_nodes()) {
    return false;
  }
  std::vector<NodeId> frontier = {source};
  (*stamp)[source] = epoch;
  if (marked[source] != 0) {
    return true;
  }
  for (int32_t level = 0; level < hops && !frontier.empty(); ++level) {
    std::vector<NodeId> next;
    for (const NodeId u : frontier) {
      for (const auto& list : {g.OutNeighbors(u), g.InNeighbors(u)}) {
        for (const Edge& e : list) {
          if ((*stamp)[e.dst] == epoch) {
            continue;
          }
          if (marked[e.dst] != 0) {
            return true;
          }
          (*stamp)[e.dst] = epoch;
          next.push_back(e.dst);
        }
      }
    }
    frontier = std::move(next);
  }
  return false;
}

std::vector<Edge> Sorted(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.label < b.label;
  });
  return edges;
}

// One half of an edge write, with the storage tier's semantics: insert
// appends when absent, remove erases the first match. Returns whether the
// list changed.
bool ApplyHalf(std::vector<Edge>* list, NodeId other, Label label, bool insert) {
  const auto it = std::find_if(list->begin(), list->end(),
                               [other](const Edge& e) { return e.dst == other; });
  if (insert && it == list->end()) {
    list->push_back(Edge{other, label});
    return true;
  }
  if (!insert && it != list->end()) {
    list->erase(it);
    return true;
  }
  return false;
}

using Lists = std::pair<std::vector<Edge>, std::vector<Edge>>;  // out, in

// The write schedule applied in order to the graph: the final adjacency of
// every node it names, and which nodes it changed at some point.
struct ScheduleOutcome {
  std::map<NodeId, Lists> final_lists;
  std::vector<uint8_t> changed;
};

ScheduleOutcome ApplySchedule(const Graph& graph, std::span<const GraphMutation> writes) {
  ScheduleOutcome r;
  r.changed.assign(graph.num_nodes(), 0);
  const auto lists = [&](NodeId u) -> Lists& {
    auto it = r.final_lists.find(u);
    if (it == r.final_lists.end()) {
      const auto out = graph.OutNeighbors(u);
      const auto in = graph.InNeighbors(u);
      it = r.final_lists
               .emplace(u, Lists(std::vector<Edge>(out.begin(), out.end()),
                                 std::vector<Edge>(in.begin(), in.end())))
               .first;
    }
    return it->second;
  };
  for (const GraphMutation& m : writes) {
    if (m.kind == GraphMutation::Kind::kAddVertex) {
      lists(m.u);
      r.changed[m.u] = 1;
      continue;
    }
    const bool insert = m.kind == GraphMutation::Kind::kAddEdge;
    if (ApplyHalf(&lists(m.u).first, m.v, m.label, insert)) {
      r.changed[m.u] = 1;
    }
    if (ApplyHalf(&lists(m.v).second, m.u, m.label, insert)) {
      r.changed[m.v] = 1;
    }
  }
  return r;
}

}  // namespace

void CheckReport::Fail(uint64_t count, const std::string& what) {
  failed += count;
  if (problems.size() < kMaxProblems) {
    problems.push_back(what);
  }
}

void CheckReport::Merge(const CheckReport& other) {
  attempted += other.attempted;
  failed += other.failed;
  reads_compared += other.reads_compared;
  for (const std::string& p : other.problems) {
    if (problems.size() < kMaxProblems) {
      problems.push_back(p);
    }
  }
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.type == b.type && a.aggregate == b.aggregate && a.walk_end == b.walk_end &&
         a.walk_distinct_nodes == b.walk_distinct_nodes && a.reachable == b.reachable &&
         a.distance == b.distance;
}

std::vector<uint8_t> ChangedNodes(const Graph& graph,
                                  std::span<const GraphMutation> writes) {
  return writes.empty() ? std::vector<uint8_t>{} : ApplySchedule(graph, writes).changed;
}

std::vector<std::optional<QueryResult>> ReferenceAnswers(
    const Graph& graph, std::span<const Query> queries,
    const std::vector<uint8_t>& changed) {
  std::vector<uint32_t> stamp(changed.empty() ? 0 : graph.num_nodes(), 0);
  DirectGraphSource source(graph);
  std::vector<std::optional<QueryResult>> out(queries.size());
  uint32_t epoch = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (!changed.empty()) {
      const int32_t radius = std::max(0, q.hops - 1);
      if (BallTouches(graph, q.node, radius, changed, &stamp, ++epoch)) {
        continue;
      }
      if (q.type == QueryType::kReachability &&
          BallTouches(graph, q.target, radius, changed, &stamp, ++epoch)) {
        continue;
      }
    }
    source.ResetTrace();
    out[i] = ExecuteQuery(q, source);
  }
  return out;
}

void CheckAnswers(std::span<const Query> queries,
                  const std::vector<std::optional<QueryResult>>& reference,
                  const std::vector<AnsweredQuery>& answers, uint64_t shed,
                  CheckReport* report) {
  report->attempted += queries.size();
  if (shed > 0) {
    report->Fail(shed, std::to_string(shed) + " arrivals shed");
  }
  std::unordered_map<uint64_t, size_t> position;
  position.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    position.emplace(queries[i].id, i);
  }
  std::vector<uint32_t> seen(queries.size(), 0);
  for (const AnsweredQuery& a : answers) {
    const auto it = position.find(a.query_id);
    if (it == position.end()) {
      report->Fail(1, "answer for unknown query id " + std::to_string(a.query_id));
      continue;
    }
    const size_t i = it->second;
    if (++seen[i] > 1) {
      report->Fail(1, "query " + std::to_string(a.query_id) + " answered twice");
      continue;
    }
    if (reference[i].has_value()) {
      ++report->reads_compared;
      if (!SameResult(*reference[i], a.result)) {
        report->Fail(1, "query " + std::to_string(a.query_id) + " (" +
                            QueryTypeName(queries[i].type) + ") answer differs");
      }
    }
  }
  const auto missing =
      static_cast<uint64_t>(std::count(seen.begin(), seen.end(), 0u));
  if (missing > shed) {
    report->Fail(missing - shed, std::to_string(missing - shed) + " queries unanswered");
  }
}

void CheckWrites(const Graph& graph, std::span<const GraphMutation> writes,
                 uint64_t applied, StorageTier& tier, CheckReport* report) {
  report->attempted += writes.size();
  if (applied != writes.size()) {
    const uint64_t off = applied > writes.size() ? applied - writes.size()
                                                 : writes.size() - applied;
    report->Fail(off, "mutations_applied " + std::to_string(applied) + " != schedule " +
                          std::to_string(writes.size()));
  }
  // The written nodes' adjacency with the schedule applied in order.
  const ScheduleOutcome expected = ApplySchedule(graph, writes);
  uint64_t mismatched = 0;
  NodeId first_bad = kInvalidNode;
  for (const auto& [u, lists] : expected.final_lists) {
    const AdjacencyPtr stored = tier.PeekCurrent(u);
    if (stored == nullptr || Sorted(stored->out) != Sorted(lists.first) ||
        Sorted(stored->in) != Sorted(lists.second)) {
      if (mismatched++ == 0) {
        first_bad = u;
      }
    }
  }
  if (mismatched > 0) {
    report->Fail(mismatched, std::to_string(mismatched) +
                                 " written nodes hold the wrong adjacency (first: " +
                                 std::to_string(first_bad) + ")");
  }
}

}  // namespace grouting::perfbench
