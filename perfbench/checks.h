// Correctness checks the benchmark runs on every engine run's outputs.
// Every failure counts towards the run's error_rate and fails the run.

#ifndef GROUTING_PERFBENCH_CHECKS_H_
#define GROUTING_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/graph/graph.h"
#include "src/query/query.h"
#include "src/storage/storage_tier.h"

namespace grouting::perfbench {

// Operations attempted and failed over one or more runs, with the first
// few failures described.
struct CheckReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads_compared = 0;  // reads checked against the reference
  std::vector<std::string> problems;

  void Fail(uint64_t count, const std::string& what);
  void Merge(const CheckReport& other);
};

bool SameResult(const QueryResult& a, const QueryResult& b);

// Nodes whose adjacency the write schedule changes at some point, applied
// in order with the storage tier's semantics (an insert of a present edge
// or a removal of an absent one leaves the node as it is).
std::vector<uint8_t> ChangedNodes(const Graph& graph, std::span<const GraphMutation> writes);

// Reference answers from ExecuteQuery over DirectGraphSource, parallel to
// `queries`. A read's answer depends only on the adjacency of the nodes
// within hops - 1 of its source (and, for reachability, of its target):
// deeper nodes are counted or label-checked, and edge writes change no
// label. With `changed` non-empty, a read whose such ball holds a changed
// node gets no reference: its answer depends on how it interleaved with
// the writes.
std::vector<std::optional<QueryResult>> ReferenceAnswers(
    const Graph& graph, std::span<const Query> queries,
    const std::vector<uint8_t>& changed = {});

// Every read answered exactly once, and each answer with a reference equal
// to it. Attempted += reads; shed arrivals count as failures.
void CheckAnswers(std::span<const Query> queries,
                  const std::vector<std::optional<QueryResult>>& reference,
                  const std::vector<AnsweredQuery>& answers, uint64_t shed,
                  CheckReport* report);

// The write schedule applied exactly once: `applied` equals its length and
// every written node's final adjacency in `tier` equals the graph with the
// schedule applied in order. Attempted += writes.
void CheckWrites(const Graph& graph, std::span<const GraphMutation> writes,
                 uint64_t applied, StorageTier& tier, CheckReport* report);

}  // namespace grouting::perfbench

#endif  // GROUTING_PERFBENCH_CHECKS_H_
