// Parallel violation detection: fans the per-rule full-graph matching of
// DetectAll across a ThreadPool, with bit-identical output to the
// sequential path regardless of thread count.
//
// Two levels of fan-out:
//   (a) rule-level — each rule's full-graph match is an independent task;
//   (b) shard-level — a rule whose seed-candidate set is large is split
//       into per-seed anchored searches over contiguous block ranges of
//       Matcher::SeedCandidates(). The split is the same over every view:
//       the live Graph, a GraphSnapshot or a ShardedSnapshot.
//
// Determinism: the sequential matcher explores seeds in ascending-id order
// and each seed's subtree deterministically, so block shards concatenated
// in (rule id, shard index) order reproduce the exact sequential emission
// stream for any shard x thread combination. Workers only read the graph;
// emission happens on the calling thread after all tasks complete. Every
// task builds its own Matcher, which compiles the bodies its searches need
// (one per anchor shape) — nothing compiled is shared across workers.
//
// Concurrency contract (DESIGN.md "Threading model"): the graph, rule set
// and vocabulary must not be mutated while Detect runs. Workers read the
// view they are handed — the live Graph included: its const reads never
// write, and matching never interns symbols (see Vocabulary::LookupOnly).
#ifndef GREPAIR_PARALLEL_PARALLEL_DETECTOR_H_
#define GREPAIR_PARALLEL_PARALLEL_DETECTOR_H_

#include <functional>

#include "graph/graph_view.h"
#include "grr/rule.h"
#include "match/matcher.h"
#include "parallel/thread_pool.h"

namespace grepair {

struct ParallelDetectOptions {
  /// Shard a rule only when it has at least this many seed candidates;
  /// below it the per-seed anchor overhead outweighs the parallelism.
  size_t shard_min_seeds = 256;
  /// Upper bound on shards per rule (0 = 2x pool thread count, which keeps
  /// all workers busy when one rule dominates without over-fragmenting).
  size_t max_shards_per_rule = 0;
  /// Expansion budget at which a sharded rule falls back to a sequential
  /// re-run so its truncation point matches the single-budget sequential
  /// search (0 = the MatchOptions default). Tests lower it to exercise the
  /// fallback.
  size_t sequential_budget = 0;
};

/// Stateless fan-out wrapper over one pool. Cheap to construct.
class ParallelDetector {
 public:
  /// Called once per match, in the sequential DetectAll order
  /// (rule id ascending, matches in enumeration order within a rule).
  using Emit = std::function<void(RuleId, const Match&)>;

  explicit ParallelDetector(ThreadPool* pool,
                            ParallelDetectOptions options = {});

  /// Enumerates every match of every rule in `g`. Equivalent to
  ///   for r: Matcher(g, rules[r].pattern()).FindAll(default, emit)
  /// but parallel. Early termination is not supported: emit's return value
  /// is void and the expansion budget is per-task, so `stats.expansions`
  /// can differ from the sequential count — matches never do, even when a
  /// rule hits the expansion budget: a sharded rule whose total expansions
  /// reach the sequential budget is re-run sequentially so its truncation
  /// point matches the single-budget search exactly.
  MatchStats Detect(const GraphView& g, const RuleSet& rules,
                    const Emit& emit) const;

 private:
  ThreadPool* pool_;
  ParallelDetectOptions options_;
};

}  // namespace grepair

#endif  // GREPAIR_PARALLEL_PARALLEL_DETECTOR_H_
