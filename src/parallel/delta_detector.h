// Batched parallel delta-detection: fans the per-rule DeltaMatcher search of
// an edit batch across a ThreadPool, with bit-identical output to the
// sequential per-rule FindDelta loop regardless of thread count.
//
// Fan-out unit is (rule × anchor-slice): the anchor lists a delta induces
// (DeltaMatcher::ComputeAnchors — pattern-independent, so computed once per
// batch) are split into contiguous blocks, and each (rule, edge-slice) /
// (rule, node-slice) pair is an independent task running the raw anchored
// searches of DeltaMatcher::MatchEdgeAnchors / MatchNodeAnchors once per
// slice. The split is the same over every view, the live Graph included.
//
// Determinism: the sequential FindDelta visits anchor edges in ascending-id
// order, then anchor nodes, each anchored search with its OWN expansion
// budget, deduplicating by match footprint as it goes. Workers collect raw
// (pre-dedup) matches; the calling thread concatenates task outputs in
// that exact visit order and applies the same per-rule footprint dedup, so
// the surviving emission stream — and every stat — equals the sequential
// run for any slice x thread combination. Every task holds its own
// DeltaMatcher, whose one Matcher compiles the bodies of the anchor shapes
// the task searches once and replays them for every anchor of its slice —
// nothing compiled is shared across workers.
//
// Concurrency contract (DESIGN.md "Threading model"): the graph, rule set
// and vocabulary must not be mutated while Detect runs.
#ifndef GREPAIR_PARALLEL_DELTA_DETECTOR_H_
#define GREPAIR_PARALLEL_DELTA_DETECTOR_H_

#include <functional>

#include "graph/edit_log.h"
#include "graph/graph_view.h"
#include "grr/rule.h"
#include "match/incremental.h"
#include "parallel/thread_pool.h"

namespace grepair {

struct ParallelDeltaOptions {
  /// Fan out only when the delta induces at least this many anchors
  /// (nodes + edges); below it the pool round-trip outweighs the work and
  /// the sequential per-rule loop runs on the calling thread instead.
  size_t shard_min_anchors = 16;
  /// Upper bound on anchor slices per (rule, anchor kind); 0 = 2x pool
  /// thread count, which keeps all workers busy when one rule dominates
  /// without over-fragmenting tiny batches.
  size_t max_shards_per_rule = 0;
};

/// Stateless fan-out wrapper over one pool. Cheap to construct.
class ParallelDeltaDetector {
 public:
  /// Called once per surviving match, in the sequential order: rule id
  /// ascending, and within a rule the FindDelta enumeration order.
  using Emit = std::function<void(RuleId, const Match&)>;

  explicit ParallelDeltaDetector(ThreadPool* pool,
                                 ParallelDeltaOptions options = {});

  /// Enumerates, for every rule, every match FindDelta(delta) would report.
  /// Equivalent to
  ///   for r: DeltaMatcher(g, rules[r].pattern()).FindDelta(delta, emit)
  /// but parallel, including identical expansion counts (each anchored
  /// search carries its own budget in both paths). Early termination is not
  /// supported: emit returns void.
  MatchStats Detect(const GraphView& g, const RuleSet& rules,
                    const std::vector<EditEntry>& delta,
                    const Emit& emit) const;

  /// Same fan-out from precomputed anchors, for callers (the serving layer)
  /// that already extracted them for stats.
  MatchStats Detect(const GraphView& g, const RuleSet& rules,
                    const DeltaMatcher::Anchors& anchors,
                    const Emit& emit) const;

 private:
  /// True when a delta with `num_anchors` anchors fans out over the pool
  /// (rather than run the sequential loop on the calling thread).
  bool WouldFanOut(size_t num_anchors) const {
    return pool_ != nullptr && pool_->NumThreads() > 1 &&
           num_anchors >= options_.shard_min_anchors;
  }

  ThreadPool* pool_;
  ParallelDeltaOptions options_;
};

}  // namespace grepair

#endif  // GREPAIR_PARALLEL_DELTA_DETECTOR_H_
