#include "parallel/delta_detector.h"

#include <algorithm>
#include <exception>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/ordered_merge.h"

namespace grepair {

namespace {

// One unit of delta-detection work: one anchor slice of one rule, searched
// through either the edge-anchor or the node-anchor path. A slice is a
// contiguous block of the ascending anchor list (unsharded stores) or one
// STORAGE shard's anchor subset (sharded stores, `aligned`), so a task's
// anchored reads stay within the shard owning its anchors. Tasks are
// created in emission order (rule id, edge slices before node slices,
// slice index); each fills only its own slot.
struct DeltaTask {
  RuleId rule;
  bool edge_kind = false;          // true: edge anchors, false: node anchors
  bool aligned = false;            // slice is one storage shard's subset
  std::vector<EdgeId> edge_slice;  // ascending; used when edge_kind
  std::vector<NodeId> node_slice;  // ascending; used when !edge_kind
  // Aligned tasks record matches found per anchor (parallel to the slice),
  // so the merge can interleave shard outputs back into global ascending
  // anchor order.
  std::vector<uint32_t> anchor_counts;
  std::vector<Match> out;          // raw, pre-dedup
  MatchStats stats;
};

void RunTask(const GraphView& g, const RuleSet& rules, DeltaTask* task) {
  const DeltaMatcher dm(g, rules[task->rule].pattern());
  auto collect = [task](const Match& m) {
    task->out.push_back(m);
    return true;
  };
  if (!task->aligned) {
    task->stats = task->edge_kind
                      ? dm.MatchEdgeAnchors(task->edge_slice, collect)
                      : dm.MatchNodeAnchors(task->node_slice, collect);
    return;
  }
  // Aligned: run anchors one at a time to record per-anchor counts. Each
  // anchored search carries its own expansion budget, so any slicing —
  // including single-anchor slices — replays the identical searches.
  auto accumulate = [task](const MatchStats& st) {
    task->stats.expansions += st.expansions;
    task->stats.matches += st.matches;
    task->stats.exhausted |= st.exhausted;
  };
  if (task->edge_kind) {
    std::vector<EdgeId> one(1);
    task->anchor_counts.reserve(task->edge_slice.size());
    for (EdgeId a : task->edge_slice) {
      one[0] = a;
      size_t before = task->out.size();
      accumulate(dm.MatchEdgeAnchors(one, collect));
      task->anchor_counts.push_back(
          static_cast<uint32_t>(task->out.size() - before));
    }
  } else {
    std::vector<NodeId> one(1);
    task->anchor_counts.reserve(task->node_slice.size());
    for (NodeId a : task->node_slice) {
      one[0] = a;
      size_t before = task->out.size();
      accumulate(dm.MatchNodeAnchors(one, collect));
      task->anchor_counts.push_back(
          static_cast<uint32_t>(task->out.size() - before));
    }
  }
}

// Interleaves the raw outputs of one rule's aligned tasks of one anchor
// kind back into global ascending-anchor order via the shared k-way merge
// (anchors are disjoint across shards), feeding each match through the
// caller's dedup filter.
template <typename EmitFn>
void MergeAlignedKind(const std::vector<DeltaTask>& tasks, size_t begin,
                      size_t end, bool edge_kind, const EmitFn& emit_dedup) {
  std::vector<const DeltaTask*> kind;
  for (size_t k = begin; k < end; ++k)
    if (tasks[k].edge_kind == edge_kind) kind.push_back(&tasks[k]);
  auto anchors = [&](size_t t) -> size_t {
    return edge_kind ? kind[t]->edge_slice.size()
                     : kind[t]->node_slice.size();
  };
  std::vector<size_t> out_cur(kind.size(), 0);
  MergeByAscendingKey(
      kind.size(), anchors,
      [&](size_t t, size_t i) {
        return edge_kind ? kind[t]->edge_slice[i] : kind[t]->node_slice[i];
      },
      [&](size_t t, size_t i) {
        for (uint32_t k = 0; k < kind[t]->anchor_counts[i]; ++k)
          emit_dedup(kind[t]->out[out_cur[t]++]);
      });
}

}  // namespace

ParallelDeltaDetector::ParallelDeltaDetector(ThreadPool* pool,
                                             ParallelDeltaOptions options)
    : pool_(pool), options_(options) {}

MatchStats ParallelDeltaDetector::Detect(const GraphView& g, const RuleSet& rules,
                                         const std::vector<EditEntry>& delta,
                                         const Emit& emit) const {
  if (rules.empty()) return MatchStats{};
  // Anchor extraction never reads the pattern, so one computation (through
  // an arbitrary rule's DeltaMatcher) serves the whole rule set.
  return Detect(g, rules,
                DeltaMatcher(g, rules[0].pattern()).ComputeAnchors(delta),
                emit);
}

MatchStats ParallelDeltaDetector::Detect(const GraphView& g, const RuleSet& rules,
                                         const DeltaMatcher::Anchors& anchors,
                                         const Emit& emit) const {
  MatchStats total;
  if (rules.empty()) return total;
  const size_t num_anchors = anchors.nodes.size() + anchors.edges.size();

  // Tiny deltas (the per-fix cascade case) stay on the calling thread: the
  // pool round-trip would dominate a handful of anchored searches.
  if (!WouldFanOut(num_anchors)) {
    for (RuleId r = 0; r < rules.size(); ++r) {
      DeltaMatcher dm(g, rules[r].pattern());
      MatchStats st = dm.FindDelta(anchors, [&](const Match& m) {
        emit(r, m);
        return true;
      });
      total.expansions += st.expansions;
      total.matches += st.matches;
      total.exhausted |= st.exhausted;
    }
    return total;
  }

  const size_t max_shards = options_.max_shards_per_rule
                                ? options_.max_shards_per_rule
                                : 2 * pool_->NumThreads();
  const size_t store_shards = g.NumStorageShards();

  std::vector<DeltaTask> tasks;
  if (store_shards > 1) {
    // Storage-aligned sharding: partition each anchor list ONCE by the
    // owning storage shard (an edge anchor belongs to its src's shard) and
    // give every rule one task per non-empty shard subset. Anchored reads
    // then stay within the columns of the shard that owns the anchor.
    std::vector<std::vector<EdgeId>> edges_by(store_shards);
    for (EdgeId e : anchors.edges)
      edges_by[StorageShardOfNode(g.Edge(e).src, store_shards)].push_back(e);
    std::vector<std::vector<NodeId>> nodes_by(store_shards);
    for (NodeId n : anchors.nodes)
      nodes_by[StorageShardOfNode(n, store_shards)].push_back(n);
    for (RuleId r = 0; r < rules.size(); ++r) {
      for (size_t s = 0; s < store_shards; ++s) {
        if (edges_by[s].empty()) continue;
        DeltaTask t;
        t.rule = r;
        t.edge_kind = true;
        t.aligned = true;
        t.edge_slice = edges_by[s];
        tasks.push_back(std::move(t));
      }
      for (size_t s = 0; s < store_shards; ++s) {
        if (nodes_by[s].empty()) continue;
        DeltaTask t;
        t.rule = r;
        t.edge_kind = false;
        t.aligned = true;
        t.node_slice = nodes_by[s];
        tasks.push_back(std::move(t));
      }
    }
  } else {
    auto num_slices = [&](size_t n) {
      return n == 0 ? size_t{0}
                    : std::min(std::max<size_t>(1, max_shards), n);
    };
    for (RuleId r = 0; r < rules.size(); ++r) {
      const size_t edge_slices = num_slices(anchors.edges.size());
      for (size_t s = 0; s < edge_slices; ++s) {
        DeltaTask t;
        t.rule = r;
        t.edge_kind = true;
        auto [begin, end] = BlockRange(anchors.edges.size(), s, edge_slices);
        t.edge_slice.assign(anchors.edges.begin() + begin,
                            anchors.edges.begin() + end);
        tasks.push_back(std::move(t));
      }
      const size_t node_slices = num_slices(anchors.nodes.size());
      for (size_t s = 0; s < node_slices; ++s) {
        DeltaTask t;
        t.rule = r;
        t.edge_kind = false;
        auto [begin, end] = BlockRange(anchors.nodes.size(), s, node_slices);
        t.node_slice.assign(anchors.nodes.begin() + begin,
                            anchors.nodes.begin() + end);
        tasks.push_back(std::move(t));
      }
    }
  }

  std::vector<std::future<void>> futures;
  futures.reserve(tasks.size());
  for (DeltaTask& t : tasks) {
    futures.push_back(
        pool_->Submit([&g, &rules, task = &t] { RunTask(g, rules, task); }));
  }
  // Drain EVERY future before letting any exception unwind: workers hold raw
  // pointers into `tasks`, so the frame must stay alive until all finished.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  // Merge per rule group with the sequential footprint dedup. Block groups
  // concatenate in task order; aligned groups interleave shard outputs
  // back into ascending anchor order (edges first, then nodes — exactly
  // FindDelta's visit order). Either way the survivor stream is
  // bit-identical to the sequential loop.
  size_t i = 0;
  while (i < tasks.size()) {
    size_t j = i + 1;
    while (j < tasks.size() && tasks[j].rule == tasks[i].rule) ++j;
    const RuleId rule = tasks[i].rule;
    std::unordered_set<uint64_t> seen;
    auto emit_dedup = [&](const Match& m) {
      if (!seen.insert(DeltaMatchHash(m)).second) return;
      emit(rule, m);
    };
    for (size_t k = i; k < j; ++k) {
      total.expansions += tasks[k].stats.expansions;
      total.exhausted |= tasks[k].stats.exhausted;
    }
    if (tasks[i].aligned) {
      MergeAlignedKind(tasks, i, j, /*edge_kind=*/true, emit_dedup);
      MergeAlignedKind(tasks, i, j, /*edge_kind=*/false, emit_dedup);
    } else {
      for (size_t k = i; k < j; ++k)
        for (const Match& m : tasks[k].out) emit_dedup(m);
    }
    total.matches += seen.size();
    i = j;
  }
  return total;
}

}  // namespace grepair
