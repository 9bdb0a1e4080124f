#include "parallel/parallel_detector.h"

#include <algorithm>
#include <exception>
#include <map>
#include <utility>
#include <vector>

#include "util/ordered_merge.h"

namespace grepair {

namespace {

// One unit of detection work: a whole rule, one contiguous seed range of a
// block-sharded rule, or one STORAGE shard's seed subset of an aligned rule
// (the view is sharded and seeds are partitioned by the owning shard, so a
// task's reads stay within that shard's columns). Tasks are created in
// (rule id, shard index) order; each fills only its own slot.
struct DetectTask {
  RuleId rule;
  VarId seed_var = kNoVar;  // kNoVar: unsharded full FindAll
  bool aligned = false;     // seeds are one storage shard's subset
  std::vector<NodeId> seeds;  // ascending; used when seed_var != kNoVar
  // Matches found per seed, parallel to `seeds` — what the aligned merge
  // uses to interleave task outputs back into global ascending-seed order.
  std::vector<uint32_t> seed_counts;
  std::vector<Match> out;
  MatchStats stats;
};

void RunTask(const GraphView& g, const RuleSet& rules, DetectTask* task) {
  const Matcher matcher(g, rules[task->rule].pattern());
  auto collect = [task](const Match& m) {
    task->out.push_back(m);
    return true;
  };
  if (task->seed_var == kNoVar) {
    task->stats = matcher.FindAll(MatchOptions{}, collect);
    return;
  }
  task->seed_counts.reserve(task->seeds.size());
  for (NodeId seed : task->seeds) {
    size_t before = task->out.size();
    MatchOptions opts;
    opts.node_anchors.emplace_back(task->seed_var, seed);
    MatchStats st = matcher.FindAll(opts, collect);
    task->stats.expansions += st.expansions;
    task->stats.matches += st.matches;
    task->stats.exhausted |= st.exhausted;
    task->seed_counts.push_back(
        static_cast<uint32_t>(task->out.size() - before));
  }
}

// Emits the matches of an aligned task group (one rule, >=2 storage-shard
// tasks) in global ascending-seed order: the shared k-way merge picks the
// task whose next unemitted seed is smallest and flushes that seed's
// matches. Seeds are disjoint across tasks (the storage partition), so
// this reproduces the sequential per-seed concatenation bit-for-bit.
void EmitAlignedMerged(const std::vector<DetectTask>& tasks, size_t begin,
                       size_t end, const ParallelDetector::Emit& emit) {
  const size_t n = end - begin;
  std::vector<size_t> out_cur(n, 0);
  MergeByAscendingKey(
      n, [&](size_t t) { return tasks[begin + t].seeds.size(); },
      [&](size_t t, size_t i) { return tasks[begin + t].seeds[i]; },
      [&](size_t t, size_t i) {
        const DetectTask& task = tasks[begin + t];
        for (uint32_t k = 0; k < task.seed_counts[i]; ++k)
          emit(task.rule, task.out[out_cur[t]++]);
      });
}

}  // namespace

ParallelDetector::ParallelDetector(ThreadPool* pool,
                                   ParallelDetectOptions options)
    : pool_(pool), options_(options) {}

MatchStats ParallelDetector::Detect(const GraphView& g, const RuleSet& rules,
                                    const Emit& emit) const {
  size_t max_shards = options_.max_shards_per_rule
                          ? options_.max_shards_per_rule
                          : 2 * pool_->NumThreads();
  const size_t store_shards = g.NumStorageShards();

  std::vector<DetectTask> tasks;
  for (RuleId r = 0; r < rules.size(); ++r) {
    Matcher matcher(g, rules[r].pattern());
    VarId seed_var = matcher.SeedVar();
    if (seed_var == kNoVar) {  // node-less pattern: plain full FindAll
      DetectTask t;
      t.rule = r;
      tasks.push_back(std::move(t));
      continue;
    }
    // The seed list is computed anyway to decide shardability, so reuse it:
    // a below-threshold rule becomes ONE full-range seed task rather than
    // recomputing the identical root candidates inside an unanchored search.
    std::vector<NodeId> seeds = matcher.SeedCandidates(seed_var);
    if (seeds.size() < options_.shard_min_seeds) {
      DetectTask t;
      t.rule = r;
      t.seed_var = seed_var;
      t.seeds = std::move(seeds);
      tasks.push_back(std::move(t));
      continue;
    }
    if (store_shards > 1) {
      // Storage-aligned sharding: one task per storage shard holding its
      // seed subset, so every anchored search in the task reads the shard
      // that owns its seed. The merge below restores global seed order.
      std::vector<std::vector<NodeId>> by_shard(store_shards);
      for (NodeId s : seeds)
        by_shard[StorageShardOfNode(s, store_shards)].push_back(s);
      for (size_t s = 0; s < store_shards; ++s) {
        if (by_shard[s].empty()) continue;
        DetectTask t;
        t.rule = r;
        t.seed_var = seed_var;
        t.aligned = true;
        t.seeds = std::move(by_shard[s]);
        tasks.push_back(std::move(t));
      }
      continue;
    }
    // Unsharded store: contiguous block ranges of the ascending seed list.
    size_t shards =
        std::min(std::max<size_t>(1, max_shards), seeds.size());
    for (size_t s = 0; s < shards; ++s) {
      DetectTask t;
      t.rule = r;
      t.seed_var = seed_var;
      auto [begin, end] = BlockRange(seeds.size(), s, shards);
      t.seeds.assign(seeds.begin() + begin, seeds.begin() + end);
      tasks.push_back(std::move(t));
    }
  }

  std::vector<std::future<void>> futures;
  futures.reserve(tasks.size());
  for (DetectTask& t : tasks) {
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

  // A sharded rule gives every seed a fresh expansion budget, so it can keep
  // matching past the point the sequential single-budget search would have
  // truncated. Sequential expansions for a rule are exactly 1 + the sum of
  // its per-seed subtree expansions; when that sum reaches the budget the
  // sequential path would have stopped early, so re-run the whole rule
  // sequentially to reproduce its truncated output bit-for-bit. (Pathological
  // by construction: the default budget is 50M expansions per rule.)
  const size_t budget = options_.sequential_budget
                            ? options_.sequential_budget
                            : MatchOptions{}.max_expansions;
  std::map<RuleId, size_t> rule_expansions;
  for (const DetectTask& t : tasks)
    if (t.seed_var != kNoVar) rule_expansions[t.rule] += t.stats.expansions;
  std::map<RuleId, DetectTask> reruns;
  for (const auto& [r, total] : rule_expansions) {
    if (total < budget) continue;
    DetectTask seq;
    seq.rule = r;
    RunTask(g, rules, &seq);
    reruns.emplace(r, std::move(seq));
  }

  // Emit per rule group (tasks of one rule are contiguous): a rerun rule
  // emits its sequential output once; an aligned group interleaves its
  // shard tasks back into ascending-seed order; block groups concatenate.
  // All three paths produce the exact sequential emission stream.
  MatchStats total;
  size_t i = 0;
  while (i < tasks.size()) {
    size_t j = i + 1;
    while (j < tasks.size() && tasks[j].rule == tasks[i].rule) ++j;
    auto it = reruns.find(tasks[i].rule);
    if (it != reruns.end()) {
      const DetectTask& seq = it->second;
      total.expansions += seq.stats.expansions;
      total.matches += seq.stats.matches;
      total.exhausted |= seq.stats.exhausted;
      for (const Match& m : seq.out) emit(seq.rule, m);
      i = j;
      continue;
    }
    for (size_t k = i; k < j; ++k) {
      total.expansions += tasks[k].stats.expansions;
      total.matches += tasks[k].stats.matches;
      total.exhausted |= tasks[k].stats.exhausted;
    }
    if (tasks[i].aligned && j - i > 1) {
      EmitAlignedMerged(tasks, i, j, emit);
    } else {
      for (size_t k = i; k < j; ++k)
        for (const Match& m : tasks[k].out) emit(tasks[k].rule, m);
    }
    i = j;
  }
  return total;
}

}  // namespace grepair
