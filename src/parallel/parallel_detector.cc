#include "parallel/parallel_detector.h"

#include <algorithm>
#include <exception>
#include <map>
#include <utility>
#include <vector>

namespace grepair {

namespace {

// One unit of detection work: a whole rule, or one contiguous seed range
// of a block-sharded rule. Tasks are created in (rule id, shard index)
// order; each fills only its own slot.
struct DetectTask {
  RuleId rule;
  VarId seed_var = kNoVar;  // kNoVar: unsharded full FindAll
  std::vector<NodeId> seeds;  // ascending; used when seed_var != kNoVar
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
  for (NodeId seed : task->seeds) {
    MatchOptions opts;
    opts.node_anchors.emplace_back(task->seed_var, seed);
    MatchStats st = matcher.FindAll(opts, collect);
    task->stats.expansions += st.expansions;
    task->stats.matches += st.matches;
    task->stats.exhausted |= st.exhausted;
  }
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
    // Contiguous block ranges of the ascending seed list. The list is
    // computed anyway to decide shardability, so a below-threshold rule
    // becomes ONE full-range seed task rather than recomputing the identical
    // root candidates inside an unanchored search.
    std::vector<NodeId> seeds = matcher.SeedCandidates(seed_var);
    size_t shards =
        seeds.size() < options_.shard_min_seeds
            ? 1
            : std::min(std::max<size_t>(1, max_shards), seeds.size());
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
  // emits its sequential output once; block groups concatenate. Both paths
  // produce the exact sequential emission stream.
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
    for (size_t k = i; k < j; ++k)
      for (const Match& m : tasks[k].out) emit(tasks[k].rule, m);
    i = j;
  }
  return total;
}

}  // namespace grepair
