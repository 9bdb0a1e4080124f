#include "repair/engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "parallel/parallel_detector.h"
#include "parallel/thread_pool.h"
#include "repair/interaction.h"
#include "util/rng.h"
#include "util/timer.h"

namespace grepair {

namespace {

// Adds every match of every rule to the store, costed for fix selection.
// A non-null pool with >1 workers fans the matching out over `g` itself
// (bit-identical results; see ParallelDetector); costing and store
// insertion stay on the calling thread either way.
size_t DetectInto(const GraphView& g, const RuleSet& rules,
                  ViolationStore* store,
                  const CostModel& model, SymbolId conf_attr,
                  size_t* expansions, ThreadPool* pool = nullptr) {
  if (pool != nullptr && pool->NumThreads() > 1) {
    ParallelDetector detector(pool);
    MatchStats st = detector.Detect(g, rules, [&](RuleId r, const Match& m) {
      store->Add(r, m, FixCost(g, rules[r], m, model, conf_attr));
    });
    if (expansions) *expansions += st.expansions;
    return store->Size();
  }
  for (RuleId r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    Matcher matcher(g, rule.pattern());
    MatchOptions opts;
    MatchStats st = matcher.FindAll(opts, [&](const Match& m) {
      double cost = FixCost(g, rule, m, model, conf_attr);
      store->Add(r, m, cost);
      return true;
    });
    if (expansions) *expansions += st.expansions;
  }
  return store->Size();
}

// Lazily creates the detection pool for the configured thread count
// (nullptr = stay sequential).
std::unique_ptr<ThreadPool> MakeDetectPool(size_t num_threads) {
  if (num_threads == 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads);
}

// CountViolations against an already-running pool (the strategy runners
// reuse their detection pool instead of spawning a fresh one per count).
size_t CountWith(const GraphView& g, const RuleSet& rules,
                 ThreadPool* pool) {
  CostModel model;
  ViolationStore store;
  return DetectInto(g, rules, &store, model, /*conf_attr=*/0, nullptr, pool);
}

// The anchors of the journal slice since `from`.
DeltaAnchors AnchorsSince(const Graph& g, size_t from) {
  return ComputeDeltaAnchors(g, std::span(g.Journal()).subspan(from));
}

}  // namespace

// Incremental re-detection: only around the delta.
void DetectDelta(const GraphView& g, const RuleSet& rules,
                 const DeltaAnchors& anchors, ViolationStore* store,
                 const CostModel& model, SymbolId conf_attr,
                 size_t* expansions) {
  for (RuleId r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    DeltaMatcher dm(g, rule.pattern());
    MatchStats st = dm.FindDelta(anchors, [&](const Match& m) {
      double cost = FixCost(g, rule, m, model, conf_attr);
      store->Add(r, m, cost);
      return true;
    });
    if (expansions) *expansions += st.expansions;
  }
}

size_t DetectAll(const GraphView& g, const RuleSet& rules,
                 ViolationStore* store,
                 size_t* expansions, size_t num_threads) {
  CostModel model;
  std::unique_ptr<ThreadPool> pool = MakeDetectPool(num_threads);
  return DetectInto(g, rules, store, model, /*conf_attr=*/0, expansions,
                    pool.get());
}

size_t CountViolations(const GraphView& g, const RuleSet& rules,
                       size_t num_threads) {
  ViolationStore store;
  return DetectAll(g, rules, &store, nullptr, num_threads);
}

RepairEngine::RepairEngine(RepairOptions options)
    : options_(std::move(options)) {}

SymbolId RepairEngine::ConfAttr(const Graph& g) const {
  if (options_.confidence_attr.empty()) return 0;
  // Lookup-only, never Intern: ConfAttr feeds detection, which may run on
  // pool threads reading the vocabulary concurrently. An attr name nothing
  // ever interned cannot occur on any edge, so "absent" means "unweighted".
  SymbolId id;
  if (!g.vocab()->lookup_only().Attr(options_.confidence_attr, &id)) return 0;
  return id;
}

Result<RepairResult> RepairEngine::Run(Graph* g, const RuleSet& rules) const {
  if (g == nullptr) return Status::InvalidArgument("null graph");
  switch (options_.strategy) {
    case RepairStrategy::kGreedy: return RunGreedy(g, rules);
    case RepairStrategy::kNaive: return RunNaive(g, rules);
    case RepairStrategy::kBatch: return RunBatch(g, rules);
    case RepairStrategy::kExact: return RunExact(g, rules);
  }
  return Status::InvalidArgument("unknown strategy");
}

Result<RepairResult> RepairEngine::RunDelta(Graph* g, const RuleSet& rules,
                                            size_t since_mark) const {
  if (g == nullptr) return Status::InvalidArgument("null graph");
  if (since_mark > g->JournalSize())
    return Status::OutOfRange("RunDelta: mark beyond journal");
  return RunGreedy(g, rules, since_mark);
}

// --------------------------------------------------------------- Greedy

Result<RepairResult> RepairEngine::RunGreedy(
    Graph* g, const RuleSet& rules, std::optional<size_t> since_mark) const {
  Timer total;
  RepairResult res;
  SymbolId conf = ConfAttr(*g);
  size_t start_mark = g->JournalSize();
  // Lazy: dynamic-mode runs that stay delta-anchored throughout never pay
  // for worker threads they would not use.
  std::unique_ptr<ThreadPool> pool;
  auto detect_pool = [&]() -> ThreadPool* {
    if (pool == nullptr && options_.num_threads != 1)
      pool = MakeDetectPool(options_.num_threads);
    return pool.get();
  };

  ViolationStore store;
  {
    Timer t;
    if (!since_mark) {
      res.initial_violations = DetectInto(
          *g, rules, &store, options_.cost_model, conf,
          &res.matcher_expansions, detect_pool());
    } else {
      // Dynamic mode: seed only with violations the delta can have created.
      DetectDelta(*g, rules, AnchorsSince(*g, *since_mark), &store,
                  options_.cost_model, conf, &res.matcher_expansions);
      res.initial_violations = store.Size();
    }
    res.detect_ms += t.ElapsedMs();
  }

  std::unordered_set<uint64_t> fingerprints;
  if (options_.detect_oscillation) fingerprints.insert(g->Fingerprint());

  Violation v;
  for (;;) {
    if (res.applied.size() >= options_.max_fixes && !store.Empty()) {
      res.budget_exhausted = true;
      break;
    }
    if (!store.PopBest(&v)) break;
    // Re-verify alternatives against the live graph; choose the cheapest.
    const Rule& rule = rules[v.rule];
    const Match* best = CheapestLiveAlternative(*g, rule, v.alternatives,
                                                options_.cost_model, conf);
    if (best == nullptr) continue;  // stale violation

    size_t mark = g->JournalSize();
    auto applied = ApplyFix(g, v.rule, rule, *best);
    if (!applied.ok()) return applied.status();
    res.applied.push_back(applied.value());
    ++res.rounds;

    {
      Timer t;
      if (options_.incremental) {
        DetectDelta(*g, rules, AnchorsSince(*g, mark), &store,
                    options_.cost_model, conf, &res.matcher_expansions);
      } else {
        store.Clear();
        DetectInto(*g, rules, &store, options_.cost_model, conf,
                   &res.matcher_expansions, detect_pool());
      }
      res.detect_ms += t.ElapsedMs();
    }

    if (options_.detect_oscillation) {
      if (!fingerprints.insert(g->Fingerprint()).second) {
        res.oscillation_detected = true;
        break;
      }
    }
  }

  if (!since_mark) {
    res.remaining_violations = CountWith(*g, rules, detect_pool());
  } else {
    // Dynamic mode stays O(delta): the store was drained, so anything left
    // is what the budget cut off. Callers wanting a global count run
    // CountViolations themselves.
    res.remaining_violations = store.Size();
  }
  res.repair_cost = g->CostSince(start_mark, options_.cost_model);
  res.total_ms = total.ElapsedMs();
  return res;
}

// ---------------------------------------------------------------- Naive

Result<RepairResult> RepairEngine::RunNaive(Graph* g,
                                            const RuleSet& rules) const {
  Timer total;
  RepairResult res;
  size_t start_mark = g->JournalSize();
  Rng rng(options_.seed);
  std::unique_ptr<ThreadPool> pool = MakeDetectPool(options_.num_threads);

  std::unordered_set<uint64_t> fingerprints;
  if (options_.detect_oscillation) fingerprints.insert(g->Fingerprint());

  bool first_round = true;
  while (res.rounds < options_.max_rounds) {
    ViolationStore store;
    {
      Timer t;
      DetectInto(*g, rules, &store, options_.cost_model, /*conf_attr=*/0,
                 &res.matcher_expansions, pool.get());
      res.detect_ms += t.ElapsedMs();
    }
    if (first_round) {
      res.initial_violations = store.Size();
      first_round = false;
    }
    if (store.Empty()) break;
    ++res.rounds;

    std::vector<Violation> batch = store.Snapshot();
    rng.Shuffle(&batch);  // arbitrary order, seeded for reproducibility
    bool progress = false;
    for (Violation& v : batch) {
      if (res.applied.size() >= options_.max_fixes) {
        res.budget_exhausted = true;
        break;
      }
      const Rule& rule = rules[v.rule];
      Matcher matcher(*g, rule.pattern());
      rng.Shuffle(&v.alternatives);
      const Match* pick = nullptr;
      for (const Match& alt : v.alternatives) {
        if (matcher.Verify(alt)) {
          pick = &alt;
          break;
        }
      }
      if (pick == nullptr) continue;
      auto applied = ApplyFix(g, v.rule, rule, *pick);
      if (!applied.ok()) return applied.status();
      res.applied.push_back(applied.value());
      progress = true;
    }
    if (res.budget_exhausted) break;
    if (options_.detect_oscillation) {
      if (!fingerprints.insert(g->Fingerprint()).second) {
        res.oscillation_detected = true;
        break;
      }
    }
    if (!progress) break;
  }
  if (res.rounds >= options_.max_rounds) res.budget_exhausted = true;

  res.remaining_violations = CountWith(*g, rules, pool.get());
  res.repair_cost = g->CostSince(start_mark, options_.cost_model);
  res.total_ms = total.ElapsedMs();
  return res;
}

// ---------------------------------------------------------------- Batch

Result<RepairResult> RepairEngine::RunBatch(Graph* g,
                                            const RuleSet& rules) const {
  Timer total;
  RepairResult res;
  SymbolId conf = ConfAttr(*g);
  size_t start_mark = g->JournalSize();
  std::unique_ptr<ThreadPool> pool = MakeDetectPool(options_.num_threads);

  ViolationStore store;
  {
    Timer t;
    res.initial_violations =
        DetectInto(*g, rules, &store, options_.cost_model, conf,
                   &res.matcher_expansions, pool.get());
    res.detect_ms += t.ElapsedMs();
  }

  std::unordered_set<uint64_t> fingerprints;
  if (options_.detect_oscillation) fingerprints.insert(g->Fingerprint());

  while (!store.Empty() && res.rounds < options_.max_rounds) {
    ++res.rounds;
    // Drain the store; re-verify; keep the best fix per violation.
    struct Cand {
      RuleId rule;
      Match match;
      double cost;
    };
    std::vector<Cand> cands;
    Violation v;
    while (store.PopBest(&v)) {
      double best_cost = 0;
      const Match* best =
          CheapestLiveAlternative(*g, rules[v.rule], v.alternatives,
                                  options_.cost_model, conf, &best_cost);
      if (best) cands.push_back({v.rule, *best, best_cost});
    }
    if (cands.empty()) break;
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) { return a.cost < b.cost; });

    // Independent subset by scope analysis (cost order preserved).
    std::vector<FixScope> scopes;
    scopes.reserve(cands.size());
    for (const Cand& c : cands)
      scopes.push_back(ComputeScope(*g, rules[c.rule], c.match));
    std::vector<size_t> chosen = SelectIndependent(scopes);

    size_t round_mark = g->JournalSize();
    for (size_t idx : chosen) {
      if (res.applied.size() >= options_.max_fixes) {
        res.budget_exhausted = true;
        break;
      }
      const Cand& c = cands[idx];
      // Independence guarantees validity, but stay defensive.
      if (!Matcher(*g, rules[c.rule].pattern()).Verify(c.match)) continue;
      auto applied = ApplyFix(g, c.rule, rules[c.rule], c.match);
      if (!applied.ok()) return applied.status();
      res.applied.push_back(applied.value());
    }

    {
      Timer t;
      if (options_.incremental) {
        DetectDelta(*g, rules, AnchorsSince(*g, round_mark), &store,
                    options_.cost_model, conf, &res.matcher_expansions);
        // Unchosen candidates may still be violations; re-add (dedup safe).
        for (size_t i = 0; i < cands.size(); ++i) {
          if (std::find(chosen.begin(), chosen.end(), i) != chosen.end())
            continue;
          store.Add(cands[i].rule, cands[i].match, cands[i].cost);
        }
      } else {
        store.Clear();
        DetectInto(*g, rules, &store, options_.cost_model, conf,
                   &res.matcher_expansions, pool.get());
      }
      res.detect_ms += t.ElapsedMs();
    }

    if (res.budget_exhausted) break;
    if (options_.detect_oscillation) {
      if (!fingerprints.insert(g->Fingerprint()).second) {
        res.oscillation_detected = true;
        break;
      }
    }
  }
  if (res.rounds >= options_.max_rounds) res.budget_exhausted = true;

  res.remaining_violations = CountWith(*g, rules, pool.get());
  res.repair_cost = g->CostSince(start_mark, options_.cost_model);
  res.total_ms = total.ElapsedMs();
  return res;
}

// ---------------------------------------------------------------- Exact
// (Exact detection stays sequential: the DFS re-detects on every expansion
// of a deliberately small graph, where per-call fan-out overhead dominates.)

namespace {

// One step of the optimal sequence: a fix plus the element ids it created
// during exploration, so the replay can remap them.
struct ExactStep {
  RuleId rule;
  Match match;
  std::vector<NodeId> created_nodes;
  std::vector<EdgeId> created_edges;
};

struct ExactSearch {
  Graph* g;
  const RuleSet* rules;
  const RepairOptions* opts;
  SymbolId conf;
  size_t start_mark;

  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<ExactStep> best_seq;
  std::vector<ExactStep> cur_seq;
  std::unordered_map<uint64_t, double> seen;
  size_t expansions = 0;
  bool exhausted = false;

  void Dfs(size_t depth) {
    if (exhausted) return;
    if (++expansions > opts->exact_max_expansions) {
      exhausted = true;
      return;
    }
    double cost = g->CostSince(start_mark, opts->cost_model);
    if (cost >= best_cost) return;
    uint64_t fp = g->Fingerprint();
    auto it = seen.find(fp);
    if (it != seen.end() && it->second <= cost) return;
    seen[fp] = cost;

    ViolationStore store;
    DetectInto(*g, *rules, &store, opts->cost_model, conf, nullptr);
    if (store.Empty()) {
      best_cost = cost;
      best_seq = cur_seq;
      return;
    }
    if (depth >= opts->exact_max_depth) return;

    struct Cand {
      RuleId rule;
      Match match;
      double cost;
    };
    std::vector<Cand> cands;
    for (const Violation& v : store.Snapshot())
      for (const Match& alt : v.alternatives)
        cands.push_back(
            {v.rule, alt,
             FixCost(*g, (*rules)[v.rule], alt, opts->cost_model, conf)});
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) { return a.cost < b.cost; });

    for (const Cand& c : cands) {
      size_t mark = g->JournalSize();
      auto applied = ApplyFix(g, c.rule, (*rules)[c.rule], c.match);
      if (!applied.ok()) continue;
      ExactStep step;
      step.rule = c.rule;
      step.match = c.match;
      for (size_t j = mark; j < g->JournalSize(); ++j) {
        const EditEntry& e = g->Journal()[j];
        if (e.kind == EditKind::kAddNode) step.created_nodes.push_back(e.node);
        if (e.kind == EditKind::kAddEdge) step.created_edges.push_back(e.edge);
      }
      cur_seq.push_back(std::move(step));
      Dfs(depth + 1);
      cur_seq.pop_back();
      Status st = g->UndoTo(mark);
      if (!st.ok()) {
        exhausted = true;  // should never happen; fail safe
        return;
      }
      if (exhausted) return;
    }
  }
};

}  // namespace

Result<RepairResult> RepairEngine::RunExact(Graph* g,
                                            const RuleSet& rules) const {
  Timer total;
  RepairResult res;
  SymbolId conf = ConfAttr(*g);
  size_t start_mark = g->JournalSize();

  res.initial_violations = CountViolations(*g, rules);

  ExactSearch search;
  search.g = g;
  search.rules = &rules;
  search.opts = &options_;
  search.conf = conf;
  search.start_mark = start_mark;
  search.Dfs(0);
  res.budget_exhausted = search.exhausted;

  if (search.best_cost == std::numeric_limits<double>::infinity()) {
    // No full repair found within budget; leave the graph untouched.
    res.remaining_violations = CountViolations(*g, rules);
    res.total_ms = total.ElapsedMs();
    return res;
  }

  // Replay the optimal sequence, remapping ids of elements created during
  // exploration (replay allocates fresh ids).
  std::unordered_map<NodeId, NodeId> node_map;
  std::unordered_map<EdgeId, EdgeId> edge_map;
  for (const ExactStep& step : search.best_seq) {
    Match m = step.match;
    for (NodeId& n : m.nodes) {
      auto it = node_map.find(n);
      if (it != node_map.end()) n = it->second;
    }
    for (EdgeId& e : m.edges) {
      auto it = edge_map.find(e);
      if (it != edge_map.end()) e = it->second;
    }
    const Rule& rule = rules[step.rule];
    if (!Matcher(*g, rule.pattern()).Verify(m))
      return Status::Internal("exact replay: match failed to verify");
    size_t mark = g->JournalSize();
    auto applied = ApplyFix(g, step.rule, rule, m);
    if (!applied.ok()) return applied.status();
    // Record created-id remapping in exploration order (both passes create
    // elements in identical order).
    std::vector<NodeId> new_nodes;
    std::vector<EdgeId> new_edges;
    for (size_t j = mark; j < g->JournalSize(); ++j) {
      const EditEntry& e = g->Journal()[j];
      if (e.kind == EditKind::kAddNode) new_nodes.push_back(e.node);
      if (e.kind == EditKind::kAddEdge) new_edges.push_back(e.edge);
    }
    if (new_nodes.size() != step.created_nodes.size() ||
        new_edges.size() != step.created_edges.size())
      return Status::Internal("exact replay: creation mismatch");
    for (size_t i = 0; i < new_nodes.size(); ++i)
      node_map[step.created_nodes[i]] = new_nodes[i];
    for (size_t i = 0; i < new_edges.size(); ++i)
      edge_map[step.created_edges[i]] = new_edges[i];
    res.applied.push_back(applied.value());
  }
  res.rounds = res.applied.size();

  res.remaining_violations = CountViolations(*g, rules);
  res.repair_cost = g->CostSince(start_mark, options_.cost_model);
  res.matcher_expansions = search.expansions;
  res.total_ms = total.ElapsedMs();
  return res;
}

}  // namespace grepair
