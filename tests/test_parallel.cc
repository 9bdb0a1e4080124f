// Tests for the parallel detection subsystem: ThreadPool semantics
// (futures, exception propagation, drain-on-destruction) and the central
// determinism guarantee — DetectAll(threads=1) == DetectAll(threads=N),
// contents AND order, on generator graphs with injected errors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "eval/experiment.h"
#include "graph/error_injector.h"
#include "graph/generators.h"
#include "mining/rule_miner.h"
#include "obs/trace.h"
#include "parallel/parallel_detector.h"
#include "parallel/thread_pool.h"
#include "repair/engine.h"

namespace grepair {
namespace {

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.NumThreads(), 1u);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](size_t i) {
                                  if (i == 57)
                                    throw std::runtime_error("index 57");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, DrainsOnDestruction) {
  std::atomic<int> done{0};
  constexpr int kTasks = 64;
  {
    ThreadPool pool(3);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done++;
      });
    }
    // Destructor must run every already-submitted task before joining.
  }
  EXPECT_EQ(done.load(), kTasks);
}

// ------------------------------------------------- Detection determinism

// Fully drains a store in PopBest order — the order the repair engine
// consumes, so equality here is the strongest determinism statement.
std::vector<Violation> Drain(ViolationStore* store) {
  std::vector<Violation> out;
  Violation v;
  while (store->PopBest(&v)) out.push_back(v);
  return out;
}

void ExpectSameDetection(const Graph& g, const RuleSet& rules,
                         size_t threads) {
  ViolationStore seq, par;
  size_t n_seq = DetectAll(g, rules, &seq);
  size_t n_par = DetectAll(g, rules, &par, /*expansions=*/nullptr, threads);
  EXPECT_EQ(n_seq, n_par) << "threads=" << threads;
  std::vector<Violation> a = Drain(&seq), b = Drain(&par);
  ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rule, b[i].rule) << "pop " << i << " threads=" << threads;
    EXPECT_EQ(a[i].alternatives, b[i].alternatives)
        << "pop " << i << " threads=" << threads;
    EXPECT_DOUBLE_EQ(a[i].best_cost, b[i].best_cost)
        << "pop " << i << " threads=" << threads;
  }
}

DatasetBundle SmallKg() {
  KgOptions gopt;
  gopt.num_persons = 400;
  gopt.num_cities = 40;
  gopt.num_countries = 10;
  gopt.num_orgs = 25;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeKgBundle(gopt, iopt);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  return std::move(b).value();
}

TEST(ParallelDetectTest, KgBundleMatchesSequential) {
  DatasetBundle bundle = SmallKg();
  for (size_t threads : {2u, 4u, 8u})
    ExpectSameDetection(bundle.graph, bundle.rules, threads);
}

TEST(ParallelDetectTest, SocialBundleMatchesSequential) {
  SocialOptions gopt;
  gopt.num_persons = 400;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeSocialBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  for (size_t threads : {2u, 4u, 8u})
    ExpectSameDetection(b.value().graph, b.value().rules, threads);
}

TEST(ParallelDetectTest, CitationBundleMatchesSequential) {
  CitationOptions gopt;
  gopt.num_papers = 300;
  gopt.num_authors = 120;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeCitationBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  for (size_t threads : {2u, 4u, 8u})
    ExpectSameDetection(b.value().graph, b.value().rules, threads);
}

// Forces the shard-level fan-out (every rule sharded down to single seeds)
// and checks the emission order is exactly the sequential enumeration.
TEST(ParallelDetectTest, ForcedShardingPreservesEmissionOrder) {
  DatasetBundle bundle = SmallKg();
  const Graph& g = bundle.graph;
  const RuleSet& rules = bundle.rules;

  std::vector<std::pair<RuleId, Match>> seq;
  for (RuleId r = 0; r < rules.size(); ++r) {
    Matcher matcher(g, rules[r].pattern());
    matcher.FindAll(MatchOptions{}, [&](const Match& m) {
      seq.emplace_back(r, m);
      return true;
    });
  }

  ThreadPool pool(4);
  ParallelDetectOptions opts;
  opts.shard_min_seeds = 1;  // shard everything
  opts.max_shards_per_rule = 16;
  ParallelDetector detector(&pool, opts);
  std::vector<std::pair<RuleId, Match>> par;
  MatchStats st = detector.Detect(
      g, rules, [&](RuleId r, const Match& m) { par.emplace_back(r, m); });

  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].first, par[i].first) << "emission " << i;
    EXPECT_EQ(seq[i].second, par[i].second) << "emission " << i;
  }
  EXPECT_EQ(st.matches, seq.size());
}

// Forcing the expansion-budget fallback (sequential_budget=1 makes every
// sharded rule "over budget") must still reproduce the sequential emission
// stream: the fallback re-runs the rule sequentially and emits it once.
TEST(ParallelDetectTest, BudgetFallbackPreservesEmissionOrder) {
  DatasetBundle bundle = SmallKg();
  const Graph& g = bundle.graph;
  const RuleSet& rules = bundle.rules;

  std::vector<std::pair<RuleId, Match>> seq;
  for (RuleId r = 0; r < rules.size(); ++r) {
    Matcher matcher(g, rules[r].pattern());
    matcher.FindAll(MatchOptions{}, [&](const Match& m) {
      seq.emplace_back(r, m);
      return true;
    });
  }

  ThreadPool pool(4);
  ParallelDetectOptions opts;
  opts.shard_min_seeds = 1;
  opts.max_shards_per_rule = 8;
  opts.sequential_budget = 1;  // every sharded rule triggers the fallback
  ParallelDetector detector(&pool, opts);
  std::vector<std::pair<RuleId, Match>> par;
  detector.Detect(g, rules,
                  [&](RuleId r, const Match& m) { par.emplace_back(r, m); });

  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].first, par[i].first) << "emission " << i;
    EXPECT_EQ(seq[i].second, par[i].second) << "emission " << i;
  }
}

// The seed contract the sharding relies on: every match binds SeedVar() to
// a node in SeedCandidates().
TEST(ParallelDetectTest, SeedCandidatesCoverAllMatches) {
  DatasetBundle bundle = SmallKg();
  const Graph& g = bundle.graph;
  for (RuleId r = 0; r < bundle.rules.size(); ++r) {
    Matcher matcher(g, bundle.rules[r].pattern());
    VarId seed_var = matcher.SeedVar();
    ASSERT_NE(seed_var, kNoVar);
    std::vector<NodeId> seeds = matcher.SeedCandidates(seed_var);
    EXPECT_TRUE(std::is_sorted(seeds.begin(), seeds.end()));
    matcher.FindAll(MatchOptions{}, [&](const Match& m) {
      EXPECT_TRUE(std::binary_search(seeds.begin(), seeds.end(),
                                     m.nodes[seed_var]));
      return true;
    });
  }
}

// --------------------------------------------------- Engine integration

TEST(ParallelEngineTest, GreedyRepairIdenticalAcrossThreadCounts) {
  DatasetBundle bundle = SmallKg();
  Graph base = bundle.graph.Clone();

  RepairOptions opt1;
  opt1.num_threads = 1;
  Graph g1 = base.Clone();
  auto r1 = RepairEngine(opt1).Run(&g1, bundle.rules);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  for (size_t threads : {2u, 4u}) {
    RepairOptions optn;
    optn.num_threads = threads;
    Graph gn = base.Clone();
    auto rn = RepairEngine(optn).Run(&gn, bundle.rules);
    ASSERT_TRUE(rn.ok()) << rn.status().ToString();
    EXPECT_TRUE(g1.ContentEquals(gn)) << "threads=" << threads;
    EXPECT_EQ(r1.value().applied.size(), rn.value().applied.size());
    EXPECT_EQ(r1.value().initial_violations, rn.value().initial_violations);
    EXPECT_EQ(r1.value().remaining_violations,
              rn.value().remaining_violations);
    EXPECT_DOUBLE_EQ(r1.value().repair_cost, rn.value().repair_cost);
  }
}

TEST(ParallelEngineTest, FullRedetectionModeIdenticalAcrossThreads) {
  DatasetBundle bundle = SmallKg();
  Graph base = bundle.graph.Clone();

  RepairOptions opt;
  opt.incremental = false;  // every round is a full parallel re-detection
  Graph g1 = base.Clone(), g4 = base.Clone();
  opt.num_threads = 1;
  auto r1 = RepairEngine(opt).Run(&g1, bundle.rules);
  opt.num_threads = 4;
  auto r4 = RepairEngine(opt).Run(&g4, bundle.rules);
  ASSERT_TRUE(r1.ok() && r4.ok());
  EXPECT_TRUE(g1.ContentEquals(g4));
  EXPECT_EQ(r1.value().remaining_violations, r4.value().remaining_violations);
}

// Every parallel pass reads the graph it is handed: a fanned-out
// detection, a greedy repair and a mining scan over a live Graph run pool
// tasks and build no snapshot.
TEST(ParallelEngineTest, ParallelPassesBuildNoSnapshot) {
#ifdef GREPAIR_OBS_DISABLED
  GTEST_SKIP() << "tracing is compiled out";
#else
  DatasetBundle bundle = SmallKg();
  // Rings created from here on (the fresh pools' workers) hold at most
  // this many events each.
  obs::SetTraceRingCapacity(4096);
  obs::ClearTrace();
  obs::SetTracingEnabled(true);
  ViolationStore store;
  DetectAll(bundle.graph, bundle.rules, &store, nullptr, 4);
  RepairOptions ropt;
  ropt.num_threads = 2;
  Graph g = bundle.graph.Clone();
  auto repaired = RepairEngine(ropt).Run(&g, bundle.rules);
  MiningOptions mopt;
  mopt.num_threads = 4;
  MineRules(bundle.graph, mopt);
  obs::SetTracingEnabled(false);
  const std::string json = obs::ChromeTraceJson();
  obs::ClearTrace();
  obs::SetTraceRingCapacity(65536);

  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_NE(json.find("\"name\":\"pool.task\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"snapshot.build\""), std::string::npos);
#endif
}

// --------------------------------------------------- Mining integration

TEST(ParallelMiningTest, MinedRulesIdenticalAcrossThreadCounts) {
  DatasetBundle bundle = SmallKg();
  MiningOptions opt;
  opt.min_evidence = 5;
  std::vector<MinedRule> seq = MineRules(bundle.graph, opt);
  EXPECT_FALSE(seq.empty());
  for (size_t threads : {2u, 4u, 8u}) {
    opt.num_threads = threads;
    std::vector<MinedRule> par = MineRules(bundle.graph, opt);
    ASSERT_EQ(seq.size(), par.size()) << "threads=" << threads;
    for (size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].rule.name(), par[i].rule.name());
      EXPECT_EQ(seq[i].kind, par[i].kind);
      EXPECT_EQ(seq[i].evidence, par[i].evidence);
      EXPECT_DOUBLE_EQ(seq[i].support, par[i].support);
    }
  }
}

// ------------------------------------------------ Vocabulary::LookupOnly

TEST(LookupOnlyTest, NeverInterns) {
  auto vocab = MakeVocabulary();
  vocab->Label("Person");
  vocab->Attr("conf");
  size_t labels = vocab->NumLabels(), attrs = vocab->NumAttrs(),
         values = vocab->NumValues();

  Vocabulary::LookupOnly view = vocab->lookup_only();
  SymbolId id = 0;
  EXPECT_TRUE(view.Label("Person", &id));
  EXPECT_EQ(view.LabelName(id), "Person");
  EXPECT_TRUE(view.Attr("conf", &id));
  EXPECT_FALSE(view.Label("Ghost", &id));
  EXPECT_FALSE(view.Attr("ghost_attr", &id));
  EXPECT_FALSE(view.Value("ghost_value", &id));

  // The misses above must not have interned anything.
  EXPECT_EQ(vocab->NumLabels(), labels);
  EXPECT_EQ(vocab->NumAttrs(), attrs);
  EXPECT_EQ(vocab->NumValues(), values);
}

}  // namespace
}  // namespace grepair
