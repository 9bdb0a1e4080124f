// Compiled match-plan tests: the vectorized intersection kernels on
// adversarial range shapes, budget truncation as a stream prefix, the
// parallel detector against the sequential matcher for every shard x
// thread combination, delta search over every shard count, and the
// explain dump. The exact emission order of a
// single search is checked against a brute-force enumerator in
// tests/test_matcher_property.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "eval/experiment.h"
#include "graph/generators.h"
#include "graph/error_injector.h"
#include "graph/sharded_snapshot.h"
#include "graph/snapshot.h"
#include "match/incremental.h"
#include "match/intersect.h"
#include "match/matcher.h"
#include "match/plan.h"
#include "obs/metrics.h"
#include "parallel/parallel_detector.h"
#include "parallel/thread_pool.h"

namespace grepair {
namespace {

// ------------------------------------------------------------ intersection

std::vector<uint32_t> Reference(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

void ExpectIntersection(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  IntersectSorted(a, b, &out);
  EXPECT_EQ(out, Reference(a, b));
  // Symmetric: the dispatcher routes by size, the result must not care.
  std::vector<uint32_t> rev;
  IntersectSorted(b, a, &rev);
  EXPECT_EQ(rev, Reference(a, b));
}

TEST(IntersectTest, EmptyAndDisjointAndEqual) {
  ExpectIntersection({}, {});
  ExpectIntersection({}, {1, 2, 3});
  ExpectIntersection({1, 3, 5}, {2, 4, 6});          // interleaved disjoint
  ExpectIntersection({1, 2, 3}, {1, 2, 3});          // identical
  ExpectIntersection({10, 20, 30}, {40, 50, 60});    // fully below/above
}

TEST(IntersectTest, NestedAndPartialOverlap) {
  ExpectIntersection({5, 6, 7}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  ExpectIntersection({1, 100}, {1, 2, 3, 99, 100});
  std::vector<uint32_t> dense, sparse;
  for (uint32_t i = 0; i < 1000; ++i) dense.push_back(i);
  for (uint32_t i = 0; i < 1000; i += 97) sparse.push_back(i);
  ExpectIntersection(dense, sparse);
}

TEST(IntersectTest, SkewTriggersGallopingAndBalancedTriggersMerge) {
  std::vector<uint32_t> small = {3, 5000, 99991};
  std::vector<uint32_t> large;
  for (uint32_t i = 0; i < 100000; ++i) large.push_back(i);
  std::vector<uint32_t> out;
  IntersectStats st;
  IntersectSorted(small.data(), small.size(), large.data(), large.size(),
                  &out, &st);
  EXPECT_EQ(out, small);
  EXPECT_EQ(st.gallop, 1u);
  EXPECT_EQ(st.merge, 0u);

  std::vector<uint32_t> a = {1, 2, 3, 4}, b = {2, 4, 6, 8};
  IntersectStats st2;
  IntersectSorted(a.data(), a.size(), b.data(), b.size(), &out, &st2);
  EXPECT_EQ(out, (std::vector<uint32_t>{2, 4}));
  EXPECT_EQ(st2.gallop, 0u);
  EXPECT_EQ(st2.merge, 1u);
}

TEST(IntersectTest, GallopingHandlesRunsAndBoundaries) {
  // Small list hugging both ends of the large list, plus a long run of
  // misses in between — the exponential stride must not overshoot.
  std::vector<uint32_t> large;
  for (uint32_t i = 0; i < 4096; ++i) large.push_back(2 * i);  // evens
  std::vector<uint32_t> small = {0, 1, 2, 4094, 8190, 8191};
  ExpectIntersection(small, large);
}

TEST(IntersectTest, SortUniqueIds) {
  std::vector<uint32_t> v = {5, 1, 5, 3, 1, 1, 9};
  SortUniqueIds(&v);
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 3, 5, 9}));
  std::vector<uint32_t> empty;
  SortUniqueIds(&empty);
  EXPECT_TRUE(empty.empty());
}

// ------------------------------------------------------ sequential streams

using Stream = std::vector<std::pair<RuleId, Match>>;

// Full per-rule FindAll stream through one sequential Matcher per rule.
Stream SequentialStream(const GraphView& g, const RuleSet& rules) {
  Stream out;
  for (RuleId r = 0; r < rules.size(); ++r) {
    Matcher m(g, rules[r].pattern());
    m.FindAll(MatchOptions{}, [&](const Match& match) {
      out.emplace_back(r, match);
      return true;
    });
  }
  return out;
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

// A budget cuts the stream, never reorders it: for every budget the
// budgeted stream is a prefix of the unbudgeted one.
TEST(MatchPlanTest, BudgetedStreamIsPrefixOfFullStream) {
  DatasetBundle bundle = SmallKg();
  GraphSnapshot snap(bundle.graph);
  for (RuleId r = 0; r < bundle.rules.size(); ++r) {
    const Pattern& p = bundle.rules[r].pattern();
    const std::vector<Match> full = Matcher(snap, p).Collect();
    for (size_t budget : {1u, 7u, 50u, 500u}) {
      MatchOptions opts;
      opts.max_expansions = budget;
      const std::vector<Match> cut = Matcher(snap, p).CollectWith(opts);
      ASSERT_LE(cut.size(), full.size()) << "rule " << r << " budget "
                                         << budget;
      for (size_t i = 0; i < cut.size(); ++i)
        EXPECT_EQ(cut[i], full[i]) << "rule " << r << " budget " << budget;
    }
  }
}

// ------------------------------------------------------ parallel detectors

TEST(MatchPlanTest, ParallelDetectorMatchesSequentialMatcher) {
  DatasetBundle bundle = SmallKg();
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedSnapshot snap(bundle.graph, shards);
    const Stream seq = SequentialStream(snap, bundle.rules);
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      ParallelDetectOptions opts;
      opts.shard_min_seeds = 1;  // force shard-level fan-out
      ParallelDetector detector(&pool, opts);
      Stream par;
      detector.Detect(snap, bundle.rules, [&](RuleId r, const Match& m) {
        par.emplace_back(r, m);
      });
      ASSERT_EQ(seq.size(), par.size())
          << "shards=" << shards << " threads=" << threads;
      for (size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].first, par[i].first) << "emission " << i;
        EXPECT_EQ(seq[i].second, par[i].second) << "emission " << i;
      }
    }
  }
}

TEST(MatchPlanTest, DeltaSearchOverShardedViewsMatchesLiveGraph) {
  DatasetBundle bundle = SmallKg();
  Graph& g = bundle.graph;
  g.EnableDeltaLog();
  // A synthetic delta touching a spread of nodes: relabel every 7th node
  // to itself-adjacent labels via the journal (attr flips anchor nodes).
  size_t mark = g.JournalSize();
  SymbolId name = g.vocab()->Attr("name");
  for (NodeId n = 0; n < g.NumNodes(); n += 7) {
    if (!g.NodeAlive(n)) continue;
    g.SetNodeAttr(n, name, g.vocab()->Value("delta"));
  }
  std::vector<EditEntry> delta(g.Journal().begin() + mark, g.Journal().end());
  ASSERT_FALSE(delta.empty());

  auto delta_stream = [&](const GraphView& view) {
    const DeltaAnchors anchors = ComputeDeltaAnchors(view, delta);
    Stream out;
    for (RuleId r = 0; r < bundle.rules.size(); ++r) {
      DeltaMatcher(view, bundle.rules[r].pattern())
          .FindDelta(anchors, [&](const Match& m) {
            out.emplace_back(r, m);
            return true;
          });
    }
    return out;
  };
  const Stream live = delta_stream(g);
  ASSERT_FALSE(live.empty());
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    const Stream sharded = delta_stream(ShardedSnapshot(g, shards));
    ASSERT_EQ(live.size(), sharded.size()) << "shards=" << shards;
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(live[i].first, sharded[i].first) << "emission " << i;
      EXPECT_EQ(live[i].second, sharded[i].second) << "emission " << i;
    }
  }
}

// ---------------------------------------------------------------- Explain

TEST(MatchPlanTest, ExplainSmoke) {
  DatasetBundle bundle = SmallKg();
  GraphSnapshot snap(bundle.graph);
  for (RuleId r = 0; r < bundle.rules.size(); ++r) {
    MatchPlan plan = MatchPlan::Compile(bundle.rules[r].pattern(), snap);
    std::string text = plan.Explain(*bundle.graph.vocab());
    EXPECT_FALSE(text.empty()) << "rule " << r;
    EXPECT_NE(text.find("body"), std::string::npos) << text;
  }
}

// grepair_plan_compiles_total counts one per body a Matcher compiles (a
// repeated anchor shape replays its body, also across DeltaMatcher calls),
// and compile_us keeps each body's sub-microsecond time instead of
// truncating it to 0.
TEST(MatchPlanTest, CompileCountersCountBodiesAndKeepTheirTime) {
  DatasetBundle bundle = SmallKg();
  GraphSnapshot snap(bundle.graph);
  const Pattern& p = bundle.rules[0].pattern();
  Matcher(snap, p).SeedVar();  // registers the instruments
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* compiles = reg.GetCounter("grepair_plan_compiles_total", "");
  obs::Counter* compile_us =
      reg.GetCounter("grepair_plan_compile_us_total", "");

  const uint64_t before = compiles->Value();
  Matcher m(snap, p);
  const VarId seed = m.SeedVar();  // the unanchored body
  const std::vector<NodeId> seeds = m.SeedCandidates(seed);
  ASSERT_FALSE(seeds.empty());
  m.Count();  // replays the unanchored body
  MatchOptions anchored;
  anchored.node_anchors.push_back({seed, seeds[0]});
  m.CollectWith(anchored);  // the single-variable body
  m.CollectWith(anchored);
  EXPECT_EQ(compiles->Value() - before, 2u);

  // A DeltaMatcher runs every call through one Matcher, so one-anchor
  // calls compile each anchor shape once.
  ASSERT_GE(seeds.size(), 20u);
  const uint64_t before_delta = compiles->Value();
  const DeltaMatcher dm(snap, p);
  for (size_t i = 0; i < 20; ++i)
    dm.FindDelta(DeltaAnchors{{seeds[i]}, {}},
                 [](const Match&) { return true; });
  EXPECT_LE(compiles->Value() - before_delta, p.NumNodes());

  // 2000 bodies take well over 100 µs in all (a body costs more than
  // 50 ns), while truncating each body to whole microseconds counts ~0.
  const uint64_t us_before = compile_us->Value();
  for (int i = 0; i < 2000; ++i) Matcher(snap, p).SeedVar();
  EXPECT_GE(compile_us->Value() - us_before, 100u);
}

}  // namespace
}  // namespace grepair
