// Repair engine tests across all strategies on hand-built scenarios.
#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "grr/rule_parser.h"
#include "repair/engine.h"
#include "util/hash.h"

namespace grepair {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : vocab_(MakeVocabulary()), g_(vocab_) {}

  RuleSet Rules(const std::string& dsl) {
    auto r = ParseRules(dsl, vocab_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : RuleSet{};
  }

  RepairResult Run(RepairStrategy strategy, const RuleSet& rules,
                   bool incremental = true) {
    RepairOptions opt;
    opt.strategy = strategy;
    opt.incremental = incremental;
    RepairEngine engine(opt);
    auto r = engine.Run(&g_, rules);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : RepairResult{};
  }

  VocabularyPtr vocab_;
  Graph g_;
};

constexpr char kSymmetryRule[] = R"(
  RULE sym CLASS incomplete
  MATCH (x:P)-[knows]->(y:P)
  WHERE NOT EDGE (y)-[knows]->(x)
  ACTION ADD_EDGE (y)-[knows]->(x)
)";

TEST_F(EngineTest, GreedyRepairsAsymmetry) {
  SymbolId p = vocab_->Label("P"), knows = vocab_->Label("knows");
  NodeId a = g_.AddNode(p), b = g_.AddNode(p), c = g_.AddNode(p);
  g_.AddEdge(a, b, knows);
  g_.AddEdge(b, c, knows);
  g_.ResetJournal();

  RuleSet rules = Rules(kSymmetryRule);
  RepairResult res = Run(RepairStrategy::kGreedy, rules);
  EXPECT_EQ(res.initial_violations, 2u);
  EXPECT_EQ(res.remaining_violations, 0u);
  EXPECT_EQ(res.applied.size(), 2u);
  EXPECT_TRUE(g_.HasEdge(b, a, knows));
  EXPECT_TRUE(g_.HasEdge(c, b, knows));
  EXPECT_DOUBLE_EQ(res.repair_cost, 2.0);
}

TEST_F(EngineTest, AllStrategiesReachZeroViolations) {
  SymbolId p = vocab_->Label("P"), knows = vocab_->Label("knows");
  RuleSet rules = Rules(kSymmetryRule);
  for (auto strategy :
       {RepairStrategy::kNaive, RepairStrategy::kGreedy,
        RepairStrategy::kBatch, RepairStrategy::kExact}) {
    Graph fresh(vocab_);
    NodeId a = fresh.AddNode(p), b = fresh.AddNode(p);
    NodeId c = fresh.AddNode(p);
    fresh.AddEdge(a, b, knows);
    fresh.AddEdge(c, a, knows);
    fresh.ResetJournal();
    g_ = fresh;
    RepairResult res = Run(strategy, rules);
    EXPECT_EQ(res.remaining_violations, 0u)
        << RepairStrategyName(strategy);
  }
}

TEST_F(EngineTest, CascadeAcrossRules) {
  // Repairing rule 1 (country needs capital) creates a city whose missing
  // located_in then violates rule 2 — the engine must chase the chain.
  RuleSet rules = Rules(R"(
    RULE country_needs_capital CLASS incomplete
    MATCH (y:Country)
    WHERE NOT EDGE (*)-[capital_of]->(y)
    ACTION ADD_NODE (c:City)-[capital_of]->(y)

    RULE capital_implies_located CLASS incomplete
    MATCH (x:City)-[capital_of]->(y:Country)
    WHERE NOT EDGE (x)-[located_in]->(y)
    ACTION ADD_EDGE (x)-[located_in]->(y)
  )");
  NodeId country = g_.AddNode(vocab_->Label("Country"));
  g_.ResetJournal();

  RepairResult res = Run(RepairStrategy::kGreedy, rules);
  EXPECT_EQ(res.remaining_violations, 0u);
  EXPECT_EQ(res.applied.size(), 2u);  // one ADD_NODE + one cascaded ADD_EDGE
  SymbolId cap = vocab_->Label("capital_of");
  SymbolId loc = vocab_->Label("located_in");
  bool found = false;
  for (EdgeId e : g_.Edges()) {
    if (g_.EdgeLabel(e) == cap) {
      EdgeView v = g_.Edge(e);
      EXPECT_EQ(v.dst, country);
      EXPECT_TRUE(g_.HasEdge(v.src, country, loc));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(EngineTest, GreedyPrefersLowConfidenceDeletion) {
  RuleSet rules = Rules(R"(
    RULE one_cap CLASS conflict
    MATCH (x:City)-[e1:capital_of]->(y:Country), (z:City)-[e2:capital_of]->(y)
    ACTION DEL_EDGE e2
  )");
  SymbolId city = vocab_->Label("City"), country = vocab_->Label("Country");
  SymbolId cap = vocab_->Label("capital_of");
  SymbolId conf = vocab_->Attr("conf");
  NodeId c1 = g_.AddNode(city), c2 = g_.AddNode(city);
  NodeId y = g_.AddNode(country);
  EdgeId real = g_.AddEdge(c1, y, cap).value();
  EdgeId fake = g_.AddEdge(c2, y, cap).value();
  g_.SetEdgeAttr(real, conf, vocab_->Value("90"));
  g_.SetEdgeAttr(fake, conf, vocab_->Value("30"));
  g_.ResetJournal();

  RepairResult res = Run(RepairStrategy::kGreedy, rules);
  EXPECT_EQ(res.remaining_violations, 0u);
  EXPECT_TRUE(g_.EdgeAlive(real));
  EXPECT_FALSE(g_.EdgeAlive(fake));
}

TEST_F(EngineTest, MergeRepairsDuplicates) {
  RuleSet rules = Rules(R"(
    RULE dup CLASS redundant
    MATCH (x:P), (y:P)
    WHERE x.name = y.name
    ACTION MERGE (x, y)
  )");
  SymbolId p = vocab_->Label("P");
  SymbolId name = vocab_->Attr("name");
  NodeId a = g_.AddNode(p), b = g_.AddNode(p), c = g_.AddNode(p);
  g_.SetNodeAttr(a, name, vocab_->Value("alice"));
  g_.SetNodeAttr(b, name, vocab_->Value("alice"));
  g_.SetNodeAttr(c, name, vocab_->Value("carol"));
  g_.ResetJournal();

  RepairResult res = Run(RepairStrategy::kGreedy, rules);
  EXPECT_EQ(res.remaining_violations, 0u);
  EXPECT_EQ(g_.NumNodes(), 2u);
  EXPECT_TRUE(g_.NodeAlive(a));  // survivor is the lower id
  EXPECT_FALSE(g_.NodeAlive(b));
  EXPECT_TRUE(g_.NodeAlive(c));
}

TEST_F(EngineTest, TripleDuplicateChainMerges) {
  RuleSet rules = Rules(R"(
    RULE dup CLASS redundant
    MATCH (x:P), (y:P)
    WHERE x.name = y.name
    ACTION MERGE (x, y)
  )");
  SymbolId p = vocab_->Label("P");
  SymbolId name = vocab_->Attr("name");
  for (int i = 0; i < 3; ++i) {
    NodeId n = g_.AddNode(p);
    g_.SetNodeAttr(n, name, vocab_->Value("same"));
  }
  g_.ResetJournal();
  RepairResult res = Run(RepairStrategy::kGreedy, rules);
  EXPECT_EQ(res.remaining_violations, 0u);
  EXPECT_EQ(g_.NumNodes(), 1u);
  EXPECT_EQ(res.applied.size(), 2u);
}

TEST_F(EngineTest, NonTerminatingSetHitsBudget) {
  RuleSet rules = Rules(R"(
    RULE a_needs_b CLASS incomplete
    MATCH (x:A)
    WHERE NOT EDGE (x)-[req]->(*)
    ACTION ADD_NODE (x)-[req]->(n:B)

    RULE b_needs_a CLASS incomplete
    MATCH (x:B)
    WHERE NOT EDGE (x)-[req]->(*)
    ACTION ADD_NODE (x)-[req]->(n:A)
  )");
  g_.AddNode(vocab_->Label("A"));
  g_.ResetJournal();

  RepairOptions opt;
  opt.strategy = RepairStrategy::kGreedy;
  opt.max_fixes = 50;
  RepairEngine engine(opt);
  auto res = engine.Run(&g_, rules);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().budget_exhausted);
  EXPECT_GT(res.value().remaining_violations, 0u);
}

TEST_F(EngineTest, OscillationDetected) {
  // add_back_link / no_mutual_follow oscillate on a one-way follow edge.
  RuleSet rules = Rules(R"(
    RULE add_back CLASS incomplete
    MATCH (x:P)-[follows]->(y:P)
    WHERE NOT EDGE (y)-[follows]->(x)
    ACTION ADD_EDGE (y)-[follows]->(x)

    RULE no_mutual CLASS conflict
    MATCH (x:P)-[e1:follows]->(y:P), (y)-[e2:follows]->(x)
    ACTION DEL_EDGE e2
  )");
  SymbolId p = vocab_->Label("P"), follows = vocab_->Label("follows");
  NodeId a = g_.AddNode(p), b = g_.AddNode(p);
  g_.AddEdge(a, b, follows);
  g_.ResetJournal();

  RepairOptions opt;
  opt.strategy = RepairStrategy::kGreedy;
  opt.detect_oscillation = true;
  opt.max_fixes = 1000;
  RepairEngine engine(opt);
  auto res = engine.Run(&g_, rules);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().oscillation_detected ||
              res.value().budget_exhausted);
}

TEST_F(EngineTest, ExactFindsMinimumCostRepair) {
  // Conflict with two alternatives: deleting the low-confidence edge costs
  // 0.3, the high-confidence one 0.9. Exact must pick 0.3.
  RuleSet rules = Rules(R"(
    RULE one_cap CLASS conflict
    MATCH (x:City)-[e1:capital_of]->(y:Country), (z:City)-[e2:capital_of]->(y)
    ACTION DEL_EDGE e2
  )");
  SymbolId city = vocab_->Label("City"), country = vocab_->Label("Country");
  SymbolId cap = vocab_->Label("capital_of");
  SymbolId conf = vocab_->Attr("conf");
  NodeId c1 = g_.AddNode(city), c2 = g_.AddNode(city);
  NodeId y = g_.AddNode(country);
  EdgeId real = g_.AddEdge(c1, y, cap).value();
  EdgeId fake = g_.AddEdge(c2, y, cap).value();
  g_.SetEdgeAttr(real, conf, vocab_->Value("90"));
  g_.SetEdgeAttr(fake, conf, vocab_->Value("30"));
  g_.ResetJournal();

  RepairResult res = Run(RepairStrategy::kExact, rules);
  EXPECT_EQ(res.remaining_violations, 0u);
  EXPECT_EQ(res.applied.size(), 1u);
  EXPECT_FALSE(g_.EdgeAlive(fake));
  EXPECT_TRUE(g_.EdgeAlive(real));
}

TEST_F(EngineTest, ExactNeverWorseThanGreedy) {
  RuleSet rules = Rules(kSymmetryRule);
  SymbolId p = vocab_->Label("P"), knows = vocab_->Label("knows");
  Graph base(vocab_);
  NodeId a = base.AddNode(p), b = base.AddNode(p), c = base.AddNode(p);
  base.AddEdge(a, b, knows);
  base.AddEdge(b, c, knows);
  base.AddEdge(c, a, knows);
  base.ResetJournal();

  g_ = base.Clone();
  RepairResult greedy = Run(RepairStrategy::kGreedy, rules);
  g_ = base.Clone();
  RepairResult exact = Run(RepairStrategy::kExact, rules);
  EXPECT_EQ(exact.remaining_violations, 0u);
  EXPECT_LE(exact.repair_cost, greedy.repair_cost + 1e-9);
}

TEST_F(EngineTest, IncrementalAndFullAgreeOnOutcome) {
  RuleSet rules = Rules(kSymmetryRule);
  SymbolId p = vocab_->Label("P"), knows = vocab_->Label("knows");
  Graph base(vocab_);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) nodes.push_back(base.AddNode(p));
  for (int i = 0; i + 1 < 10; ++i)
    base.AddEdge(nodes[i], nodes[i + 1], knows);
  base.ResetJournal();

  g_ = base.Clone();
  RepairResult inc = Run(RepairStrategy::kGreedy, rules, true);
  uint64_t fp_inc = g_.Fingerprint();
  g_ = base.Clone();
  RepairResult full = Run(RepairStrategy::kGreedy, rules, false);
  uint64_t fp_full = g_.Fingerprint();

  EXPECT_EQ(inc.remaining_violations, 0u);
  EXPECT_EQ(full.remaining_violations, 0u);
  EXPECT_EQ(fp_inc, fp_full);
  EXPECT_EQ(inc.applied.size(), full.applied.size());
}

TEST_F(EngineTest, EmptyRuleSetIsNoOp) {
  g_.AddNode(vocab_->Label("P"));
  g_.ResetJournal();
  RuleSet empty;
  RepairResult res = Run(RepairStrategy::kGreedy, empty);
  EXPECT_EQ(res.initial_violations, 0u);
  EXPECT_TRUE(res.applied.empty());
  EXPECT_DOUBLE_EQ(res.repair_cost, 0.0);
}

TEST_F(EngineTest, CleanGraphUntouched) {
  SymbolId p = vocab_->Label("P"), knows = vocab_->Label("knows");
  NodeId a = g_.AddNode(p), b = g_.AddNode(p);
  g_.AddEdge(a, b, knows);
  g_.AddEdge(b, a, knows);
  g_.ResetJournal();
  uint64_t fp = g_.Fingerprint();
  RuleSet rules = Rules(kSymmetryRule);
  RepairResult res = Run(RepairStrategy::kGreedy, rules);
  EXPECT_TRUE(res.applied.empty());
  EXPECT_EQ(g_.Fingerprint(), fp);
}

TEST_F(EngineTest, NullGraphRejected) {
  RepairEngine engine;
  RuleSet rules;
  auto res = engine.Run(nullptr, rules);
  EXPECT_FALSE(res.ok());
}

// ------------------------------------------------------ golden outcomes
// Greedy repairs of seeded generator bundles at 1 and 2 threads, pinned:
// the applied-fix count, a hash over the fixes in order, the violations
// left, the matcher expansions and the final graph fingerprint. Match
// emission order, candidate pruning and fix selection (ties go to the first
// strictly cheapest alternative) all feed these numbers, so a change to any
// of them shows here. The constants were recorded with the interpreted
// matcher, before it was deleted; the compiled matcher reproduces them.

struct GoldenOutcome {
  size_t fixes;
  uint64_t fix_hash;
  size_t remaining;
  size_t expansions;
  uint64_t fingerprint;
};

uint64_t HashFixes(const std::vector<AppliedFix>& fixes) {
  uint64_t h = 0;
  for (const AppliedFix& f : fixes) {
    h = HashCombine(h, f.rule);
    h = HashCombine(h, static_cast<uint64_t>(f.kind));
    h = HashCombine(h, f.node_a);
    h = HashCombine(h, f.node_b);
    h = HashCombine(h, f.label);
    h = HashCombine(h, f.attr);
    h = HashCombine(h, f.value);
    h = HashCombine(h, f.new_node);
  }
  return h;
}

void ExpectGoldenRepair(const Result<DatasetBundle>& built, size_t threads,
                        const GoldenOutcome& want) {
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const DatasetBundle& bundle = built.value();
  Graph g = bundle.graph.Clone();
  RepairOptions opt;
  opt.num_threads = threads;
  auto r = RepairEngine(opt).Run(&g, bundle.rules);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const RepairResult& res = r.value();
  const GoldenOutcome got{res.applied.size(), HashFixes(res.applied),
                          res.remaining_violations, res.matcher_expansions,
                          g.Fingerprint()};
  const std::string where = bundle.name + " threads=" +
                            std::to_string(threads) + " got {" +
                            std::to_string(got.fixes) + ", " +
                            std::to_string(got.fix_hash) + "ull, " +
                            std::to_string(got.remaining) + ", " +
                            std::to_string(got.expansions) + ", " +
                            std::to_string(got.fingerprint) + "ull}";
  EXPECT_EQ(got.fixes, want.fixes) << where;
  EXPECT_EQ(got.fix_hash, want.fix_hash) << where;
  EXPECT_EQ(got.remaining, want.remaining) << where;
  EXPECT_EQ(got.expansions, want.expansions) << where;
  EXPECT_EQ(got.fingerprint, want.fingerprint) << where;
}

InjectOptions GoldenInjection() {
  InjectOptions iopt;
  iopt.rate = 0.08;
  return iopt;
}

Result<DatasetBundle> GoldenKg() {
  KgOptions gopt;
  gopt.num_persons = 1500;
  return MakeKgBundle(gopt, GoldenInjection());
}

Result<DatasetBundle> GoldenSocial() {
  SocialOptions gopt;
  gopt.num_persons = 1000;
  return MakeSocialBundle(gopt, GoldenInjection());
}

Result<DatasetBundle> GoldenCitation() {
  CitationOptions gopt;
  gopt.num_papers = 800;
  gopt.num_authors = 300;
  return MakeCitationBundle(gopt, GoldenInjection());
}

// Indexed by thread count - 1. A 2-thread full pass shards rules by seed
// and counts no root expansion per sharded rule, so only the expansion
// count differs between the two.
constexpr GoldenOutcome kKgGolden[2] = {
    {431, 10816013893858411546ull, 0, 28986, 6434168300345674036ull},
    {431, 10816013893858411546ull, 0, 28976, 6434168300345674036ull}};
constexpr GoldenOutcome kSocialGolden[2] = {
    {287, 1422121527281215708ull, 0, 22312, 12614167330054304599ull},
    {287, 1422121527281215708ull, 0, 22308, 12614167330054304599ull}};
constexpr GoldenOutcome kCitationGolden[2] = {
    {100, 3485240924153273388ull, 0, 3826, 13321855126393020223ull},
    {100, 3485240924153273388ull, 0, 3822, 13321855126393020223ull}};

TEST(GoldenRepairTest, KgGreedyOutcomePinned) {
  const Result<DatasetBundle> bundle = GoldenKg();
  for (size_t threads : {1u, 2u})
    ExpectGoldenRepair(bundle, threads, kKgGolden[threads - 1]);
}

TEST(GoldenRepairTest, SocialGreedyOutcomePinned) {
  const Result<DatasetBundle> bundle = GoldenSocial();
  for (size_t threads : {1u, 2u})
    ExpectGoldenRepair(bundle, threads, kSocialGolden[threads - 1]);
}

TEST(GoldenRepairTest, CitationGreedyOutcomePinned) {
  const Result<DatasetBundle> bundle = GoldenCitation();
  for (size_t threads : {1u, 2u})
    ExpectGoldenRepair(bundle, threads, kCitationGolden[threads - 1]);
}

}  // namespace
}  // namespace grepair
