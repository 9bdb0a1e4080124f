// Incremental (delta-anchored) matching tests, including the load-bearing
// property: after any random edit, delta re-matching finds every match a
// full re-detection finds among the NEW matches (invariant 4 of DESIGN.md).
#include <gtest/gtest.h>

#include <set>

#include "graph/graph.h"
#include "match/incremental.h"
#include "util/rng.h"

namespace grepair {
namespace {

std::set<std::pair<std::vector<NodeId>, std::vector<EdgeId>>> Canon(
    const std::vector<Match>& ms) {
  std::set<std::pair<std::vector<NodeId>, std::vector<EdgeId>>> out;
  for (const auto& m : ms) out.insert({m.nodes, m.edges});
  return out;
}

class IncrementalTest : public ::testing::Test {
 protected:
  IncrementalTest() : vocab_(MakeVocabulary()), g_(vocab_) {
    a_ = vocab_->Label("A");
    b_ = vocab_->Label("B");
    e_ = vocab_->Label("e");
    f_ = vocab_->Label("f");
  }

  std::vector<Match> Delta(const Pattern& p, size_t mark) {
    std::vector<EditEntry> delta(g_.Journal().begin() + mark,
                                 g_.Journal().end());
    std::vector<Match> out;
    DeltaMatcher(g_, p).FindDelta(delta, [&](const Match& m) {
      out.push_back(m);
      return true;
    });
    return out;
  }

  VocabularyPtr vocab_;
  Graph g_;
  SymbolId a_, b_, e_, f_;
};

TEST_F(IncrementalTest, AddedEdgeFoundViaEdgeAnchor) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_);
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  size_t mark = g_.JournalSize();
  g_.AddEdge(x, y, e_);
  auto found = Delta(p, mark);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].nodes[u], x);
}

TEST_F(IncrementalTest, RemovalEnablesNacMatch) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_);
  g_.AddEdge(x, y, e_);
  EdgeId back = g_.AddEdge(y, x, f_).value();
  Pattern p;  // (u)-[e]->(v) with NOT (v)-[f]->(u)
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  Nac nac;
  nac.kind = NacKind::kNoEdge;
  nac.src_var = v;
  nac.dst_var = u;
  nac.label = f_;
  p.AddNac(nac);
  EXPECT_EQ(Matcher(g_, p).Count(), 0u);

  size_t mark = g_.JournalSize();
  g_.RemoveEdge(back);  // NAC becomes satisfied -> new match
  auto found = Delta(p, mark);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].nodes[u], x);
}

TEST_F(IncrementalTest, RelabelCreatesMatch) {
  NodeId x = g_.AddNode(b_);  // wrong label initially
  Pattern p;
  p.AddNode(a_);
  size_t mark = g_.JournalSize();
  g_.SetNodeLabel(x, a_);
  auto found = Delta(p, mark);
  ASSERT_EQ(found.size(), 1u);
}

TEST_F(IncrementalTest, AttrChangeEnablesPredicateMatch) {
  SymbolId name = vocab_->Attr("name");
  NodeId x = g_.AddNode(a_), y = g_.AddNode(a_);
  g_.SetNodeAttr(x, name, vocab_->Value("p"));
  g_.SetNodeAttr(y, name, vocab_->Value("q"));
  Pattern p;  // two A nodes with equal name
  VarId u = p.AddNode(a_), v = p.AddNode(a_);
  AttrPredicate pred;
  pred.lhs = AttrOperand::VarAttr(u, name);
  pred.op = CmpOp::kEq;
  pred.rhs = AttrOperand::VarAttr(v, name);
  p.AddPredicate(pred);
  EXPECT_EQ(Matcher(g_, p).Count(), 0u);

  size_t mark = g_.JournalSize();
  g_.SetNodeAttr(y, name, vocab_->Value("p"));
  auto found = Delta(p, mark);
  EXPECT_EQ(found.size(), 2u);  // both orderings
}

TEST_F(IncrementalTest, DedupAcrossAnchors) {
  // A match touching TWO delta elements must be reported once.
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_);
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  p.AddEdge(u, v, f_);
  size_t mark = g_.JournalSize();
  g_.AddEdge(x, y, e_);
  g_.AddEdge(x, y, f_);
  auto found = Delta(p, mark);
  EXPECT_EQ(found.size(), 1u);
}

TEST_F(IncrementalTest, AnchorsComputedFromJournal) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_);
  EdgeId e1 = g_.AddEdge(x, y, e_).value();
  size_t mark = g_.JournalSize();
  g_.RemoveEdge(e1);
  NodeId z = g_.AddNode(a_);
  std::vector<EditEntry> delta(g_.Journal().begin() + mark, g_.Journal().end());
  auto anchors = ComputeDeltaAnchors(g_, delta);
  // x and y touched by removal, z by creation; no edges alive in delta.
  EXPECT_EQ(anchors.nodes.size(), 3u);
  EXPECT_TRUE(anchors.edges.empty());
  (void)z;
}

// Property: apply a random edit script; every match of the post-state that
// was NOT a match of the pre-state must be found by FindDelta.
class DeltaCompleteness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaCompleteness, FindsAllNewMatches) {
  uint64_t seed = GetParam();
  auto vocab = MakeVocabulary();
  Rng rng(seed);
  SymbolId A = vocab->Label("A"), B = vocab->Label("B");
  SymbolId E = vocab->Label("e"), F = vocab->Label("f");
  SymbolId attr = vocab->Attr("a");
  std::vector<SymbolId> values = {vocab->Value("v1"), vocab->Value("v2")};

  Graph g(vocab);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 12; ++i)
    nodes.push_back(g.AddNode(rng.NextBernoulli(0.5) ? A : B));
  for (int i = 0; i < 20; ++i) {
    NodeId x = nodes[rng.PickIndex(nodes)], y = nodes[rng.PickIndex(nodes)];
    g.AddEdge(x, y, rng.NextBernoulli(0.5) ? E : F);
  }
  for (NodeId n : nodes)
    if (rng.NextBernoulli(0.5))
      g.SetNodeAttr(n, attr, values[rng.PickIndex(values)]);

  // Pattern: (u:A)-[e]->(v) with NOT (v)-[f]->(u) — exercises both positive
  // and NAC delta paths.
  Pattern p;
  VarId u = p.AddNode(A), v = p.AddNode(0);
  p.AddEdge(u, v, E);
  Nac nac;
  nac.kind = NacKind::kNoEdge;
  nac.src_var = v;
  nac.dst_var = u;
  nac.label = F;
  p.AddNac(nac);

  auto before = Canon(Matcher(g, p).Collect());

  // Random edit script (3 edits).
  size_t mark = g.JournalSize();
  for (int k = 0; k < 3; ++k) {
    switch (rng.NextBounded(5)) {
      case 0: {
        NodeId x = nodes[rng.PickIndex(nodes)], y = nodes[rng.PickIndex(nodes)];
        if (g.NodeAlive(x) && g.NodeAlive(y))
          g.AddEdge(x, y, rng.NextBernoulli(0.5) ? E : F);
        break;
      }
      case 1: {
        auto edges = g.Edges();
        if (!edges.empty()) g.RemoveEdge(edges[rng.PickIndex(edges)]);
        break;
      }
      case 2: {
        NodeId x = nodes[rng.PickIndex(nodes)];
        if (g.NodeAlive(x)) g.SetNodeLabel(x, rng.NextBernoulli(0.5) ? A : B);
        break;
      }
      case 3: {
        NodeId x = nodes[rng.PickIndex(nodes)];
        if (g.NodeAlive(x))
          g.SetNodeAttr(x, attr, values[rng.PickIndex(values)]);
        break;
      }
      default: {
        NodeId x = nodes[rng.PickIndex(nodes)];
        if (g.NodeAlive(x) && rng.NextBernoulli(0.3)) g.RemoveNode(x);
        break;
      }
    }
  }

  auto after = Canon(Matcher(g, p).Collect());
  std::vector<EditEntry> delta(g.Journal().begin() + mark, g.Journal().end());
  std::set<std::pair<std::vector<NodeId>, std::vector<EdgeId>>> delta_found;
  DeltaMatcher(g, p).FindDelta(delta, [&](const Match& m) {
    delta_found.insert({m.nodes, m.edges});
    return true;
  });

  // Completeness: every NEW match is delta-found.
  for (const auto& m : after) {
    if (before.count(m)) continue;
    EXPECT_TRUE(delta_found.count(m))
        << "seed=" << seed << ": new match missed by delta matcher";
  }
  // Soundness of reports: everything delta-found is a current match.
  for (const auto& m : delta_found) EXPECT_TRUE(after.count(m));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, DeltaCompleteness,
                         ::testing::Range<uint64_t>(0, 60));

}  // namespace
}  // namespace grepair
