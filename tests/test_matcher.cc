// Matcher unit tests: labels, injectivity, edge binding, anchors, NACs,
// predicates, limits, Verify.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph.h"
#include "match/matcher.h"

namespace grepair {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() : vocab_(MakeVocabulary()), g_(vocab_) {
    a_ = vocab_->Label("A");
    b_ = vocab_->Label("B");
    e_ = vocab_->Label("e");
    f_ = vocab_->Label("f");
  }

  VocabularyPtr vocab_;
  Graph g_;
  SymbolId a_, b_, e_, f_;
};

TEST_F(MatcherTest, SingleNodeByLabel) {
  g_.AddNode(a_);
  g_.AddNode(a_);
  g_.AddNode(b_);
  Pattern p;
  p.AddNode(a_);
  Matcher m(g_, p);
  EXPECT_EQ(m.Count(), 2u);
  Pattern any;
  any.AddNode(0);  // wildcard
  EXPECT_EQ(Matcher(g_, any).Count(), 3u);
}

TEST_F(MatcherTest, EdgePatternRespectsDirectionAndLabel) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_);
  g_.AddEdge(x, y, e_);
  Pattern p;
  VarId px = p.AddNode(a_), py = p.AddNode(b_);
  p.AddEdge(px, py, e_);
  EXPECT_EQ(Matcher(g_, p).Count(), 1u);

  Pattern wrong_dir;
  VarId qx = wrong_dir.AddNode(a_), qy = wrong_dir.AddNode(b_);
  wrong_dir.AddEdge(qy, qx, e_);
  EXPECT_EQ(Matcher(g_, wrong_dir).Count(), 0u);

  Pattern wrong_label;
  VarId rx = wrong_label.AddNode(a_), ry = wrong_label.AddNode(b_);
  wrong_label.AddEdge(rx, ry, f_);
  EXPECT_EQ(Matcher(g_, wrong_label).Count(), 0u);
}

TEST_F(MatcherTest, InjectiveOnNodes) {
  NodeId x = g_.AddNode(a_);
  g_.AddEdge(x, x, e_);  // self loop
  Pattern p;             // two DISTINCT a-nodes connected by e
  VarId px = p.AddNode(a_), py = p.AddNode(a_);
  p.AddEdge(px, py, e_);
  EXPECT_EQ(Matcher(g_, p).Count(), 0u);

  Pattern loop;  // explicit self-loop pattern
  VarId lx = loop.AddNode(a_);
  loop.AddEdge(lx, lx, e_);
  EXPECT_EQ(Matcher(g_, loop).Count(), 1u);
}

TEST_F(MatcherTest, TwoOrderingsOfSymmetricPattern) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(a_);
  g_.AddEdge(x, y, e_);
  g_.AddEdge(y, x, e_);
  Pattern p;  // (u)-[e]->(v), (v)-[e]->(u)
  VarId u = p.AddNode(a_), v = p.AddNode(a_);
  p.AddEdge(u, v, e_);
  p.AddEdge(v, u, e_);
  EXPECT_EQ(Matcher(g_, p).Count(), 2u);  // (x,y) and (y,x)
}

TEST_F(MatcherTest, ParallelEdgesEnumerateEdgeBindings) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_);
  EdgeId e1 = g_.AddEdge(x, y, e_).value();
  EdgeId e2 = g_.AddEdge(x, y, e_).value();
  Pattern p;
  VarId px = p.AddNode(a_), py = p.AddNode(b_);
  p.AddEdge(px, py, e_);
  auto matches = Matcher(g_, p).Collect();
  ASSERT_EQ(matches.size(), 2u);
  std::vector<EdgeId> bound = {matches[0].edges[0], matches[1].edges[0]};
  std::sort(bound.begin(), bound.end());
  EXPECT_EQ(bound, (std::vector<EdgeId>{e1, e2}));
}

TEST_F(MatcherTest, EdgeInjectivity) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_);
  g_.AddEdge(x, y, e_);
  Pattern p;  // two pattern edges over the same endpoints
  VarId px = p.AddNode(a_), py = p.AddNode(b_);
  p.AddEdge(px, py, e_);
  p.AddEdge(px, py, e_);
  EXPECT_EQ(Matcher(g_, p).Count(), 0u);  // one concrete edge can't serve both
  g_.AddEdge(x, y, e_);
  EXPECT_EQ(Matcher(g_, p).Count(), 2u);  // 2 permutations of the 2 edges
}

TEST_F(MatcherTest, DisconnectedPatternViaAttrJoin) {
  SymbolId name = vocab_->Attr("name");
  NodeId x = g_.AddNode(a_), y = g_.AddNode(a_), z = g_.AddNode(a_);
  g_.SetNodeAttr(x, name, vocab_->Value("n1"));
  g_.SetNodeAttr(y, name, vocab_->Value("n1"));
  g_.SetNodeAttr(z, name, vocab_->Value("n2"));
  Pattern p;
  VarId px = p.AddNode(a_), py = p.AddNode(a_);
  AttrPredicate pred;
  pred.lhs = AttrOperand::VarAttr(px, name);
  pred.op = CmpOp::kEq;
  pred.rhs = AttrOperand::VarAttr(py, name);
  p.AddPredicate(pred);
  EXPECT_EQ(Matcher(g_, p).Count(), 2u);  // (x,y) and (y,x)
}

TEST_F(MatcherTest, NacSuppressesMatches) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_);
  NodeId x2 = g_.AddNode(a_), y2 = g_.AddNode(b_);
  g_.AddEdge(x, y, e_);
  g_.AddEdge(y, x, f_);  // x has a back edge
  g_.AddEdge(x2, y2, e_);
  Pattern p;  // (u:A)-[e]->(v:B) with no (v)-[f]->(u)
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  Nac nac;
  nac.kind = NacKind::kNoEdge;
  nac.src_var = v;
  nac.dst_var = u;
  nac.label = f_;
  p.AddNac(nac);
  auto matches = Matcher(g_, p).Collect();
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].nodes[0], x2);
}

TEST_F(MatcherTest, NodeAnchorRestrictsSearch) {
  NodeId x1 = g_.AddNode(a_), y1 = g_.AddNode(b_);
  NodeId x2 = g_.AddNode(a_), y2 = g_.AddNode(b_);
  g_.AddEdge(x1, y1, e_);
  g_.AddEdge(x2, y2, e_);
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  MatchOptions opts;
  opts.node_anchors.push_back({u, x2});
  auto matches = Matcher(g_, p).CollectWith(opts);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].nodes[u], x2);
  EXPECT_EQ(matches[0].nodes[v], y2);
}

TEST_F(MatcherTest, NodeAnchorLabelMismatchYieldsNothing) {
  NodeId x = g_.AddNode(a_);
  g_.AddNode(b_);
  Pattern p;
  VarId u = p.AddNode(b_);
  MatchOptions opts;
  opts.node_anchors.push_back({u, x});  // x has label A, var wants B
  EXPECT_TRUE(Matcher(g_, p).CollectWith(opts).empty());
}

TEST_F(MatcherTest, EdgeAnchorBindsEndpoints) {
  NodeId x1 = g_.AddNode(a_), y1 = g_.AddNode(b_);
  NodeId x2 = g_.AddNode(a_), y2 = g_.AddNode(b_);
  g_.AddEdge(x1, y1, e_);
  EdgeId target = g_.AddEdge(x2, y2, e_).value();
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  MatchOptions opts;
  opts.edge_anchors.push_back({0, target});
  auto matches = Matcher(g_, p).CollectWith(opts);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].edges[0], target);
  EXPECT_EQ(matches[0].nodes[u], x2);
}

TEST_F(MatcherTest, MaxMatchesLimit) {
  for (int i = 0; i < 10; ++i) g_.AddNode(a_);
  Pattern p;
  p.AddNode(a_);
  MatchOptions opts;
  opts.max_matches = 4;
  EXPECT_EQ(Matcher(g_, p).CollectWith(opts).size(), 4u);
}

TEST_F(MatcherTest, CallbackCanStopEarly) {
  for (int i = 0; i < 10; ++i) g_.AddNode(a_);
  Pattern p;
  p.AddNode(a_);
  size_t seen = 0;
  Matcher(g_, p).FindAll({}, [&](const Match&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3u);
}

TEST_F(MatcherTest, ExistsShortCircuits) {
  for (int i = 0; i < 100; ++i) g_.AddNode(a_);
  Pattern p;
  p.AddNode(a_);
  EXPECT_TRUE(Matcher(g_, p).Exists());
  Pattern q;
  q.AddNode(b_);
  EXPECT_FALSE(Matcher(g_, q).Exists());
}

TEST_F(MatcherTest, VerifyDetectsStaleMatches) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_);
  g_.AddEdge(x, y, e_);
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  auto matches = Matcher(g_, p).Collect();
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(Matcher(g_, p).Verify(matches[0]));
  g_.RemoveEdge(matches[0].edges[0]);
  EXPECT_FALSE(Matcher(g_, p).Verify(matches[0]));
}

TEST_F(MatcherTest, VerifyChecksNacs) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_);
  g_.AddEdge(x, y, e_);
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  Nac nac;
  nac.kind = NacKind::kNoEdge;
  nac.src_var = v;
  nac.dst_var = u;
  nac.label = f_;
  p.AddNac(nac);
  auto matches = Matcher(g_, p).Collect();
  ASSERT_EQ(matches.size(), 1u);
  g_.AddEdge(y, x, f_);  // NAC now violated
  EXPECT_FALSE(Matcher(g_, p).Verify(matches[0]));
}

TEST_F(MatcherTest, TriangleInLargerGraph) {
  // Build a 3-cycle plus noise; the triangle pattern finds 3 rotations.
  NodeId n0 = g_.AddNode(a_), n1 = g_.AddNode(a_), n2 = g_.AddNode(a_);
  g_.AddEdge(n0, n1, e_);
  g_.AddEdge(n1, n2, e_);
  g_.AddEdge(n2, n0, e_);
  for (int i = 0; i < 20; ++i) {
    NodeId m1 = g_.AddNode(a_), m2 = g_.AddNode(a_);
    g_.AddEdge(m1, m2, e_);
  }
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(a_), w = p.AddNode(a_);
  p.AddEdge(u, v, e_);
  p.AddEdge(v, w, e_);
  p.AddEdge(w, u, e_);
  EXPECT_EQ(Matcher(g_, p).Count(), 3u);
}

TEST_F(MatcherTest, ExpansionBudgetReportsExhaustion) {
  for (int i = 0; i < 30; ++i) g_.AddNode(a_);
  Pattern p;  // 3 unconstrained wildcard vars: 30*29*28 bindings
  p.AddNode(0);
  p.AddNode(0);
  p.AddNode(0);
  MatchOptions opts;
  opts.max_expansions = 100;
  MatchStats st = Matcher(g_, p).FindAll(opts, [](const Match&) {
    return true;
  });
  EXPECT_TRUE(st.exhausted);
}

}  // namespace
}  // namespace grepair
