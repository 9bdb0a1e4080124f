// Property tests: the matcher's exact emission stream equals a brute-force
// reference enumeration put in the documented order (plan.h), on random
// graphs and random patterns (TEST_P sweeps, unanchored, node-anchored and
// edge-anchored) and on hand-built fixtures (anchors, NACs, attr joins),
// over both the Graph and a GraphSnapshot of it. This is the load-bearing
// correctness test for detection (invariant 3 of DESIGN.md) and the
// reference for match order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/graph.h"
#include "graph/snapshot.h"
#include "match/matcher.h"
#include "match/plan.h"
#include "match/predicate.h"
#include "util/rng.h"

namespace grepair {
namespace {

// Reference: enumerate ALL injective node bindings, then all injective edge
// bindings, checking everything directly. Exponential but exact.
class BruteForce {
 public:
  BruteForce(const Graph& g, const Pattern& p) : g_(g), p_(p) {}

  std::vector<Match> FindAll() {
    matches_.clear();
    binding_.assign(p_.NumNodes(), kInvalidNode);
    RecurseNodes(0);
    return matches_;
  }

 private:
  void RecurseNodes(VarId var) {
    if (var == p_.NumNodes()) {
      // Check predicates & NACs.
      for (const auto& pred : p_.predicates())
        if (EvalPredicate(g_, pred, binding_) != PredVerdict::kTrue) return;
      for (const auto& nac : p_.nacs())
        if (!EvalNac(g_, nac, binding_)) return;
      edge_binding_.assign(p_.NumEdges(), kInvalidEdge);
      RecurseEdges(0);
      return;
    }
    for (NodeId n : g_.Nodes()) {
      if (std::find(binding_.begin(), binding_.end(), n) != binding_.end())
        continue;
      const auto& pn = p_.nodes()[var];
      if (pn.label != 0 && g_.NodeLabel(n) != pn.label) continue;
      binding_[var] = n;
      RecurseNodes(var + 1);
      binding_[var] = kInvalidNode;
    }
  }

  void RecurseEdges(size_t idx) {
    if (idx == p_.NumEdges()) {
      Match m;
      m.nodes = binding_;
      m.edges = edge_binding_;
      matches_.push_back(m);
      return;
    }
    const auto& pe = p_.edges()[idx];
    for (EdgeId e : g_.Edges()) {
      if (std::find(edge_binding_.begin(), edge_binding_.end(), e) !=
          edge_binding_.end())
        continue;
      EdgeView v = g_.Edge(e);
      if (v.src != binding_[pe.src] || v.dst != binding_[pe.dst]) continue;
      if (pe.label != 0 && v.label != pe.label) continue;
      edge_binding_[idx] = e;
      RecurseEdges(idx + 1);
      edge_binding_[idx] = kInvalidEdge;
    }
  }

  const Graph& g_;
  const Pattern& p_;
  std::vector<NodeId> binding_;
  std::vector<EdgeId> edge_binding_;
  std::vector<Match> matches_;
};

// The stream a search with `opts` must emit: the brute-force matches that
// agree with the anchors, sorted lexicographically by node images in the
// search's variable order (PickNextVarOrdered over the growing bound set,
// starting from the anchored vars), then by each pattern edge's position
// in its source node's OutEdges.
std::vector<Match> ExpectedStream(const Graph& g, const Pattern& p,
                                  const MatchOptions& opts) {
  std::vector<bool> bound(p.NumNodes(), false);
  std::vector<Match> kept;
  for (Match& m : BruteForce(g, p).FindAll()) {
    bool agrees = true;
    for (const auto& [var, node] : opts.node_anchors)
      agrees = agrees && m.nodes[var] == node;
    for (const auto& [idx, edge] : opts.edge_anchors)
      agrees = agrees && m.edges[idx] == edge;
    if (agrees) kept.push_back(std::move(m));
  }
  for (const auto& [var, node] : opts.node_anchors) bound[var] = true;
  for (const auto& [idx, edge] : opts.edge_anchors) {
    bound[p.edges()[idx].src] = true;
    bound[p.edges()[idx].dst] = true;
  }
  std::vector<VarId> order;
  for (;;) {
    const VarId v =
        PickNextVarOrdered(g, p, [&bound](VarId u) { return bound[u]; });
    if (v == kNoVar) break;
    order.push_back(v);
    bound[v] = true;
  }
  auto key = [&](const Match& m) {
    std::vector<size_t> k;
    for (VarId v : order) k.push_back(m.nodes[v]);
    for (size_t j = 0; j < p.NumEdges(); ++j) {
      const IdSpan out = g.OutEdges(m.nodes[p.edges()[j].src]);
      k.push_back(std::find(out.begin(), out.end(), m.edges[j]) -
                  out.begin());
    }
    return k;
  };
  std::sort(kept.begin(), kept.end(),
            [&](const Match& a, const Match& b) { return key(a) < key(b); });
  return kept;
}

std::string Render(const std::vector<Match>& ms) {
  std::string out;
  for (const Match& m : ms) {
    out += "(";
    for (NodeId n : m.nodes) out += " n" + std::to_string(n);
    for (EdgeId e : m.edges) out += " e" + std::to_string(e);
    out += " )";
  }
  return out;
}

// Runs the search over the Graph and over a GraphSnapshot of it (whose
// label and attr steps read zero-copy spans) and compares each exact
// stream with the oracle.
void ExpectExactStream(const Graph& g, const Pattern& p,
                       const MatchOptions& opts, const std::string& what) {
  const std::vector<Match> want = ExpectedStream(g, p, opts);
  const GraphSnapshot snap(g);
  for (const GraphView* view : {static_cast<const GraphView*>(&g),
                                static_cast<const GraphView*>(&snap)}) {
    const std::vector<Match> got = Matcher(*view, p).CollectWith(opts);
    EXPECT_TRUE(got == want)
        << what << (view == &g ? " (graph)" : " (snapshot)")
        << "\n  got:  " << Render(got) << "\n  want: " << Render(want);
  }
}

Graph RandomGraph(VocabularyPtr vocab, uint64_t seed, size_t n_nodes,
                  size_t n_edges, size_t n_labels) {
  Graph g(vocab);
  Rng rng(seed);
  std::vector<SymbolId> nl, el;
  for (size_t i = 0; i < n_labels; ++i) {
    nl.push_back(vocab->Label("NL" + std::to_string(i)));
    el.push_back(vocab->Label("EL" + std::to_string(i)));
  }
  SymbolId attr = vocab->Attr("a");
  std::vector<SymbolId> values = {vocab->Value("v1"), vocab->Value("v2"),
                                  vocab->Value("v3")};
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < n_nodes; ++i) {
    NodeId n = g.AddNode(nl[rng.PickIndex(nl)]);
    if (rng.NextBernoulli(0.6))
      g.SetNodeAttr(n, attr, values[rng.PickIndex(values)]);
    nodes.push_back(n);
  }
  for (size_t i = 0; i < n_edges; ++i) {
    NodeId a = nodes[rng.PickIndex(nodes)];
    NodeId b = nodes[rng.PickIndex(nodes)];
    g.AddEdge(a, b, el[rng.PickIndex(el)]);
  }
  return g;
}

Pattern RandomPattern(Vocabulary* vocab, uint64_t seed, size_t n_labels) {
  Rng rng(seed);
  Pattern p;
  std::vector<SymbolId> nl, el;
  for (size_t i = 0; i < n_labels; ++i) {
    SymbolId l1, l2;
    vocab->LookupLabel("NL" + std::to_string(i), &l1);
    vocab->LookupLabel("EL" + std::to_string(i), &l2);
    nl.push_back(l1);
    el.push_back(l2);
  }
  size_t n_vars = 1 + rng.NextBounded(3);  // 1..3 vars
  for (size_t i = 0; i < n_vars; ++i) {
    SymbolId label = rng.NextBernoulli(0.7) ? nl[rng.PickIndex(nl)] : 0;
    p.AddNode(label);
  }
  size_t n_edges = rng.NextBounded(n_vars + 1);  // 0..n_vars pattern edges
  for (size_t i = 0; i < n_edges; ++i) {
    VarId a = static_cast<VarId>(rng.NextBounded(n_vars));
    VarId b = static_cast<VarId>(rng.NextBounded(n_vars));
    SymbolId label = rng.NextBernoulli(0.7) ? el[rng.PickIndex(el)] : 0;
    p.AddEdge(a, b, label);
  }
  // Sometimes an attribute predicate between two vars.
  if (n_vars >= 2 && rng.NextBernoulli(0.5)) {
    SymbolId attr;
    attr = vocab->Attr("a");
    AttrPredicate pred;
    pred.lhs = AttrOperand::VarAttr(0, attr);
    pred.op = rng.NextBernoulli(0.5) ? CmpOp::kEq : CmpOp::kNe;
    pred.rhs = AttrOperand::VarAttr(1, attr);
    p.AddPredicate(pred);
  }
  // Sometimes a NAC.
  if (rng.NextBernoulli(0.5)) {
    Nac nac;
    switch (rng.NextBounded(4)) {
      case 0:
        nac.kind = NacKind::kNoEdge;
        nac.src_var = static_cast<VarId>(rng.NextBounded(n_vars));
        nac.dst_var = static_cast<VarId>(rng.NextBounded(n_vars));
        break;
      case 1:
        nac.kind = NacKind::kNoOutEdge;
        nac.src_var = static_cast<VarId>(rng.NextBounded(n_vars));
        break;
      case 2:
        nac.kind = NacKind::kNoInEdge;
        nac.dst_var = static_cast<VarId>(rng.NextBounded(n_vars));
        break;
      default:
        nac.kind = NacKind::kNoIncident;
        nac.src_var = static_cast<VarId>(rng.NextBounded(n_vars));
        break;
    }
    nac.label = rng.NextBernoulli(0.5) ? el[rng.PickIndex(el)] : 0;
    if (nac.kind == NacKind::kNoIncident) nac.label = 0;
    p.AddNac(nac);
  }
  return p;
}

class MatcherVsBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherVsBruteForce, IdenticalMatchStreams) {
  uint64_t seed = GetParam();
  auto vocab = MakeVocabulary();
  Graph g = RandomGraph(vocab, seed, /*nodes=*/10, /*edges=*/18,
                        /*labels=*/2);
  Pattern p = RandomPattern(vocab.get(), seed * 31 + 7, 2);
  ASSERT_TRUE(p.Validate().ok());
  ExpectExactStream(g, p, MatchOptions{}, "seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, MatcherVsBruteForce,
                         ::testing::Range<uint64_t>(0, 60));

class AnchoredMatcherProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnchoredMatcherProperty, AnchoredEqualsFilteredGlobal) {
  uint64_t seed = GetParam();
  auto vocab = MakeVocabulary();
  Graph g = RandomGraph(vocab, seed + 1000, 10, 18, 2);
  Pattern p = RandomPattern(vocab.get(), seed * 17 + 3, 2);
  ASSERT_TRUE(p.Validate().ok());

  if (g.NumNodes() == 0 || p.NumNodes() == 0) return;
  Rng rng(seed);
  auto nodes = g.Nodes();
  NodeId anchor_node = nodes[rng.PickIndex(nodes)];
  VarId anchor_var = static_cast<VarId>(rng.NextBounded(p.NumNodes()));

  MatchOptions opts;
  opts.node_anchors.push_back({anchor_var, anchor_node});
  ExpectExactStream(g, p, opts, "seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, AnchoredMatcherProperty,
                         ::testing::Range<uint64_t>(0, 40));

class EdgeAnchoredMatcherProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EdgeAnchoredMatcherProperty, EdgeAnchoredEqualsFilteredGlobal) {
  uint64_t seed = GetParam();
  auto vocab = MakeVocabulary();
  Graph g = RandomGraph(vocab, seed + 2000, 10, 18, 2);
  Pattern p = RandomPattern(vocab.get(), seed * 13 + 5, 2);
  ASSERT_TRUE(p.Validate().ok());

  if (p.NumEdges() == 0) return;
  Rng rng(seed);
  auto edges = g.Edges();
  MatchOptions opts;
  opts.edge_anchors.push_back(
      {rng.NextBounded(p.NumEdges()), edges[rng.PickIndex(edges)]});
  ExpectExactStream(g, p, opts, "seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, EdgeAnchoredMatcherProperty,
                         ::testing::Range<uint64_t>(0, 40));

// ------------------------------------------------- hand-built fixtures

class MatchOrderFixtureTest : public ::testing::Test {
 protected:
  MatchOrderFixtureTest() : vocab_(MakeVocabulary()), g_(vocab_) {
    a_ = vocab_->Label("A");
    b_ = vocab_->Label("B");
    e_ = vocab_->Label("e");
    f_ = vocab_->Label("f");
  }

  VocabularyPtr vocab_;
  Graph g_;
  SymbolId a_, b_, e_, f_;
};

TEST_F(MatchOrderFixtureTest, NodeAnchors) {
  NodeId x1 = g_.AddNode(a_);
  NodeId x2 = g_.AddNode(a_);
  NodeId y = g_.AddNode(b_);
  g_.AddEdge(x1, y, e_);
  g_.AddEdge(x2, y, e_);
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  MatchOptions opts;
  opts.node_anchors.push_back({u, x2});
  ExpectExactStream(g_, p, opts, "u anchored");
  MatchOptions both;
  both.node_anchors.push_back({u, x1});
  both.node_anchors.push_back({v, y});
  ExpectExactStream(g_, p, both, "u and v anchored");
}

TEST_F(MatchOrderFixtureTest, EdgeAnchors) {
  NodeId x = g_.AddNode(a_), y = g_.AddNode(b_), z = g_.AddNode(b_);
  EdgeId target = g_.AddEdge(x, y, e_).value();
  g_.AddEdge(x, z, e_);
  g_.AddEdge(x, y, e_);  // a parallel edge the anchor must exclude
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  MatchOptions opts;
  opts.edge_anchors.push_back({0, target});
  ExpectExactStream(g_, p, opts, "edge 0 anchored");
  ExpectExactStream(g_, p, MatchOptions{}, "unanchored");
}

TEST_F(MatchOrderFixtureTest, Nac) {
  NodeId x1 = g_.AddNode(a_), x2 = g_.AddNode(a_);
  NodeId y1 = g_.AddNode(b_), y2 = g_.AddNode(b_);
  g_.AddEdge(x1, y1, e_);
  g_.AddEdge(x2, y2, e_);
  g_.AddEdge(y1, x1, f_);  // back edge only for the first pair
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(b_);
  p.AddEdge(u, v, e_);
  Nac nac;
  nac.kind = NacKind::kNoEdge;
  nac.src_var = v;
  nac.dst_var = u;
  nac.label = f_;
  p.AddNac(nac);
  ExpectExactStream(g_, p, MatchOptions{}, "nac");
}

TEST_F(MatchOrderFixtureTest, AttrJoinAndPredicates) {
  SymbolId name = vocab_->Attr("name");
  NodeId x = g_.AddNode(a_), y = g_.AddNode(a_), z = g_.AddNode(a_);
  g_.SetNodeAttr(x, name, vocab_->Value("n1"));
  g_.SetNodeAttr(y, name, vocab_->Value("n1"));
  g_.SetNodeAttr(z, name, vocab_->Value("n2"));
  Pattern p;
  VarId u = p.AddNode(a_), v = p.AddNode(a_);
  AttrPredicate pred;
  pred.lhs = AttrOperand::VarAttr(u, name);
  pred.op = CmpOp::kEq;
  pred.rhs = AttrOperand::VarAttr(v, name);
  p.AddPredicate(pred);
  ExpectExactStream(g_, p, MatchOptions{}, "attr join");
}

}  // namespace
}  // namespace grepair
