// Pattern model and predicate evaluation tests.
#include <gtest/gtest.h>

#include "graph/graph.h"
#include "match/pattern.h"
#include "match/predicate.h"

namespace grepair {
namespace {

TEST(PatternTest, BuildAndValidate) {
  Pattern p;
  VarId x = p.AddNode(1, "x");
  VarId y = p.AddNode(2, "y");
  ASSERT_TRUE(p.AddEdge(x, y, 3).ok());
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.NumNodes(), 2u);
  EXPECT_EQ(p.NumEdges(), 1u);
}

TEST(PatternTest, EmptyPatternInvalid) {
  Pattern p;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(PatternTest, BadEdgeEndpointRejected) {
  Pattern p;
  p.AddNode(1);
  EXPECT_FALSE(p.AddEdge(0, 5, 1).ok());
}

TEST(PatternTest, BadNacVarRejected) {
  Pattern p;
  p.AddNode(1);
  Nac n;
  n.kind = NacKind::kNoEdge;
  n.src_var = 0;
  n.dst_var = 9;
  p.AddNac(n);
  EXPECT_FALSE(p.Validate().ok());
}

TEST(PatternTest, ConstantOnlyPredicateRejected) {
  Pattern p;
  p.AddNode(1);
  AttrPredicate pred;
  pred.lhs = AttrOperand::Const(1);
  pred.op = CmpOp::kEq;
  pred.rhs = AttrOperand::Const(2);
  p.AddPredicate(pred);
  EXPECT_FALSE(p.Validate().ok());
}

TEST(PatternTest, NodeVariableLimitEnforced) {
  Pattern p;
  for (size_t i = 0; i < kMaxPatternNodes; ++i) p.AddNode(1);
  EXPECT_TRUE(p.Validate().ok());
  p.AddNode(1);  // 33 node variables
  Status st = p.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("at most 32"), std::string::npos)
      << st.message();
}

TEST(PatternTest, PositiveLabelsDeduped) {
  Pattern p;
  p.AddNode(5);
  p.AddNode(5);
  VarId a = 0, b = 1;
  p.AddEdge(a, b, 7);
  auto labels = p.PositiveLabels();
  EXPECT_EQ(labels, (std::vector<SymbolId>{5, 7}));
}

class PredicateTest : public ::testing::Test {
 protected:
  PredicateTest() : vocab_(MakeVocabulary()), g_(vocab_) {
    name_ = vocab_->Attr("name");
    year_ = vocab_->Attr("year");
    n1_ = g_.AddNode(vocab_->Label("N"));
    n2_ = g_.AddNode(vocab_->Label("N"));
    g_.SetNodeAttr(n1_, name_, vocab_->Value("alice"));
    g_.SetNodeAttr(n2_, name_, vocab_->Value("bob"));
    g_.SetNodeAttr(n1_, year_, vocab_->Value("1999"));
    g_.SetNodeAttr(n2_, year_, vocab_->Value("200"));
  }

  AttrPredicate Pred(VarId l, SymbolId lattr, CmpOp op, VarId r,
                     SymbolId rattr) {
    AttrPredicate p;
    p.lhs = AttrOperand::VarAttr(l, lattr);
    p.op = op;
    p.rhs = AttrOperand::VarAttr(r, rattr);
    return p;
  }

  VocabularyPtr vocab_;
  Graph g_;
  SymbolId name_, year_;
  NodeId n1_, n2_;
};

TEST_F(PredicateTest, NumericComparisonWhenBothNumeric) {
  // "1999" vs "200": numeric 1999 > 200 (lexicographic would say "1999" < "200").
  std::vector<NodeId> binding = {n1_, n2_};
  EXPECT_EQ(EvalPredicate(g_, Pred(0, year_, CmpOp::kGt, 1, year_), binding),
            PredVerdict::kTrue);
}

TEST_F(PredicateTest, LexicographicFallback) {
  std::vector<NodeId> binding = {n1_, n2_};
  EXPECT_EQ(EvalPredicate(g_, Pred(0, name_, CmpOp::kLt, 1, name_), binding),
            PredVerdict::kTrue);  // "alice" < "bob"
}

TEST_F(PredicateTest, UnknownWhileUnbound) {
  std::vector<NodeId> binding = {n1_, kInvalidNode};
  EXPECT_EQ(EvalPredicate(g_, Pred(0, name_, CmpOp::kEq, 1, name_), binding),
            PredVerdict::kUnknown);
}

TEST_F(PredicateTest, AbsentAttrFailsEquality) {
  SymbolId missing = vocab_->Attr("missing");
  std::vector<NodeId> binding = {n1_, n2_};
  EXPECT_EQ(
      EvalPredicate(g_, Pred(0, missing, CmpOp::kEq, 1, missing), binding),
      PredVerdict::kFalse);
}

TEST_F(PredicateTest, NeTrueWhenOneSideAbsent) {
  SymbolId missing = vocab_->Attr("missing");
  std::vector<NodeId> binding = {n1_, n2_};
  EXPECT_EQ(EvalPredicate(g_, Pred(0, name_, CmpOp::kNe, 1, missing), binding),
            PredVerdict::kTrue);
  EXPECT_EQ(
      EvalPredicate(g_, Pred(0, missing, CmpOp::kNe, 1, missing), binding),
      PredVerdict::kFalse);  // both absent: not different
}

TEST_F(PredicateTest, AbsentPresentUnaryOps) {
  SymbolId missing = vocab_->Attr("missing");
  std::vector<NodeId> binding = {n1_, n2_};
  AttrPredicate p;
  p.lhs = AttrOperand::VarAttr(0, missing);
  p.op = CmpOp::kAbsent;
  p.rhs = AttrOperand::Const(0);
  EXPECT_EQ(EvalPredicate(g_, p, binding), PredVerdict::kTrue);
  p.op = CmpOp::kPresent;
  EXPECT_EQ(EvalPredicate(g_, p, binding), PredVerdict::kFalse);
  p.lhs = AttrOperand::VarAttr(0, name_);
  EXPECT_EQ(EvalPredicate(g_, p, binding), PredVerdict::kTrue);
}

TEST_F(PredicateTest, ConstantComparison) {
  AttrPredicate p;
  p.lhs = AttrOperand::VarAttr(0, name_);
  p.op = CmpOp::kEq;
  p.rhs = AttrOperand::Const(vocab_->Value("alice"));
  std::vector<NodeId> binding = {n1_};
  EXPECT_EQ(EvalPredicate(g_, p, binding), PredVerdict::kTrue);
}

TEST_F(PredicateTest, NacNoEdge) {
  g_.AddEdge(n1_, n2_, vocab_->Label("e"));
  Nac nac;
  nac.kind = NacKind::kNoEdge;
  nac.src_var = 0;
  nac.dst_var = 1;
  nac.label = vocab_->Label("e");
  std::vector<NodeId> binding = {n1_, n2_};
  EXPECT_FALSE(EvalNac(g_, nac, binding));
  std::vector<NodeId> reversed = {n2_, n1_};
  EXPECT_TRUE(EvalNac(g_, nac, reversed));
}

TEST_F(PredicateTest, NacNoOutInEdge) {
  g_.AddEdge(n1_, n2_, vocab_->Label("e"));
  Nac out;
  out.kind = NacKind::kNoOutEdge;
  out.src_var = 0;
  out.label = vocab_->Label("e");
  Nac in;
  in.kind = NacKind::kNoInEdge;
  in.dst_var = 0;
  in.label = 0;  // any label
  std::vector<NodeId> b1 = {n1_};
  std::vector<NodeId> b2 = {n2_};
  EXPECT_FALSE(EvalNac(g_, out, b1));
  EXPECT_TRUE(EvalNac(g_, out, b2));
  EXPECT_TRUE(EvalNac(g_, in, b1));
  EXPECT_FALSE(EvalNac(g_, in, b2));
}

TEST_F(PredicateTest, NacIsolated) {
  Nac nac;
  nac.kind = NacKind::kNoIncident;
  nac.src_var = 0;
  NodeId lone = g_.AddNode(vocab_->Label("N"));
  std::vector<NodeId> b1 = {lone};
  EXPECT_TRUE(EvalNac(g_, nac, b1));
  g_.AddEdge(lone, n1_, vocab_->Label("e"));
  EXPECT_FALSE(EvalNac(g_, nac, b1));
}

}  // namespace
}  // namespace grepair
