// DSL parser tests: happy paths for all seven actions, WHERE forms, and
// error paths with line numbers.
#include <gtest/gtest.h>

#include "grr/rule_parser.h"
#include "grr/standard_rules.h"

namespace grepair {
namespace {

TEST(RuleParserTest, ParsesAddEdgeRule) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule(R"(
    RULE spouse_symmetric CLASS incomplete
    MATCH (x:Person)-[spouse]->(y:Person)
    WHERE NOT EDGE (y)-[spouse]->(x)
    ACTION ADD_EDGE (y)-[spouse]->(x)
  )",
                     vocab);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Rule& rule = r.value();
  EXPECT_EQ(rule.name(), "spouse_symmetric");
  EXPECT_EQ(rule.error_class(), ErrorClass::kIncomplete);
  EXPECT_EQ(rule.action().kind, ActionKind::kAddEdge);
  EXPECT_EQ(rule.pattern().NumNodes(), 2u);
  EXPECT_EQ(rule.pattern().NumEdges(), 1u);
  EXPECT_EQ(rule.pattern().nacs().size(), 1u);
  // Action adds (y)->(x): var=y=1, var2=x=0.
  EXPECT_EQ(rule.action().var, 1u);
  EXPECT_EQ(rule.action().var2, 0u);
}

TEST(RuleParserTest, ParsesAddNodeBothDirections) {
  auto vocab = MakeVocabulary();
  auto r1 = ParseRule(R"(
    RULE needs_cap CLASS incomplete
    MATCH (y:Country)
    WHERE NOT EDGE (*)-[capital_of]->(y)
    ACTION ADD_NODE (c:City)-[capital_of]->(y)
  )",
                      vocab);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value().action().kind, ActionKind::kAddNode);
  EXPECT_TRUE(r1.value().action().new_node_is_src);

  auto r2 = ParseRule(R"(
    RULE needs_author CLASS incomplete
    MATCH (p:Paper)
    WHERE NOT EDGE (p)-[authored_by]->(*)
    ACTION ADD_NODE (p)-[authored_by]->(a:Author)
  )",
                      vocab);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_FALSE(r2.value().action().new_node_is_src);
}

TEST(RuleParserTest, ParsesDelEdgeWithNamedEdgeVar) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule(R"(
    RULE one_cap CLASS conflict
    MATCH (x:City)-[e1:capital_of]->(y:Country), (z:City)-[e2:capital_of]->(y)
    ACTION DEL_EDGE e2
  )",
                     vocab);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().action().kind, ActionKind::kDelEdge);
  EXPECT_EQ(r.value().action().edge_idx, 1u);
  EXPECT_EQ(r.value().pattern().NumNodes(), 3u);
}

TEST(RuleParserTest, ParsesDelNodeWithIsolatedAndAbsent) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule(R"(
    RULE junk CLASS redundant
    MATCH (x:Org)
    WHERE ISOLATED x AND ABSENT x.name
    ACTION DEL_NODE x
  )",
                     vocab);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().action().kind, ActionKind::kDelNode);
  EXPECT_EQ(r.value().pattern().nacs().size(), 1u);
  EXPECT_EQ(r.value().pattern().predicates().size(), 1u);
}

TEST(RuleParserTest, ParsesUpdNodeLabelAndSet) {
  auto vocab = MakeVocabulary();
  auto r1 = ParseRule(R"(
    RULE fix_type CLASS conflict
    MATCH (x:City)-[works_for]->(o:Org)
    ACTION UPD_NODE x LABEL Person
  )",
                      vocab);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value().action().kind, ActionKind::kUpdNode);
  SymbolId person;
  ASSERT_TRUE(vocab->LookupLabel("Person", &person));
  EXPECT_EQ(r1.value().action().label, person);

  auto r2 = ParseRule(R"(
    RULE flag CLASS conflict
    MATCH (x:City)-[capital_of]->(y:Country)
    WHERE x.is_capital != "yes"
    ACTION UPD_NODE x SET is_capital = "yes"
  )",
                      vocab);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_NE(r2.value().action().attr, 0u);
  EXPECT_NE(r2.value().action().value, 0u);
}

TEST(RuleParserTest, ParsesUpdEdgeAndMerge) {
  auto vocab = MakeVocabulary();
  auto r1 = ParseRule(R"(
    RULE relabel CLASS conflict
    MATCH (p:Paper)-[e:cites]->(a:Author)
    ACTION UPD_EDGE e LABEL authored_by
  )",
                      vocab);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value().action().kind, ActionKind::kUpdEdge);

  auto r2 = ParseRule(R"(
    RULE dup CLASS redundant
    MATCH (x:Person), (y:Person)
    WHERE x.name = y.name
    ACTION MERGE (x, y)
  )",
                      vocab);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2.value().action().kind, ActionKind::kMerge);
}

TEST(RuleParserTest, ParsesPriorityAndComparisons) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule(R"(
    RULE future_cite CLASS conflict
    MATCH (p:Paper)-[e:cites]->(q:Paper)
    WHERE p.year < q.year
    ACTION DEL_EDGE e
    PRIORITY 2.5
  )",
                     vocab);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r.value().priority(), 2.5);
}

TEST(RuleParserTest, SelfLoopPattern) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule(R"(
    RULE self_knows CLASS conflict
    MATCH (x:Person)-[e:knows]->(x)
    ACTION DEL_EDGE e
  )",
                     vocab);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().pattern().NumNodes(), 1u);
  EXPECT_EQ(r.value().pattern().edges()[0].src,
            r.value().pattern().edges()[0].dst);
}

TEST(RuleParserTest, MultipleRulesInOneFile) {
  auto vocab = MakeVocabulary();
  auto rs = ParseRules(R"(
    # first
    RULE r1 CLASS conflict
    MATCH (x:A)-[e:l]->(y:B)
    ACTION DEL_EDGE e

    RULE r2 CLASS redundant
    MATCH (x:A), (y:A)
    WHERE x.k = y.k
    ACTION MERGE (x, y)
  )",
                       vocab);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().size(), 2u);
  EXPECT_TRUE(rs.value().Find("r2").ok());
  EXPECT_FALSE(rs.value().Find("nope").ok());
}

TEST(RuleParserTest, RejectsDuplicateRuleNames) {
  auto vocab = MakeVocabulary();
  auto rs = ParseRules(R"(
    RULE r CLASS conflict
    MATCH (x:A)-[e:l]->(y:B)
    ACTION DEL_EDGE e
    RULE r CLASS conflict
    MATCH (x:A)-[e:l]->(y:B)
    ACTION DEL_EDGE e
  )",
                       vocab);
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kAlreadyExists);
}

TEST(RuleParserTest, ErrorsCarryLineNumbers) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule("RULE x CLASS conflict\nMATCH (a:A)\nACTION BOGUS a\n",
                     vocab);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().message();
}

TEST(RuleParserTest, RejectsUnknownVariable) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule(R"(
    RULE r CLASS redundant
    MATCH (x:A)
    ACTION DEL_NODE zz
  )",
                     vocab);
  EXPECT_FALSE(r.ok());
}

TEST(RuleParserTest, RejectsUnknownEdgeVariable) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule(R"(
    RULE r CLASS conflict
    MATCH (x:A)-[e:l]->(y:B)
    ACTION DEL_EDGE nosuch
  )",
                     vocab);
  EXPECT_FALSE(r.ok());
}

// A rule with n node variables: MATCH (v0:A), ..., (v{n-1}:A).
std::string WideRule(size_t n) {
  std::string dsl = "RULE wide CLASS redundant\nMATCH ";
  for (size_t i = 0; i < n; ++i)
    dsl += (i ? ", (v" : "(v") + std::to_string(i) + ":A)";
  return dsl + "\nACTION DEL_NODE v0\n";
}

TEST(RuleParserTest, RejectsPatternsPastTheNodeVariableLimit) {
  auto vocab = MakeVocabulary();
  EXPECT_TRUE(ParseRules(WideRule(32), vocab).ok());
  auto rs = ParseRules(WideRule(33), vocab);
  ASSERT_FALSE(rs.ok());
  EXPECT_NE(rs.status().message().find("at most 32"), std::string::npos)
      << rs.status().message();
}

TEST(RuleParserTest, RejectsDoubleStarNac) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule(R"(
    RULE r CLASS incomplete
    MATCH (x:A)
    WHERE NOT EDGE (*)-[l]->(*)
    ACTION ADD_EDGE (x)-[l]->(x)
  )",
                     vocab);
  EXPECT_FALSE(r.ok());
}

TEST(RuleParserTest, RejectsAddNodeWithTwoExistingVars) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule(R"(
    RULE r CLASS incomplete
    MATCH (x:A), (y:B)
    WHERE NOT EDGE (x)-[l]->(y)
    ACTION ADD_NODE (x)-[l]->(y)
  )",
                     vocab);
  EXPECT_FALSE(r.ok());
}

TEST(RuleParserTest, RejectsUnterminatedString) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule("RULE r CLASS conflict\nMATCH (x:A)\nWHERE x.a = \"oops",
                     vocab);
  EXPECT_FALSE(r.ok());
}

TEST(RuleParserTest, ConflictingVarLabelRejected) {
  auto vocab = MakeVocabulary();
  auto r = ParseRule(R"(
    RULE r CLASS conflict
    MATCH (x:A)-[e:l]->(x:B)
    ACTION DEL_EDGE e
  )",
                     vocab);
  EXPECT_FALSE(r.ok());
}

TEST(RuleParserTest, StandardRuleSetsParse) {
  auto vocab = MakeVocabulary();
  EXPECT_TRUE(KgRules(vocab).ok());
  EXPECT_TRUE(SocialRules(vocab).ok());
  EXPECT_TRUE(CitationRules(vocab).ok());
  EXPECT_TRUE(AdversarialCyclicRules(vocab).ok());
  EXPECT_TRUE(ContradictoryRules(vocab).ok());
  EXPECT_EQ(KgRules(vocab).value().size(), 10u);
}

TEST(RuleParserTest, RuleSetPrefix) {
  auto vocab = MakeVocabulary();
  auto rs = KgRules(vocab);
  ASSERT_TRUE(rs.ok());
  RuleSet pre = rs.value().Prefix(3);
  EXPECT_EQ(pre.size(), 3u);
  EXPECT_EQ(pre[0].name(), rs.value()[0].name());
}

}  // namespace
}  // namespace grepair
