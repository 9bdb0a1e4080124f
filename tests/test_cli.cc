// CLI tests: every command end to end through temp files, plus error paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/cli.h"

namespace grepair {
namespace {

class CliTest : public ::testing::Test {
 protected:
  std::string Tmp(const std::string& name) {
    return ::testing::TempDir() + "/grepair_cli_" + name;
  }

  int Run(std::vector<std::string> args, std::string* out) {
    out->clear();
    return RunCli(args, out);
  }

  void TearDown() override {
    for (const auto& f : cleanup_) std::remove(f.c_str());
  }

  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  std::string out;
  EXPECT_EQ(Run({}, &out), 2);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string out;
  EXPECT_EQ(Run({"frobnicate"}, &out), 2);
}

TEST_F(CliTest, GenStatsRoundTrip) {
  std::string graph = Track(Tmp("g1.tsv"));
  std::string out;
  ASSERT_EQ(Run({"gen", "kg", "--out", graph, "--scale", "200"}, &out), 0)
      << out;
  EXPECT_NE(out.find("wrote"), std::string::npos);

  ASSERT_EQ(Run({"stats", graph}, &out), 0) << out;
  EXPECT_NE(out.find("Person"), std::string::npos);
  EXPECT_NE(out.find("capital_of"), std::string::npos);
}

TEST_F(CliTest, FullDetectRepairPipeline) {
  std::string graph = Track(Tmp("g2.tsv"));
  std::string rules = Track(Tmp("r2.grr"));
  std::string repaired = Track(Tmp("g2fixed.tsv"));
  std::string out;
  ASSERT_EQ(Run({"gen", "kg", "--out", graph, "--rules-out", rules,
                 "--scale", "300", "--rate", "0.08"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("injected"), std::string::npos);

  ASSERT_EQ(Run({"detect", graph, rules}, &out), 0) << out;
  EXPECT_EQ(out.find("0 violations"), std::string::npos);

  ASSERT_EQ(Run({"repair", graph, rules, "--out", repaired}, &out), 0) << out;
  EXPECT_NE(out.find("-> 0"), std::string::npos);  // zero remaining

  // The repaired graph has no violations left.
  ASSERT_EQ(Run({"detect", repaired, rules}, &out), 0) << out;
  EXPECT_NE(out.find("0 violations"), std::string::npos);
}

TEST_F(CliTest, RepairStrategies) {
  std::string graph = Track(Tmp("g3.tsv"));
  std::string rules = Track(Tmp("r3.grr"));
  std::string out;
  ASSERT_EQ(Run({"gen", "social", "--out", graph, "--rules-out", rules,
                 "--scale", "300", "--rate", "0.05"},
                &out),
            0);
  for (const char* strategy : {"greedy", "naive", "batch"}) {
    ASSERT_EQ(Run({"repair", graph, rules, "--strategy", strategy}, &out), 0)
        << strategy << ": " << out;
  }
  EXPECT_EQ(Run({"repair", graph, rules, "--strategy", "bogus"}, &out), 1);
}

TEST_F(CliTest, CheckAcceptsShippedAndRejectsBadRules) {
  std::string graph = Track(Tmp("g4.tsv"));
  std::string rules = Track(Tmp("r4.grr"));
  std::string out;
  ASSERT_EQ(Run({"gen", "citation", "--out", graph, "--rules-out", rules,
                 "--scale", "100"},
                &out),
            0);
  EXPECT_EQ(Run({"check", rules}, &out), 0) << out;
  EXPECT_NE(out.find("CONSISTENT"), std::string::npos);

  std::string bad = Track(Tmp("bad.grr"));
  std::FILE* f = std::fopen(bad.c_str(), "w");
  std::fputs(R"(
RULE a_needs_b CLASS incomplete
MATCH (x:A)
WHERE NOT EDGE (x)-[req]->(*)
ACTION ADD_NODE (x)-[req]->(n:B)

RULE b_needs_a CLASS incomplete
MATCH (x:B)
WHERE NOT EDGE (x)-[req]->(*)
ACTION ADD_NODE (x)-[req]->(n:A)
)",
             f);
  std::fclose(f);
  EXPECT_EQ(Run({"check", bad}, &out), 1) << out;
  EXPECT_NE(out.find("REJECTED"), std::string::npos);
}

TEST_F(CliTest, MineFindsRules) {
  std::string graph = Track(Tmp("g5.tsv"));
  std::string out;
  ASSERT_EQ(Run({"gen", "kg", "--out", graph, "--scale", "500"}, &out), 0);
  ASSERT_EQ(Run({"mine", graph}, &out), 0) << out;
  EXPECT_NE(out.find("mined_sym_knows"), std::string::npos);
  EXPECT_NE(out.find("mined_key_Person_name"), std::string::npos);
}

TEST_F(CliTest, MissingFilesReported) {
  std::string out;
  EXPECT_EQ(Run({"stats", "/nonexistent/g.tsv"}, &out), 1);
  EXPECT_NE(out.find("NOT_FOUND"), std::string::npos);
  EXPECT_EQ(Run({"detect", "/nonexistent/a", "/nonexistent/b"}, &out), 1);
}

TEST_F(CliTest, ExplainPlanPrintsEveryRulesBodies) {
  std::string graph = Track(Tmp("g_explain.tsv"));
  std::string rules = Track(Tmp("r_explain.grr"));
  std::string out;
  ASSERT_EQ(Run({"gen", "kg", "--out", graph, "--rules-out", rules,
                 "--scale", "200"},
                &out),
            0)
      << out;
  std::ifstream in(rules);
  size_t num_rules = 0;
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    std::string first;
    if (words >> first && first == "RULE") ++num_rules;
  }
  ASSERT_GT(num_rules, 0u);

  ASSERT_EQ(Run({"explain_plan", graph, rules}, &out), 0) << out;
  // One "rule N:" block per rule, in rule order, each printing at least the
  // unanchored body and its first step.
  std::vector<size_t> starts;
  for (size_t r = 0; r <= num_rules; ++r) {
    const std::string head = "rule " + std::to_string(r) + ": ";
    const size_t at = out.find(head);
    const bool at_line_start = at != std::string::npos &&
                               (at == 0 || out[at - 1] == '\n');
    if (r == num_rules) {
      EXPECT_FALSE(at_line_start) << "extra block " << r << "\n" << out;
      break;
    }
    ASSERT_TRUE(at_line_start) << "no block for rule " << r << "\n" << out;
    starts.push_back(at);
  }
  starts.push_back(out.size());
  for (size_t r = 0; r < num_rules; ++r) {
    const std::string block = out.substr(starts[r], starts[r + 1] - starts[r]);
    EXPECT_NE(block.find("body [unanchored]:"), std::string::npos) << block;
    EXPECT_NE(block.find("step 1: bind"), std::string::npos) << block;
  }

  // A missing input is reported exactly as the other verbs report it.
  EXPECT_EQ(Run({"explain_plan", "/nonexistent/a", "/nonexistent/b"}, &out),
            1);
  const std::string explain_err = out;
  EXPECT_NE(explain_err.find("NOT_FOUND"), std::string::npos) << explain_err;
  EXPECT_EQ(Run({"detect", "/nonexistent/a", "/nonexistent/b"}, &out), 1);
  EXPECT_EQ(explain_err, out);
}

TEST_F(CliTest, BadFlagsReported) {
  std::string out;
  EXPECT_EQ(Run({"gen", "kg", "--out"}, &out), 2);  // dangling flag
  EXPECT_EQ(Run({"gen", "kg"}, &out), 1);           // missing --out
  EXPECT_EQ(Run({"gen", "mars", "--out", "/tmp/x"}, &out), 1);
}

TEST_F(CliTest, UnknownFlagsAreUsageErrors) {
  // A mistyped flag must fail loudly (exit 2 + usage), never be silently
  // ignored: --thread instead of --threads would otherwise run sequentially.
  std::string graph = Track(Tmp("g6.tsv"));
  std::string rules = Track(Tmp("r6.grr"));
  std::string out;
  ASSERT_EQ(Run({"gen", "kg", "--out", graph, "--rules-out", rules,
                 "--scale", "100"},
                &out),
            0);

  EXPECT_EQ(Run({"detect", graph, rules, "--thread", "4"}, &out), 2);
  EXPECT_NE(out.find("unknown flag --thread"), std::string::npos);
  EXPECT_NE(out.find("usage:"), std::string::npos);

  EXPECT_EQ(Run({"repair", graph, rules, "--stratgy", "greedy"}, &out), 2);
  EXPECT_NE(out.find("unknown flag --stratgy"), std::string::npos);

  EXPECT_EQ(Run({"stats", graph, "--threads", "2"}, &out), 2);  // not accepted
  EXPECT_EQ(Run({"mine", graph, "--min-supprot", "0.5"}, &out), 2);

  // Correctly spelled flags still work.
  EXPECT_EQ(Run({"detect", graph, rules, "--threads", "2"}, &out), 0) << out;
}

}  // namespace
}  // namespace grepair
