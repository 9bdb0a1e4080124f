// Serving subsystem tests. The load-bearing property is the acceptance
// criterion of the serving layer: a RepairService commit (delta-detection +
// greedy cascades, with a shard-parallel publication) is bit-identical to
// the sequential RepairEngine::RunDelta over the same edit slice, for
// thread counts {1, 2, 4, 8}, on all three generator domains — graphs, fix
// counts, violation counts AND matcher expansions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "eval/experiment.h"
#include "serve/repair_service.h"
#include "util/rng.h"

namespace grepair {
namespace {

// A clean (fully repaired) bundle of the given domain.
DatasetBundle CleanBundle(const std::string& domain, uint64_t seed = 3) {
  Result<DatasetBundle> b = Status::Internal("no bundle built");
  InjectOptions iopt;
  iopt.rate = 0.05;
  iopt.seed = seed + 5;
  if (domain == "kg") {
    KgOptions gopt;
    gopt.num_persons = 300;
    gopt.num_cities = 40;
    gopt.num_countries = 10;
    gopt.num_orgs = 20;
    gopt.seed = seed;
    b = MakeKgBundle(gopt, iopt);
  } else if (domain == "social") {
    SocialOptions gopt;
    gopt.num_persons = 300;
    gopt.seed = seed;
    b = MakeSocialBundle(gopt, iopt);
  } else {
    CitationOptions gopt;
    gopt.num_papers = 250;
    gopt.num_authors = 100;
    gopt.seed = seed;
    b = MakeCitationBundle(gopt, iopt);
  }
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  DatasetBundle bundle = std::move(b).value();
  auto res = RepairEngine().Run(&bundle.graph, bundle.rules);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.value().remaining_violations, 0u);
  return bundle;
}

// Applies n random domain-agnostic edits to g (labels sampled from the
// graph itself, so any domain works) and returns the resulting journal
// slice — which doubles as the op list a RepairService replays, since ops
// are interpreted EditEntry records.
std::vector<EditEntry> MutateRandom(Graph* g, Rng* rng, size_t n) {
  size_t mark = g->JournalSize();
  std::vector<NodeId> nodes = g->Nodes();
  std::vector<SymbolId> nlabels, elabels;
  for (NodeId node : nodes) nlabels.push_back(g->NodeLabel(node));
  for (EdgeId e : g->Edges()) elabels.push_back(g->EdgeLabel(e));
  for (size_t k = 0; k < n; ++k) {
    switch (rng->NextBounded(5)) {
      case 0: {  // edge between random endpoints (asymmetries, conflicts)
        NodeId a = nodes[rng->PickIndex(nodes)];
        NodeId b = nodes[rng->PickIndex(nodes)];
        if (g->NodeAlive(a) && g->NodeAlive(b) && a != b)
          g->AddEdge(a, b, elabels[rng->PickIndex(elabels)]);
        break;
      }
      case 1: {  // drop a random edge (breaks required/symmetric edges)
        std::vector<EdgeId> cur = g->Edges();
        if (!cur.empty()) g->RemoveEdge(cur[rng->PickIndex(cur)]);
        break;
      }
      case 2: {  // node relabel
        NodeId a = nodes[rng->PickIndex(nodes)];
        if (g->NodeAlive(a))
          g->SetNodeLabel(a, nlabels[rng->PickIndex(nlabels)]);
        break;
      }
      case 3: {  // orphan node (incompleteness)
        g->AddNode(nlabels[rng->PickIndex(nlabels)]);
        break;
      }
      default: {  // edge relabel
        std::vector<EdgeId> cur = g->Edges();
        if (!cur.empty())
          g->SetEdgeLabel(cur[rng->PickIndex(cur)],
                          elabels[rng->PickIndex(elabels)]);
        break;
      }
    }
  }
  return std::vector<EditEntry>(g->Journal().begin() + mark,
                                g->Journal().end());
}

// ---------------------------------------------- Commit == RunDelta (bitwise)

void ExpectServiceMatchesRunDelta(const std::string& domain, size_t threads) {
  DatasetBundle bundle = CleanBundle(domain);
  Graph reference = bundle.graph.Clone();

  ServeOptions sopt;
  sopt.num_threads = threads;
  RepairService service(bundle.graph.Clone(), bundle.rules, sopt);

  Rng rng(domain.size() * 1000 + threads);
  RepairEngine engine;
  for (size_t batch = 0; batch < 4; ++batch) {
    // Generate the batch against the reference, repair it with RunDelta,
    // and replay the identical ops through the service.
    size_t mark = reference.JournalSize();
    std::vector<EditEntry> ops = MutateRandom(&reference, &rng, 8);
    auto ref = engine.RunDelta(&reference, bundle.rules, mark);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    auto got = service.ApplyBatch(ops);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const BatchResult& r = got.value();
    EXPECT_EQ(r.edits, ops.size());
    EXPECT_EQ(r.violations, ref.value().initial_violations)
        << domain << " batch " << batch << " threads " << threads;
    EXPECT_EQ(r.fixes, ref.value().applied.size());
    EXPECT_EQ(r.expansions, ref.value().matcher_expansions)
        << domain << " batch " << batch << " threads " << threads;
    EXPECT_TRUE(service.graph().ContentEquals(reference))
        << domain << " diverged at batch " << batch << " threads " << threads;
  }
  EXPECT_EQ(CountViolations(service.graph(), bundle.rules), 0u);
}

class ServeBitIdentity
    : public ::testing::TestWithParam<std::tuple<const char*, size_t>> {};

TEST_P(ServeBitIdentity, CommitMatchesRunDelta) {
  ExpectServiceMatchesRunDelta(std::get<0>(GetParam()),
                               std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Domains, ServeBitIdentity,
    ::testing::Combine(::testing::Values("kg", "social", "citation"),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------- golden outcome
// A fixed edit script committed to a 1-thread service and to a 2-thread,
// 2-shard one whose every publication fans out: fixes, matcher expansions
// and the final fingerprint are pinned, and both services must land on
// them.
// The script is generated once, from the 1-thread service's state before
// each batch, and replayed verbatim into the other. The constants were
// recorded with the interpreted matcher, before it was deleted.

TEST(ServeGoldenTest, FixedEditScriptOutcomePinned) {
  constexpr size_t kFixes = 21;
  constexpr size_t kExpansions = 1574;
  constexpr uint64_t kFingerprint = 5203438770918063485ull;

  DatasetBundle bundle = CleanBundle("kg");
  ServeOptions sequential;
  ServeOptions fanned;
  fanned.num_threads = 2;
  fanned.num_shards = 2;
  RepairService a(bundle.graph.Clone(), bundle.rules, sequential);
  RepairService b(bundle.graph.Clone(), bundle.rules, fanned);

  Rng rng(2024);
  size_t fixes[2] = {0, 0};
  size_t expansions[2] = {0, 0};
  for (size_t batch = 0; batch < 6; ++batch) {
    Graph scratch = a.graph().Clone();
    const std::vector<EditEntry> ops = MutateRandom(&scratch, &rng, 8);
    RepairService* services[2] = {&a, &b};
    for (size_t i = 0; i < 2; ++i) {
      auto r = services[i]->ApplyBatch(ops);
      ASSERT_TRUE(r.ok()) << "service " << i << " batch " << batch << ": "
                          << r.status().ToString();
      fixes[i] += r.value().fixes;
      expansions[i] += r.value().expansions;
    }
  }
  for (size_t i = 0; i < 2; ++i) {
    const RepairService& s = i == 0 ? a : b;
    const std::string got = "service " + std::to_string(i) + " got {" +
                            std::to_string(fixes[i]) + ", " +
                            std::to_string(expansions[i]) + ", " +
                            std::to_string(s.graph().Fingerprint()) + "ull}";
    EXPECT_EQ(fixes[i], kFixes) << got;
    EXPECT_EQ(expansions[i], kExpansions) << got;
    EXPECT_EQ(s.graph().Fingerprint(), kFingerprint) << got;
  }
}

// ------------------------------------------------------- service behavior

TEST(RepairServiceTest, StatsAccumulateAcrossBatches) {
  DatasetBundle bundle = CleanBundle("kg");
  ServeOptions sopt;
  sopt.num_threads = 2;
  RepairService service(bundle.graph.Clone(), bundle.rules, sopt);
  Rng rng(5);

  Graph scratch = bundle.graph.Clone();  // op generator only
  size_t expected_edits = 0;  // some random draws no-op, so count actual ops
  for (int i = 0; i < 3; ++i) {
    std::vector<EditEntry> ops = MutateRandom(&scratch, &rng, 4);
    expected_edits += ops.size();
    // Keep generator and service in lockstep by replaying fixes.
    auto r = service.ApplyBatch(ops);
    ASSERT_TRUE(r.ok());
    scratch = service.graph().Clone();
  }

  const ServiceStats& s = service.stats();
  EXPECT_EQ(s.batches, 3u);
  EXPECT_EQ(s.batch_ms.size(), 3u);
  EXPECT_EQ(s.edits, expected_edits);
  EXPECT_EQ(s.op_errors, 0u);
  EXPECT_GE(s.LatencyPercentileMs(95), s.LatencyPercentileMs(50));
  EXPECT_GT(s.LatencyPercentileMs(50), 0.0);
  EXPECT_EQ(service.PendingEdits(), 0u);
}

TEST(ServiceStatsTest, LatencyPercentileEdgeCases) {
  ServiceStats s;
  // Empty window: every percentile is 0, not UB.
  EXPECT_EQ(s.LatencyPercentileMs(50), 0.0);
  // Nearest-rank on a known window. The stored order is scrambled on
  // purpose — the ring is UNORDERED once it wraps, and selection must not
  // assume arrival order carries rank.
  s.batch_ms = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(s.LatencyPercentileMs(0), 1.0);     // rank clamps to 1 == min
  EXPECT_EQ(s.LatencyPercentileMs(100), 5.0);   // rank n == max
  EXPECT_EQ(s.LatencyPercentileMs(50), 3.0);    // ceil(.5 * 5) = rank 3
  EXPECT_EQ(s.LatencyPercentileMs(95), 5.0);    // ceil(.95 * 5) = rank 5
  EXPECT_EQ(s.LatencyPercentileMs(20), 1.0);    // ceil(.2 * 5) = rank 1
  // Out-of-range and garbage percentiles clamp instead of corrupting the
  // rank arithmetic.
  EXPECT_EQ(s.LatencyPercentileMs(-10), 1.0);
  EXPECT_EQ(s.LatencyPercentileMs(400), 5.0);
  EXPECT_EQ(s.LatencyPercentileMs(std::nan("")), 0.0);
  // Single sample: everything selects it.
  s.batch_ms = {7.5};
  EXPECT_EQ(s.LatencyPercentileMs(0), 7.5);
  EXPECT_EQ(s.LatencyPercentileMs(99), 7.5);
}

TEST(RepairServiceTest, InvalidOpRejectedAndCounted) {
  DatasetBundle bundle = CleanBundle("kg");
  RepairService service(bundle.graph.Clone(), bundle.rules);

  EditEntry bad;
  bad.kind = EditKind::kRemoveNode;
  bad.node = 1u << 30;  // far beyond the id space
  auto r = service.ApplyEdit(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(service.stats().op_errors, 1u);

  auto b = service.ApplyBatch({bad});
  EXPECT_FALSE(b.ok());
  EXPECT_NE(b.status().ToString().find("batch op 0"), std::string::npos);
}

TEST(RepairServiceTest, BudgetLeftoversDrainAcrossCommits) {
  DatasetBundle bundle = CleanBundle("kg");
  ServeOptions sopt;
  sopt.max_fixes_per_batch = 1;  // one fix per commit: force carry-over
  RepairService service(bundle.graph.Clone(), bundle.rules, sopt);
  Rng rng(13);

  // An edit batch that provably introduces violations.
  Graph scratch = service.graph().Clone();
  std::vector<EditEntry> ops;
  while (ops.empty() || CountViolations(scratch, bundle.rules) == 0)
    ops = MutateRandom(&scratch, &rng, 6);

  auto first = service.ApplyBatch(ops);
  ASSERT_TRUE(first.ok());
  EXPECT_GE(first.value().violations, 1u);
  EXPECT_LE(first.value().fixes, 1u);

  // The store persists across commits: re-committing with no new edits
  // keeps draining the backlog one fix at a time until the graph is clean.
  bool exhausted = first.value().budget_exhausted;
  for (int i = 0; exhausted && i < 100; ++i)
    exhausted = service.Commit().value().budget_exhausted;
  EXPECT_FALSE(exhausted);
  EXPECT_EQ(CountViolations(service.graph(), bundle.rules), 0u);
}

// The published backlog under a fix budget holds exactly the violations of
// the served graph: the store keeps entries a later edit ended until
// PopBest re-verifies them, and publication must not count those.
class ServeBacklogOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(ServeBacklogOracle, PublishedTotalEqualsOfflineCount) {
  const std::string domain = GetParam();
  DatasetBundle bundle = CleanBundle(domain);
  ServeOptions sopt;
  sopt.max_fixes_per_batch = 4;
  RepairService service(bundle.graph.Clone(), bundle.rules, sopt);
  Rng rng(domain.size() * 31);
  size_t cut = 0;
  for (size_t batch = 0; batch < 12; ++batch) {
    Graph scratch = service.graph().Clone();
    auto r = service.ApplyBatch(MutateRandom(&scratch, &rng, 24));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    cut += r.value().budget_exhausted;
    auto page = service.ReadViolations(0, 0);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(page.value().total,
              CountViolations(service.graph(), bundle.rules))
        << domain << " batch " << batch;
  }
  EXPECT_GT(cut, 0u) << "the budget never cut a commit";
}

INSTANTIATE_TEST_SUITE_P(Domains, ServeBacklogOracle,
                         ::testing::Values("kg", "social", "citation"));

// A commit on an empty rule set anchors and finds nothing.
TEST(RepairServiceTest, EmptyRuleSetCommitFindsNothing) {
  DatasetBundle bundle = CleanBundle("kg");
  RepairService service(bundle.graph.Clone(), RuleSet());
  Rng rng(7);
  Graph scratch = service.graph().Clone();
  auto r = service.ApplyBatch(MutateRandom(&scratch, &rng, 5));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().violations, 0u);
  EXPECT_EQ(r.value().fixes, 0u);
  EXPECT_EQ(r.value().expansions, 0u);
  EXPECT_EQ(r.value().anchor_nodes + r.value().anchor_edges, 0u);
}

TEST(RepairServiceTest, CommitWithNoEditsIsCheapNoop) {
  DatasetBundle bundle = CleanBundle("social");
  RepairService service(bundle.graph.Clone(), bundle.rules);
  BatchResult r = service.Commit().value();
  EXPECT_EQ(r.edits, 0u);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_EQ(r.fixes, 0u);
  EXPECT_EQ(r.anchor_nodes + r.anchor_edges, 0u);
}

// ------------------------------------------------- state persistence

TEST(RepairServiceTest, SaveRestoreRoundTripIsStable) {
  DatasetBundle bundle = CleanBundle("kg");
  RepairService service(bundle.graph.Clone(), bundle.rules);
  Rng rng(29);
  Graph scratch = service.graph().Clone();
  auto r = service.ApplyBatch(MutateRandom(&scratch, &rng, 8));
  ASSERT_TRUE(r.ok());

  std::string path1 = ::testing::TempDir() + "/grepair_state_a.snap";
  std::string path2 = ::testing::TempDir() + "/grepair_state_b.snap";
  ASSERT_TRUE(service.SaveState(path1).ok());
  size_t nodes = service.graph().NumNodes();
  size_t edges = service.graph().NumEdges();
  size_t backlog = service.ViolationBacklog();

  // Restore into a SECOND service over the same rules/vocab.
  RepairService other(bundle.graph.Clone(), bundle.rules);
  ASSERT_TRUE(other.RestoreState(path1).ok());
  EXPECT_EQ(other.graph().NumNodes(), nodes);
  EXPECT_EQ(other.graph().NumEdges(), edges);
  EXPECT_EQ(other.ViolationBacklog(), backlog);
  EXPECT_EQ(other.PendingEdits(), 0u);
  // Same alive content (restored ids are dense ranks, so compare counts +
  // full detection rather than raw ids).
  EXPECT_EQ(CountViolations(service.graph(), bundle.rules),
            CountViolations(other.graph(), bundle.rules));

  // Id translation reaches a fixpoint after one round trip (the first save
  // may still carry sparse pre-restore ids in the graph section): saving
  // the restored state and saving a restore OF that save produce identical
  // bytes.
  ASSERT_TRUE(other.SaveState(path2).ok());
  RepairService third(bundle.graph.Clone(), bundle.rules);
  ASSERT_TRUE(third.RestoreState(path2).ok());
  std::string path3 = ::testing::TempDir() + "/grepair_state_c.snap";
  ASSERT_TRUE(third.SaveState(path3).ok());
  std::ifstream f2(path2), f3(path3);
  std::stringstream s2, s3;
  s2 << f2.rdbuf();
  s3 << f3.rdbuf();
  EXPECT_EQ(s2.str(), s3.str());
  EXPECT_NE(s2.str().find("# grepair service state v1"), std::string::npos);

  std::remove(path1.c_str());
  std::remove(path2.c_str());
  std::remove(path3.c_str());
}

TEST(RepairServiceTest, RestorePreservesViolationBacklog) {
  DatasetBundle bundle = CleanBundle("kg");
  ServeOptions sopt;
  sopt.max_fixes_per_batch = 0;  // commit detects but repairs nothing
  RepairService service(bundle.graph.Clone(), bundle.rules, sopt);
  Rng rng(13);

  Graph scratch = service.graph().Clone();
  std::vector<EditEntry> ops;
  while (ops.empty() || CountViolations(scratch, bundle.rules) == 0)
    ops = MutateRandom(&scratch, &rng, 6);
  auto first = service.ApplyBatch(ops);
  ASSERT_TRUE(first.ok());
  ASSERT_GE(service.ViolationBacklog(), 1u);

  std::string path = ::testing::TempDir() + "/grepair_state_backlog.snap";
  ASSERT_TRUE(service.SaveState(path).ok());

  // Restore into a fresh default-options service and drain: it ends clean.
  RepairService restored(bundle.graph.Clone(), bundle.rules);
  ASSERT_TRUE(restored.RestoreState(path).ok());
  EXPECT_EQ(restored.ViolationBacklog(), service.ViolationBacklog());
  BatchResult drained = restored.Commit().value();
  EXPECT_GE(drained.fixes, 1u);
  EXPECT_EQ(CountViolations(restored.graph(), bundle.rules), 0u);
  EXPECT_EQ(restored.ViolationBacklog(), 0u);

  std::remove(path.c_str());
}

TEST(RepairServiceTest, SaveCommitsPendingEditsFirst) {
  DatasetBundle bundle = CleanBundle("social");
  RepairService service(bundle.graph.Clone(), bundle.rules);
  EditEntry op;
  op.kind = EditKind::kAddNode;
  op.label = bundle.vocab->Label("Person");
  ASSERT_TRUE(service.ApplyEdit(op).ok());
  ASSERT_EQ(service.PendingEdits(), 1u);

  std::string path = ::testing::TempDir() + "/grepair_state_pending.snap";
  ASSERT_TRUE(service.SaveState(path).ok());
  EXPECT_EQ(service.PendingEdits(), 0u);  // implicit commit
  EXPECT_EQ(service.stats().batches, 1u);

  std::remove(path.c_str());
}

TEST(RepairServiceTest, RestoreRejectsCorruptState) {
  DatasetBundle bundle = CleanBundle("social");
  RepairService service(bundle.graph.Clone(), bundle.rules);
  std::string path = ::testing::TempDir() + "/grepair_state_bad.snap";

  {  // rule id out of range
    std::ofstream f(path);
    f << "N\t0\tPerson\nV\t9999\t1.0\nA\t1\t0\t0\n";
  }
  EXPECT_FALSE(service.RestoreState(path).ok());
  {  // match arity does not fit the rule's pattern (no pattern has 0 nodes)
    std::ofstream f(path);
    f << "N\t0\tPerson\nV\t0\t1.0\nA\t0\t0\n";
  }
  EXPECT_FALSE(service.RestoreState(path).ok());
  EXPECT_FALSE(service.RestoreState("/nonexistent/state.snap").ok());
  // Failed restores leave the service untouched.
  EXPECT_EQ(service.graph().NumNodes(), bundle.graph.NumNodes());

  std::remove(path.c_str());
}

// ----------------------------------------------------------- CLI surface

TEST(ServeCliTest, LineProtocolRepairsAndReports) {
  std::string graph = ::testing::TempDir() + "/grepair_serve_g.tsv";
  std::string rules = ::testing::TempDir() + "/grepair_serve_r.grr";
  std::string out;
  ASSERT_EQ(RunCli({"gen", "kg", "--out", graph, "--rules-out", rules,
                    "--scale", "150"},
                   &out),
            0)
      << out;

  std::istringstream in(
      "add_node Org\n"
      "commit\n"
      "stats\n"
      "nonsense\n"
      "quit\n");
  out.clear();
  int code = RunCli({"serve", graph, rules, "--threads", "2"}, &out, &in);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("serving"), std::string::npos);
  EXPECT_NE(out.find("node "), std::string::npos);
  EXPECT_NE(out.find("batch 1"), std::string::npos);
  EXPECT_NE(out.find("stats batches=1"), std::string::npos);
  EXPECT_NE(out.find("err unknown_verb"), std::string::npos);
  EXPECT_NE(out.find("bye"), std::string::npos);

  std::remove(graph.c_str());
  std::remove(rules.c_str());
}

TEST(ServeCliTest, SnapshotAndRestoreVerbs) {
  std::string graph = ::testing::TempDir() + "/grepair_serve_g3.tsv";
  std::string rules = ::testing::TempDir() + "/grepair_serve_r3.grr";
  std::string state = ::testing::TempDir() + "/grepair_serve_s3.snap";
  std::string out;
  ASSERT_EQ(RunCli({"gen", "kg", "--out", graph, "--rules-out", rules,
                    "--scale", "150"},
                   &out),
            0);

  std::istringstream in("add_node Org\n"
                        "snapshot " + state + "\n"   // commits the pending op
                        "add_node Org\n"
                        "restore " + state + "\n"    // refused: edit pending
                        "commit\n"
                        "restore " + state + "\n"    // now allowed
                        "restore /nonexistent.snap\n"
                        "quit\n");
  out.clear();
  EXPECT_EQ(RunCli({"serve", graph, rules}, &out, &in), 0) << out;
  // The snapshot verb committed the pending op and says so.
  EXPECT_NE(out.find("snapshot " + state + " committed_batch=1"),
            std::string::npos);
  // Restore never silently drops uncommitted work: with an edit pending it
  // is refused with the staged_edits code, and succeeds after the commit.
  EXPECT_NE(out.find("err staged_edits"), std::string::npos);
  EXPECT_NE(out.find("restored " + state), std::string::npos);
  EXPECT_NE(out.find("err io"), std::string::npos);  // bad restore reported
  // After restore nothing is pending, so quit adds no third batch.
  EXPECT_NE(out.find("bye batches=2"), std::string::npos);

  std::remove(graph.c_str());
  std::remove(rules.c_str());
  std::remove(state.c_str());
}

TEST(ServeCliTest, PendingEditsCommittedOnQuit) {
  std::string graph = ::testing::TempDir() + "/grepair_serve_g2.tsv";
  std::string rules = ::testing::TempDir() + "/grepair_serve_r2.grr";
  std::string out;
  ASSERT_EQ(RunCli({"gen", "kg", "--out", graph, "--rules-out", rules,
                    "--scale", "150"},
                   &out),
            0);

  std::istringstream in("add_node Org\nquit\n");  // no explicit commit
  out.clear();
  EXPECT_EQ(RunCli({"serve", graph, rules}, &out, &in), 0);
  EXPECT_NE(out.find("batch 1"), std::string::npos);  // implicit final commit

  std::remove(graph.c_str());
  std::remove(rules.c_str());
}

}  // namespace
}  // namespace grepair
