// Patched-snapshot equivalence suite: a GraphSnapshot advanced by
// Graph delta-log records (GraphSnapshot::Patch) must be bit-identical to
// BOTH a fresh snapshot of the current graph and the live Graph itself —
// accessors, tombstone reuse, undo-revived adjacency-tail order, seed
// candidates, and whole DetectAll violation streams across thread counts
// {1,2,4,8} on all three generator domains. Also covers the serving
// integration: an incremental-snapshot RepairService commits bit-identically
// to a rebuild-every-batch service while ServiceStats tells the two
// acquisition paths apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "eval/experiment.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "match/matcher.h"
#include "repair/engine.h"
#include "serve/repair_service.h"
#include "snapshot_equivalence.h"
#include "stress_driver.h"

namespace grepair {
namespace {

// Patches `snap` with everything the graph journaled since `watermark`,
// returning the new watermark.
uint64_t PatchTo(const Graph& g, GraphSnapshot* snap, uint64_t watermark) {
  auto [records, count] = g.DeltaLogSince(watermark);
  snap->Patch(records, count);
  return g.DeltaLogEnd();
}

// The full tri-way check: patched snapshot == live graph == fresh snapshot.
void ExpectPatchedEquivalent(const Graph& g, const GraphSnapshot& patched) {
  ExpectViewEquivalent(g, patched);
  GraphSnapshot fresh(g);
  EXPECT_EQ(fresh.Nodes(), patched.Nodes());
  EXPECT_EQ(fresh.Edges(), patched.Edges());
  EXPECT_EQ(fresh.NumNodes(), patched.NumNodes());
  EXPECT_EQ(fresh.NumEdges(), patched.NumEdges());
}

class SnapshotPatchStress : public ::testing::TestWithParam<uint64_t> {};

// Random scripts: snapshot mid-history, keep mutating (with undo rounds
// interleaved, exercising tombstone revival and adjacency-tail order), and
// patch in slices. The patched snapshot must track the live graph exactly
// at every verification point.
TEST_P(SnapshotPatchStress, RandomScriptsPatchToLiveState) {
  StressDriver d(GetParam());
  d.g.EnableDeltaLog();
  for (int i = 0; i < 30; ++i) d.Step();

  GraphSnapshot snap(d.g);
  uint64_t watermark = d.g.DeltaLogEnd();
  for (int round = 0; round < 6; ++round) {
    size_t mark = d.g.JournalSize();
    for (int i = 0; i < 15; ++i) d.Step();
    // Half the rounds undo a suffix: the delta log records the inverse
    // operations (revivals land at adjacency tails).
    if (d.rng.NextBernoulli(0.5)) {
      size_t back = mark + d.rng.NextBounded(d.g.JournalSize() - mark + 1);
      ASSERT_TRUE(d.g.UndoTo(back).ok());
    }
    watermark = PatchTo(d.g, &snap, watermark);
    ASSERT_NO_FATAL_FAILURE(ExpectPatchedEquivalent(d.g, snap))
        << "seed " << GetParam() << " round " << round;
  }
  EXPECT_GT(snap.PatchedEdits(), 0u);
  EXPECT_GT(snap.MemoryBytes(), 0u);
  d.VerifyIndexes();
}

// One big slice covering adds, removals, relabels, attribute churn and a
// full undo back to the snapshot point (the delta log then describes a
// round trip whose net content change is nil — but whose adjacency order
// need not be: revived edges sit at the tail).
TEST_P(SnapshotPatchStress, UndoRoundTripPatchesToSameContent) {
  StressDriver d(GetParam() + 31337);
  d.g.EnableDeltaLog();
  for (int i = 0; i < 25; ++i) d.Step();

  GraphSnapshot snap(d.g);
  uint64_t watermark = d.g.DeltaLogEnd();
  uint64_t fp = d.g.Fingerprint();
  size_t mark = d.g.JournalSize();
  for (int i = 0; i < 20; ++i) d.Step();
  ASSERT_TRUE(d.g.UndoTo(mark).ok());
  EXPECT_EQ(d.g.Fingerprint(), fp);

  PatchTo(d.g, &snap, watermark);
  ExpectPatchedEquivalent(d.g, snap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotPatchStress,
                         ::testing::Range<uint64_t>(0, 20));

// The PR3 revived-order scenario, now THROUGH a patch: the snapshot is
// taken before the remove+undo, and the patch must reproduce the tail
// position of the revived edge — which the journal stack alone cannot
// express (the pop erased the RemoveEdge entry), only the delta log can.
TEST(SnapshotPatchTest, RevivedEdgePatchesToAdjacencyTail) {
  auto vocab = MakeVocabulary();
  Graph g(vocab);
  g.EnableDeltaLog();
  SymbolId person = vocab->Label("Person"), knows = vocab->Label("knows");
  NodeId a = g.AddNode(person), b = g.AddNode(person), c = g.AddNode(person);
  EdgeId e0 = g.AddEdge(a, b, knows).value();
  EdgeId e1 = g.AddEdge(a, c, knows).value();
  EdgeId e2 = g.AddEdge(a, b, knows).value();  // parallel to e0

  GraphSnapshot snap(g);
  uint64_t watermark = g.DeltaLogEnd();
  ASSERT_EQ(ToVector(snap.OutEdges(a)), (std::vector<EdgeId>{e0, e1, e2}));

  size_t mark = g.JournalSize();
  ASSERT_TRUE(g.RemoveEdge(e0).ok());
  ASSERT_TRUE(g.UndoTo(mark).ok());  // e0 revived at the tail: e1, e2, e0
  PatchTo(g, &snap, watermark);

  std::vector<EdgeId> expected = {e1, e2, e0};
  ASSERT_EQ(ToVector(g.OutEdges(a)), expected);
  EXPECT_EQ(ToVector(snap.OutEdges(a)), expected);
  ExpectPatchedEquivalent(g, snap);

  // Match enumeration over the parallel edges follows the revived order on
  // both backends.
  Pattern p;
  VarId x = p.AddNode(person), y = p.AddNode(person);
  ASSERT_TRUE(p.AddEdge(x, y, knows).ok());
  EXPECT_EQ(Matcher(g, p).Collect(), Matcher(snap, p).Collect());
}

// Regression: relabeling one edge must not desort the base edge index for
// its (src, dst) siblings. e1=(s,d,L1) and e2=(s,d,L3) share a base-index
// run sorted by label; patching SetEdgeLabel(e1, L5) in place would re-key
// e1 under L5 and make the binary search for (s,d,L3) land on it and bail —
// HasEdge(s,d,L3) false while the live graph says true. The patch freezes
// the base sort key instead (BaseSearchLabel).
TEST(SnapshotPatchTest, RelabelKeepsSiblingEdgesSearchable) {
  auto vocab = MakeVocabulary();
  Graph g(vocab);
  g.EnableDeltaLog();
  SymbolId node = vocab->Label("N");
  SymbolId l1 = vocab->Label("L1"), l3 = vocab->Label("L3"),
           l5 = vocab->Label("L5");
  NodeId s = g.AddNode(node), d = g.AddNode(node);
  EdgeId e1 = g.AddEdge(s, d, l1).value();
  EdgeId e2 = g.AddEdge(s, d, l3).value();
  (void)e2;

  GraphSnapshot snap(g);
  uint64_t watermark = g.DeltaLogEnd();
  ASSERT_TRUE(g.SetEdgeLabel(e1, l5).ok());
  PatchTo(g, &snap, watermark);

  EXPECT_TRUE(snap.HasEdge(s, d, l3));
  EXPECT_TRUE(snap.HasEdge(s, d, l5));
  EXPECT_FALSE(snap.HasEdge(s, d, l1));
  ExpectPatchedEquivalent(g, snap);
}

// Tombstone reuse: removing an attributed node keeps its label/attrs
// addressable through the patched snapshot; undoing the removal revives
// the SAME id (with its attributes and re-linked edges) and the patch
// mirrors the revival.
TEST(SnapshotPatchTest, TombstoneRemovalAndRevivalRoundTrip) {
  auto vocab = MakeVocabulary();
  Graph g(vocab);
  g.EnableDeltaLog();
  SymbolId person = vocab->Label("Person"), knows = vocab->Label("knows");
  SymbolId name = vocab->Attr("name"), alice = vocab->Value("alice");
  NodeId a = g.AddNode(person), b = g.AddNode(person);
  ASSERT_TRUE(g.SetNodeAttr(a, name, alice).ok());
  EdgeId e = g.AddEdge(a, b, knows).value();
  ASSERT_TRUE(g.SetEdgeAttr(e, name, alice).ok());

  GraphSnapshot snap(g);
  uint64_t watermark = g.DeltaLogEnd();

  size_t mark = g.JournalSize();
  ASSERT_TRUE(g.RemoveNode(a).ok());  // cascades e, tombstones both
  watermark = PatchTo(g, &snap, watermark);
  ExpectPatchedEquivalent(g, snap);
  EXPECT_FALSE(snap.NodeAlive(a));
  EXPECT_FALSE(snap.EdgeAlive(e));
  EXPECT_EQ(snap.NodeLabel(a), person);          // tombstone stays readable
  EXPECT_EQ(snap.NodeAttr(a, name), alice);
  EXPECT_EQ(snap.EdgeAttr(e, name), alice);

  ASSERT_TRUE(g.UndoTo(mark).ok());  // revive a and e under the same ids
  PatchTo(g, &snap, watermark);
  ExpectPatchedEquivalent(g, snap);
  EXPECT_TRUE(snap.NodeAlive(a));
  EXPECT_TRUE(snap.EdgeAlive(e));
  EXPECT_EQ(snap.NodeAttr(a, name), alice);
  EXPECT_TRUE(snap.HasEdge(a, b, knows));
}

// -------------------------------------------------------- detection streams

std::vector<Violation> Drain(ViolationStore* store) {
  std::vector<Violation> out;
  Violation v;
  while (store->PopBest(&v)) out.push_back(v);
  return out;
}

// Mutates the bundle graph with a mixed batch, patches a pre-batch
// snapshot, and requires identical DetectAll violation streams between the
// live graph and the patched snapshot, passed in as the view, for every
// thread count.
void ExpectPatchedDetectEquivalence(DatasetBundle bundle) {
  Graph g = bundle.graph.Clone();
  g.EnableDeltaLog();
  const RuleSet& rules = bundle.rules;

  GraphSnapshot snap(g);
  uint64_t watermark = g.DeltaLogEnd();

  // A batch touching every structure: new nodes/edges, removals, label and
  // attribute churn, plus an undo slice.
  std::vector<NodeId> nodes = g.Nodes();
  std::vector<EdgeId> edges = g.Edges();
  SymbolId label0 = g.NodeLabel(nodes[0]);
  NodeId nu = g.AddNode(label0);
  ASSERT_TRUE(g.AddEdge(nodes[1], nu, g.EdgeLabel(edges[0])).ok());
  ASSERT_TRUE(g.RemoveEdge(edges[edges.size() / 2]).ok());
  ASSERT_TRUE(g.SetNodeLabel(nodes[2], label0).ok() || true);
  size_t mark = g.JournalSize();
  ASSERT_TRUE(g.RemoveNode(nodes[3]).ok());
  ASSERT_TRUE(g.UndoTo(mark).ok());  // revive: tail-order edges
  PatchTo(g, &snap, watermark);
  ASSERT_NO_FATAL_FAILURE(ExpectPatchedEquivalent(g, snap));

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ViolationStore via_graph, via_patched;
    size_t n_g = DetectAll(g, rules, &via_graph, nullptr, threads);
    size_t n_s = DetectAll(snap, rules, &via_patched, nullptr, threads);
    EXPECT_EQ(n_g, n_s) << "threads=" << threads;
    std::vector<Violation> a = Drain(&via_graph), b = Drain(&via_patched);
    ASSERT_EQ(a.size(), b.size()) << "threads=" << threads;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].rule, b[i].rule) << "pop " << i;
      EXPECT_EQ(a[i].alternatives, b[i].alternatives) << "pop " << i;
      EXPECT_DOUBLE_EQ(a[i].best_cost, b[i].best_cost) << "pop " << i;
    }
  }

  // Sequential expansion statistics agree exactly as well: identical
  // search trees, not just identical results.
  ViolationStore sg, ss;
  size_t exp_g = 0, exp_s = 0;
  DetectAll(g, rules, &sg, &exp_g, 1);
  DetectAll(snap, rules, &ss, &exp_s, 1);
  EXPECT_EQ(exp_g, exp_s);

  // Seed candidates come from the patched partitions.
  for (RuleId r = 0; r < rules.size(); ++r) {
    Matcher over_g(g, rules[r].pattern());
    Matcher over_s(snap, rules[r].pattern());
    VarId sv = over_g.SeedVar();
    ASSERT_EQ(sv, over_s.SeedVar()) << rules[r].name();
    if (sv == kNoVar) continue;
    EXPECT_EQ(over_g.SeedCandidates(sv), over_s.SeedCandidates(sv))
        << rules[r].name();
  }
}

TEST(SnapshotPatchTest, KgDetectEquivalenceAcrossThreads) {
  KgOptions gopt;
  gopt.num_persons = 300;
  gopt.num_cities = 30;
  gopt.num_countries = 10;
  gopt.num_orgs = 20;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeKgBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectPatchedDetectEquivalence(std::move(b).value());
}

TEST(SnapshotPatchTest, SocialDetectEquivalenceAcrossThreads) {
  SocialOptions gopt;
  gopt.num_persons = 300;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeSocialBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectPatchedDetectEquivalence(std::move(b).value());
}

TEST(SnapshotPatchTest, CitationDetectEquivalenceAcrossThreads) {
  CitationOptions gopt;
  gopt.num_papers = 200;
  gopt.num_authors = 80;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeCitationBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectPatchedDetectEquivalence(std::move(b).value());
}

// ---------------------------------------------------------- serving layer

// The same edit stream committed through an incremental-snapshot service
// and a rebuild-every-batch service produces identical graphs, fixes and
// backlogs — and the incremental service's publication stats show patches
// carrying the steady state (both slots built first, patches after).
TEST(SnapshotPatchTest, ServiceCommitsBitIdenticalAndCountsPaths) {
  KgOptions gopt;
  gopt.num_persons = 200;
  gopt.num_cities = 20;
  gopt.num_countries = 8;
  gopt.num_orgs = 15;
  InjectOptions iopt;
  iopt.rate = 0.05;
  auto b = MakeKgBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  DatasetBundle bundle = std::move(b).value();
  {
    RepairEngine engine;
    auto res = engine.Run(&bundle.graph, bundle.rules);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }

  ServeOptions incr;
  incr.num_threads = 4;
  ServeOptions full = incr;
  full.snapshot_rebuild_fraction = 0.0;
  RepairService a(bundle.graph.Clone(), bundle.rules, incr);
  RepairService c(bundle.graph.Clone(), bundle.rules, full);

  Graph scratch = bundle.graph.Clone();
  Rng rng(99);
  for (int batch = 0; batch < 6; ++batch) {
    size_t mark = scratch.JournalSize();
    std::vector<NodeId> nodes = scratch.Nodes();
    for (int i = 0; i < 8; ++i) {
      NodeId x = nodes[rng.PickIndex(nodes)];
      NodeId y = nodes[rng.PickIndex(nodes)];
      if (x != y && scratch.NodeAlive(x) && scratch.NodeAlive(y))
        scratch.AddEdge(x, y, scratch.vocab()->Label("knows"));
    }
    std::vector<EditEntry> ops(scratch.Journal().begin() + mark,
                               scratch.Journal().end());
    auto ra = a.ApplyBatch(ops);
    auto rc = c.ApplyBatch(ops);
    ASSERT_TRUE(ra.ok() && rc.ok());
    EXPECT_EQ(ra.value().fixes, rc.value().fixes) << "batch " << batch;
    EXPECT_EQ(ra.value().violations, rc.value().violations);
    EXPECT_TRUE(a.graph().ContentEquals(c.graph())) << "batch " << batch;
    scratch = a.graph().Clone();
  }

  const ServiceStats& sa = a.stats();
  const ServiceStats& sc = c.stats();
  EXPECT_EQ(sa.publishes, sc.publishes);
  EXPECT_EQ(sa.publish_patches + sa.publish_rebuilds, sa.publishes);
  EXPECT_EQ(sc.publish_patches, 0u);  // fraction 0 → rebuild every time
  EXPECT_EQ(sc.publish_rebuilds, sc.publishes);
  ASSERT_GT(sa.publishes, 1u);
  EXPECT_GE(sa.publish_patches, 1u);  // steady state patches
  EXPECT_GE(sa.publish_rebuilds, 1u);  // the first advance of a slot builds
  EXPECT_GT(sa.snapshot_memory_bytes, 0u);
}

// A tiny rebuild threshold forces the fraction gate: every publication
// rebuilds, so the patch counter stays at zero but results are unchanged.
TEST(SnapshotPatchTest, RebuildThresholdForcesRebuilds) {
  KgOptions gopt;
  gopt.num_persons = 120;
  gopt.num_cities = 12;
  gopt.num_countries = 6;
  gopt.num_orgs = 10;
  InjectOptions iopt;
  iopt.rate = 0.0;
  auto b = MakeKgBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  DatasetBundle bundle = std::move(b).value();

  ServeOptions sopt;
  sopt.num_threads = 2;
  sopt.snapshot_rebuild_fraction = 0.0;  // nothing is ever patchable
  RepairService service(bundle.graph.Clone(), bundle.rules, sopt);
  std::vector<NodeId> nodes = service.graph().Nodes();
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<EditEntry> ops;
    for (int i = 0; i < 6; ++i) {
      EditEntry op;
      op.kind = EditKind::kAddEdge;
      op.src = nodes[(batch * 6 + i) % nodes.size()];
      op.dst = nodes[(batch * 6 + i + 7) % nodes.size()];
      op.label = service.graph().vocab()->Label("knows");
      if (op.src == op.dst) continue;
      ops.push_back(op);
    }
    ASSERT_TRUE(service.ApplyBatch(ops).ok());
  }
  EXPECT_EQ(service.stats().publish_patches, 0u);
  EXPECT_EQ(service.stats().publish_rebuilds, service.stats().publishes);
}

}  // namespace
}  // namespace grepair
