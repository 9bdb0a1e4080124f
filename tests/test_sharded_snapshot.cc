// Sharded-snapshot equivalence suite: a ShardedSnapshot — built
// shard-parallel, advanced per shard by delta-log records, with dirty
// shards rebuilt alone — must be bit-identical to BOTH a monolithic
// GraphSnapshot and the live Graph at every point: accessors, tombstones,
// adjacency order, candidate collection, whole DetectAll violation streams
// across shard counts {1,2,4,8} x thread counts {1,2,4,8} on all three
// generator domains, and serving commits against a monolithic twin. Also
// covers the dirty-shard-only Advance accounting and ServeOptions
// validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "eval/experiment.h"
#include "graph/graph.h"
#include "graph/sharded_snapshot.h"
#include "graph/snapshot.h"
#include "grr/rule_parser.h"
#include "match/matcher.h"
#include "repair/engine.h"
#include "serve/repair_service.h"
#include "snapshot_equivalence.h"
#include "stress_driver.h"

namespace grepair {
namespace {

// Advances `ss` with everything the graph journaled since `watermark`,
// returning the new watermark.
uint64_t AdvanceTo(const Graph& g, ShardedSnapshot* ss, uint64_t watermark,
                   double fraction,
                   ShardedSnapshot::AdvanceStats* stats = nullptr) {
  auto [records, count] = g.DeltaLogSince(watermark);
  ShardedSnapshot::AdvanceStats st =
      ss->Advance(g, records, count, fraction);
  if (stats != nullptr) *stats = st;
  return g.DeltaLogEnd();
}

// The tri-way check: advanced sharded store == live graph == fresh
// monolithic snapshot (and a fresh sharded build of the same state).
void ExpectShardedEquivalent(const Graph& g, const ShardedSnapshot& ss) {
  ASSERT_NO_FATAL_FAILURE(ExpectViewEquivalent(g, ss));
  GraphSnapshot mono(g);
  EXPECT_EQ(mono.Nodes(), ss.Nodes());
  EXPECT_EQ(mono.Edges(), ss.Edges());
  EXPECT_EQ(mono.NumNodes(), ss.NumNodes());
  EXPECT_EQ(mono.NumEdges(), ss.NumEdges());
  ShardedSnapshot fresh(g, ss.NumShards());
  EXPECT_EQ(fresh.Nodes(), ss.Nodes());
  EXPECT_EQ(fresh.Edges(), ss.Edges());
}

// ----------------------------------------------------------- build basics

TEST(ShardedSnapshotTest, ShardsPartitionTheStore) {
  KgOptions gopt;
  gopt.num_persons = 80;
  gopt.num_cities = 8;
  gopt.num_countries = 5;
  gopt.num_orgs = 6;
  auto b = MakeKgBundle(gopt, InjectOptions{});
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  const Graph& g = b.value().graph;

  ShardedSnapshot ss(g, 5);
  EXPECT_EQ(ss.NumShards(), 5u);
  EXPECT_EQ(ss.AsSnapshot(), nullptr);  // not a monolithic GraphSnapshot

  // Every shard owns exactly the ids the partition function assigns it,
  // and the per-shard counts sum back to the whole.
  size_t nodes = 0, edges = 0;
  for (size_t s = 0; s < ss.NumShards(); ++s) {
    nodes += ss.shard(s).NumNodes();
    edges += ss.shard(s).NumEdges();
    EXPECT_EQ(ss.shard(s).shard().index, s);
    for (NodeId n : ss.shard(s).Nodes())
      EXPECT_EQ(StorageShardOfNode(n, 5), s);
    for (EdgeId e : ss.shard(s).Edges())
      EXPECT_EQ(StorageShardOfNode(ss.shard(s).Edge(e).src, 5), s);
  }
  EXPECT_EQ(nodes, g.NumNodes());
  EXPECT_EQ(edges, g.NumEdges());
  ExpectShardedEquivalent(g, ss);
}

TEST(ShardedSnapshotTest, ShardCountIsClamped) {
  auto vocab = MakeVocabulary();
  Graph g(vocab);
  g.AddNode(vocab->Label("A"));
  EXPECT_EQ(ShardedSnapshot(g, 0).NumShards(), 1u);
  EXPECT_EQ(ShardedSnapshot(g, 100000).NumShards(),
            ShardedSnapshot::kMaxShards);
}

// ------------------------------------------------------ randomized stress

class ShardedSnapshotStress : public ::testing::TestWithParam<uint64_t> {};

// Random scripts: shard the store mid-history, keep mutating (with undo
// rounds interleaved, exercising tombstone revival and adjacency-tail
// order), and Advance in slices with a permissive fraction (patch path).
// The sharded store must track the live graph exactly at every point.
TEST_P(ShardedSnapshotStress, RandomScriptsAdvanceToLiveState) {
  StressDriver d(GetParam());
  d.g.EnableDeltaLog();
  for (int i = 0; i < 30; ++i) d.Step();

  ShardedSnapshot ss(d.g, 3);
  uint64_t watermark = d.g.DeltaLogEnd();
  for (int round = 0; round < 6; ++round) {
    size_t mark = d.g.JournalSize();
    for (int i = 0; i < 15; ++i) d.Step();
    if (d.rng.NextBernoulli(0.5)) {
      size_t back = mark + d.rng.NextBounded(d.g.JournalSize() - mark + 1);
      ASSERT_TRUE(d.g.UndoTo(back).ok());
    }
    watermark = AdvanceTo(d.g, &ss, watermark, /*fraction=*/1.0);
    ASSERT_NO_FATAL_FAILURE(ExpectShardedEquivalent(d.g, ss))
        << "seed " << GetParam() << " round " << round;
  }
  d.VerifyIndexes();
}

// Same scripts with fraction 0: every touched shard is rebuilt instead of
// patched — the other Advance path must land on the identical state.
TEST_P(ShardedSnapshotStress, ForcedShardRebuildsAdvanceToLiveState) {
  StressDriver d(GetParam() + 77);
  d.g.EnableDeltaLog();
  for (int i = 0; i < 25; ++i) d.Step();

  ShardedSnapshot ss(d.g, 4);
  uint64_t watermark = d.g.DeltaLogEnd();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 12; ++i) d.Step();
    ShardedSnapshot::AdvanceStats st;
    watermark = AdvanceTo(d.g, &ss, watermark, /*fraction=*/0.0, &st);
    EXPECT_EQ(st.shards_patched, 0u);
    ASSERT_NO_FATAL_FAILURE(ExpectShardedEquivalent(d.g, ss))
        << "seed " << GetParam() << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedSnapshotStress,
                         ::testing::Range<uint64_t>(0, 12));

// ------------------------------------------------- dirty-shard accounting

// Edits confined to one shard's nodes leave every other shard untouched:
// Advance neither patches nor rebuilds them, and only the dirty shard's
// PatchedEdits moves. This is the locality the sharded store exists for —
// a hot region stops forcing whole-store work.
TEST(ShardedSnapshotTest, AdvanceTouchesOnlyDirtyShards) {
  auto vocab = MakeVocabulary();
  Graph g(vocab);
  g.EnableDeltaLog();
  SymbolId person = vocab->Label("Person"), knows = vocab->Label("knows");
  for (int i = 0; i < 32; ++i) g.AddNode(person);

  constexpr size_t kShards = 4;
  ShardedSnapshot ss(g, kShards);
  uint64_t watermark = g.DeltaLogEnd();

  // Shard 1 nodes only: ids congruent to 1 mod 4.
  std::vector<EdgeId> added;
  for (NodeId a = 1; a + 4 < 32; a += 4)
    added.push_back(g.AddEdge(a, a + 4, knows).value());

  ShardedSnapshot::AdvanceStats st;
  watermark = AdvanceTo(g, &ss, watermark, /*fraction=*/1.0, &st);
  EXPECT_EQ(st.shards_patched, 1u);
  EXPECT_EQ(st.shards_rebuilt, 0u);
  EXPECT_EQ(ss.shard(1).PatchedEdits(), added.size());
  for (size_t s : {0u, 2u, 3u}) EXPECT_EQ(ss.shard(s).PatchedEdits(), 0u);
  ExpectShardedEquivalent(g, ss);

  // The same dirty stream with a zero fraction rebuilds shard 1 ALONE.
  for (EdgeId e : added) ASSERT_TRUE(g.RemoveEdge(e).ok());
  watermark = AdvanceTo(g, &ss, watermark, /*fraction=*/0.0, &st);
  EXPECT_EQ(st.shards_patched, 0u);
  EXPECT_EQ(st.shards_rebuilt, 1u);
  EXPECT_EQ(ss.shard(1).PatchedEdits(), 0u);  // fresh build resets dirt
  ExpectShardedEquivalent(g, ss);

  // A cross-shard edge (src shard 2, dst shard 3) dirties exactly both.
  ASSERT_TRUE(g.AddEdge(2, 3, knows).ok());
  AdvanceTo(g, &ss, watermark, /*fraction=*/1.0, &st);
  EXPECT_EQ(st.shards_patched + st.shards_rebuilt, 2u);
  ExpectShardedEquivalent(g, ss);
}

TEST(ShardedSnapshotTest, MemoryRollsUpAcrossShards) {
  KgOptions gopt;
  gopt.num_persons = 60;
  gopt.num_cities = 6;
  gopt.num_countries = 5;
  gopt.num_orgs = 5;
  auto b = MakeKgBundle(gopt, InjectOptions{});
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  const Graph& g = b.value().graph;

  ShardedSnapshot ss(g, 4);
  size_t shard_sum = 0;
  for (size_t s = 0; s < ss.NumShards(); ++s)
    shard_sum += ss.shard(s).MemoryBytes();
  EXPECT_GT(ss.MemoryBytes(), shard_sum);  // + routing table and owners
}

// ------------------------------------------------------- detection streams

std::vector<Violation> Drain(ViolationStore* store) {
  std::vector<Violation> out;
  Violation v;
  while (store->PopBest(&v)) out.push_back(v);
  return out;
}

// DetectAll over a sharded store passed in as the view must reproduce the
// sequential live-graph violation stream for every shard x thread
// combination.
void ExpectShardedDetectEquivalence(DatasetBundle bundle) {
  const Graph& g = bundle.graph;
  const RuleSet& rules = bundle.rules;

  ViolationStore baseline;
  size_t n_base = DetectAll(g, rules, &baseline, nullptr, 1);
  std::vector<Violation> expect = Drain(&baseline);

  for (size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedSnapshot ss(g, shards);
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ViolationStore as_view;
      size_t n_v = DetectAll(ss, rules, &as_view, nullptr, threads);
      EXPECT_EQ(n_base, n_v) << "shards=" << shards << " threads=" << threads;
      std::vector<Violation> a = Drain(&as_view);
      ASSERT_EQ(expect.size(), a.size())
          << "shards=" << shards << " threads=" << threads;
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].rule, a[i].rule) << "pop " << i;
        EXPECT_EQ(expect[i].alternatives, a[i].alternatives) << "pop " << i;
        EXPECT_DOUBLE_EQ(expect[i].best_cost, a[i].best_cost) << "pop " << i;
      }
    }
    // Seed candidates come from the merged shard partitions.
    for (RuleId r = 0; r < rules.size(); ++r) {
      Matcher over_g(g, rules[r].pattern());
      Matcher over_s(ss, rules[r].pattern());
      VarId sv = over_g.SeedVar();
      ASSERT_EQ(sv, over_s.SeedVar()) << rules[r].name();
      if (sv == kNoVar) continue;
      EXPECT_EQ(over_g.SeedCandidates(sv), over_s.SeedCandidates(sv))
          << rules[r].name() << " shards=" << shards;
    }
  }
}

TEST(ShardedSnapshotTest, KgDetectEquivalenceAcrossShardsAndThreads) {
  KgOptions gopt;
  gopt.num_persons = 200;
  gopt.num_cities = 20;
  gopt.num_countries = 8;
  gopt.num_orgs = 15;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeKgBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectShardedDetectEquivalence(std::move(b).value());
}

TEST(ShardedSnapshotTest, SocialDetectEquivalenceAcrossShardsAndThreads) {
  SocialOptions gopt;
  gopt.num_persons = 200;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeSocialBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectShardedDetectEquivalence(std::move(b).value());
}

TEST(ShardedSnapshotTest, CitationDetectEquivalenceAcrossShardsAndThreads) {
  CitationOptions gopt;
  gopt.num_papers = 150;
  gopt.num_authors = 60;
  InjectOptions iopt;
  iopt.rate = 0.08;
  auto b = MakeCitationBundle(gopt, iopt);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectShardedDetectEquivalence(std::move(b).value());
}

// ---------------------------------------------------------- serving layer

// The same edit stream committed through a sharded-store service and a
// monolithic-store twin produces identical graphs, fixes and backlogs,
// and both publish every commit through the per-shard ledger.
TEST(ShardedSnapshotTest, ServiceCommitsBitIdenticalAcrossShardCounts) {
  KgOptions gopt;
  gopt.num_persons = 150;
  gopt.num_cities = 15;
  gopt.num_countries = 8;
  gopt.num_orgs = 12;
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

  ServeOptions mono;
  mono.num_threads = 4;
  mono.num_shards = 1;
  ServeOptions sharded = mono;
  sharded.num_shards = 4;
  RepairService a(bundle.graph.Clone(), bundle.rules, mono);
  RepairService c(bundle.graph.Clone(), bundle.rules, sharded);
  EXPECT_EQ(a.num_shards(), 1u);
  EXPECT_EQ(c.num_shards(), 4u);

  Graph scratch = bundle.graph.Clone();
  Rng rng(321);
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
    EXPECT_EQ(ra.value().expansions, rc.value().expansions);
    EXPECT_TRUE(a.graph().ContentEquals(c.graph())) << "batch " << batch;
    scratch = a.graph().Clone();
  }

  const ServiceStats& sa = a.stats();
  const ServiceStats& sc = c.stats();
  EXPECT_EQ(sa.publishes, sc.publishes);
  // With one shard the per-shard ledger mirrors the per-publication one;
  // the sharded service built all four shards of both publisher slots.
  EXPECT_EQ(sa.shard_rebuilds, sa.publish_rebuilds);
  EXPECT_GE(sc.shard_rebuilds, 8u);
  EXPECT_GT(sc.snapshot_memory_bytes, 0u);
}

// A hot shard (all edits within one shard's nodes) with a tiny rebuild
// fraction: steady-state commits rebuild ONE shard per publication, never
// the whole store.
TEST(ShardedSnapshotTest, ServiceRebuildsOnlyTheHotShard) {
  // A rule that can never match: the commit still searches its anchors,
  // but no repair cascade can leak edits into other shards.
  auto vocab = MakeVocabulary();
  Graph g(vocab);
  SymbolId person = vocab->Label("Person"), knows = vocab->Label("knows");
  for (int i = 0; i < 32; ++i) g.AddNode(person);
  for (NodeId n = 0; n + 1 < 32; ++n) (void)g.AddEdge(n, n + 1, knows);
  auto rules = ParseRules(
      "RULE never CLASS conflict\nMATCH (x:Ghost)\n"
      "ACTION UPD_NODE x LABEL Person\n",
      vocab);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();

  ServeOptions sopt;
  sopt.num_threads = 2;
  sopt.num_shards = 4;
  sopt.snapshot_rebuild_fraction = 0.0;  // every touched shard rebuilds
  RepairService service(std::move(g), std::move(rules).value(), sopt);

  // Violation-free attribute churn on shard-0 nodes only (ids congruent 0
  // mod 4): no rule fires, so the whole delta
  // — and therefore the dirt — stays in shard 0. (Structural edits would
  // cascade repairs like node merges across shards.)
  std::vector<NodeId> shard0;
  for (NodeId n : service.graph().Nodes())
    if (n % 4 == 0) shard0.push_back(n);
  ASSERT_GE(shard0.size(), 6u);
  SymbolId note = service.graph().vocab()->Attr("note");
  size_t batches = 0;
  for (int batch = 0; batch < 3; ++batch) {
    SymbolId value = service.graph().vocab()->Value(
        "v" + std::to_string(batch));  // varies: same-value sets are no-ops
    std::vector<EditEntry> ops;
    for (size_t i = 0; i < 6; ++i) {
      EditEntry op;
      op.kind = EditKind::kSetNodeAttr;
      op.node = shard0[i];
      op.attr = note;
      op.new_sym = value;
      ops.push_back(op);
    }
    auto r = service.ApplyBatch(ops);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().fixes, 0u);
    ++batches;
  }
  const ServiceStats& s = service.stats();
  // Construction and the first commit each build a slot's full 4-shard
  // store. Every later publication rebuilds the hot shard alone.
  EXPECT_EQ(s.shard_rebuilds, 8 + (batches - 1));
  EXPECT_EQ(s.shard_patches, 0u);
  EXPECT_EQ(s.publish_rebuilds, batches + 1);
}

// -------------------------------------------------------------- validation

TEST(ServeOptionsValidateTest, RejectsOutOfRangeOptions) {
  ServeOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  ok.num_shards = ShardedSnapshot::kMaxShards;
  ok.snapshot_rebuild_fraction = 1.0;
  EXPECT_TRUE(ok.Validate().ok());

  ServeOptions bad_low = ok;
  bad_low.snapshot_rebuild_fraction = -0.01;
  EXPECT_FALSE(bad_low.Validate().ok());
  ServeOptions bad_high = ok;
  bad_high.snapshot_rebuild_fraction = 1.5;
  EXPECT_FALSE(bad_high.Validate().ok());
  ServeOptions bad_nan = ok;
  bad_nan.snapshot_rebuild_fraction =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bad_nan.Validate().ok());

  ServeOptions bad_shards = ok;
  bad_shards.num_shards = ShardedSnapshot::kMaxShards + 1;
  EXPECT_FALSE(bad_shards.Validate().ok());
  // A "-1" that survived an unsigned parse becomes an absurd count.
  ServeOptions bad_threads = ok;
  bad_threads.num_threads = static_cast<size_t>(-1);
  EXPECT_FALSE(bad_threads.Validate().ok());
}

TEST(ServeOptionsValidateTest, ServiceConstructorEnforcesValidation) {
  auto vocab = MakeVocabulary();
  Graph g(vocab);
  g.AddNode(vocab->Label("A"));
  RuleSet rules;

  ServeOptions bad;
  bad.snapshot_rebuild_fraction = 2.0;
  EXPECT_THROW(RepairService(g.Clone(), rules, bad), std::invalid_argument);
  bad = ServeOptions{};
  bad.num_shards = ShardedSnapshot::kMaxShards * 2;
  EXPECT_THROW(RepairService(g.Clone(), rules, bad), std::invalid_argument);
  // Valid options construct fine (and resolve the shard default).
  ServeOptions fine;
  fine.num_threads = 2;
  RepairService service(g.Clone(), rules, fine);
  EXPECT_EQ(service.num_shards(), 2u);
}

}  // namespace
}  // namespace grepair
