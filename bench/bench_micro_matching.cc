// M9 — Matching micro-benchmarks (google-benchmark): full detection cost by
// graph size and pattern, incremental delta re-matching vs full re-detection
// after a single edit — the per-edit cost the repair loop pays — and the
// graph-vs-snapshot read-path comparison (seeding + single-rule expansion).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "eval/experiment.h"
#include "graph/sharded_snapshot.h"
#include "graph/snapshot.h"
#include "grr/standard_rules.h"
#include "match/incremental.h"
#include "match/intersect.h"
#include "match/plan.h"
#include "repair/engine.h"

namespace grepair {
namespace {

struct Workload {
  VocabularyPtr vocab;
  KgSchema schema;
  Graph graph;
  RuleSet rules;

  explicit Workload(size_t persons)
      : vocab(MakeVocabulary()),
        schema(KgSchema::Create(vocab.get())),
        graph(vocab) {
    KgOptions opt;
    opt.num_persons = persons;
    opt.num_cities = persons / 10;
    opt.num_countries = std::max<size_t>(5, persons / 200);
    opt.num_orgs = persons / 15;
    graph = GenerateKg(vocab, schema, opt);
    rules = KgRules(vocab).value();
  }
};

void BM_FullDetection(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ViolationStore store;
    benchmark::DoNotOptimize(DetectAll(w.graph, w.rules, &store));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullDetection)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_SingleRuleMatch(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  RuleId dup = w.rules.Find("dup_person").value();
  const Pattern& p = w.rules[dup].pattern();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matcher(w.graph, p).Count());
  }
}
BENCHMARK(BM_SingleRuleMatch)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// The repair loop's inner step: apply one edit, re-detect incrementally vs
// from scratch.
void BM_DeltaAfterEdit(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  auto persons = w.graph.NodesWithLabel(w.schema.person);
  NodeId a = *persons.begin();
  for (auto _ : state) {
    state.PauseTiming();
    size_t mark = w.graph.JournalSize();
    NodeId b = w.graph.AddNode(w.schema.person);
    auto e = w.graph.AddEdge(a, b, w.schema.knows);
    (void)e;
    std::vector<EditEntry> delta(w.graph.Journal().begin() + mark,
                                 w.graph.Journal().end());
    state.ResumeTiming();
    size_t found = 0;
    for (RuleId r = 0; r < w.rules.size(); ++r) {
      DeltaMatcher dm(w.graph, w.rules[r].pattern());
      dm.FindDelta(delta, [&](const Match&) {
        ++found;
        return true;
      });
    }
    benchmark::DoNotOptimize(found);
    state.PauseTiming();
    (void)w.graph.UndoTo(mark);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_DeltaAfterEdit)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMicrosecond);

void BM_FullAfterEdit(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  auto persons = w.graph.NodesWithLabel(w.schema.person);
  NodeId a = *persons.begin();
  for (auto _ : state) {
    state.PauseTiming();
    size_t mark = w.graph.JournalSize();
    NodeId b = w.graph.AddNode(w.schema.person);
    auto e = w.graph.AddEdge(a, b, w.schema.knows);
    (void)e;
    state.ResumeTiming();
    ViolationStore store;
    benchmark::DoNotOptimize(DetectAll(w.graph, w.rules, &store));
    state.PauseTiming();
    (void)w.graph.UndoTo(mark);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FullAfterEdit)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMicrosecond);

// --- Graph vs GraphSnapshot read paths ------------------------------------
// Seeding is the contiguous-range-vs-hash-index comparison the snapshot
// refactor targets: SeedCandidates over the live Graph copies an
// unordered_set and sorts; over a snapshot it memcpys a pre-sorted label
// partition. Both produce identical candidate lists (tests/test_snapshot.cc).

void BM_SeedCandidatesGraph(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  RuleId dup = w.rules.Find("dup_person").value();
  Matcher m(w.graph, w.rules[dup].pattern());
  VarId seed = m.SeedVar();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.SeedCandidates(seed));
  }
}
BENCHMARK(BM_SeedCandidatesGraph)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMicrosecond);

void BM_SeedCandidatesSnapshot(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  GraphSnapshot snap(w.graph);
  RuleId dup = w.rules.Find("dup_person").value();
  Matcher m(snap, w.rules[dup].pattern());
  VarId seed = m.SeedVar();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.SeedCandidates(seed));
  }
}
BENCHMARK(BM_SeedCandidatesSnapshot)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMicrosecond);

// Full single-rule expansion over both backends (identical search trees;
// only the storage layout differs).
void BM_SingleRuleMatchSnapshot(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  GraphSnapshot snap(w.graph);
  RuleId dup = w.rules.Find("dup_person").value();
  const Pattern& p = w.rules[dup].pattern();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matcher(snap, p).Count());
  }
}
BENCHMARK(BM_SingleRuleMatchSnapshot)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// What a per-pass snapshot costs to build — the price DetectAll pays once
// before fanning out.
void BM_SnapshotBuild(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    GraphSnapshot snap(w.graph);
    benchmark::DoNotOptimize(snap.NumEdges());
  }
}
BENCHMARK(BM_SnapshotBuild)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// The incremental alternative the serving path uses: advance a cached
// snapshot by a 16-edit delta-log slice. Compare against BM_SnapshotBuild
// at the same scale — the gap is the O(delta)-vs-O(V+E) asymmetry of
// RepairService::Commit. Each iteration patches the edit batch in (timed),
// then the undo's inverse records (untimed) to return the snapshot to the
// synced baseline state.
void BM_SnapshotPatch(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  w.graph.EnableDeltaLog();
  auto persons = w.graph.NodesWithLabel(w.schema.person);
  NodeId a = *persons.begin();
  GraphSnapshot snap(w.graph);
  uint64_t watermark = w.graph.DeltaLogEnd();
  constexpr int kEditsPerBatch = 16;
  for (auto _ : state) {
    state.PauseTiming();
    size_t mark = w.graph.JournalSize();
    for (int i = 0; i < kEditsPerBatch / 2; ++i) {
      NodeId b = w.graph.AddNode(w.schema.person);
      (void)w.graph.AddEdge(a, b, w.schema.knows);
    }
    auto [records, count] = w.graph.DeltaLogSince(watermark);
    state.ResumeTiming();
    snap.Patch(records, count);
    state.PauseTiming();
    watermark = w.graph.DeltaLogEnd();
    (void)w.graph.UndoTo(mark);
    auto [undo_records, undo_count] = w.graph.DeltaLogSince(watermark);
    snap.Patch(undo_records, undo_count);
    watermark = w.graph.DeltaLogEnd();
    w.graph.TrimDeltaLog(watermark);
    state.ResumeTiming();
  }
  state.counters["edits_per_patch"] = kEditsPerBatch;
}
BENCHMARK(BM_SnapshotPatch)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMicrosecond);

// Shard-partitioned store: what the S per-shard column sets cost to build
// (compare BM_SnapshotBuild — the work is split S ways, so the sequential
// sum is comparable; a pool builds the shards concurrently).
void BM_ShardedSnapshotBuild(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  const size_t shards = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    ShardedSnapshot ss(w.graph, shards);
    benchmark::DoNotOptimize(ss.NumEdges());
  }
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedSnapshotBuild)
    ->Args({4000, 2})->Args({4000, 4})->Args({4000, 8})
    ->Unit(benchmark::kMillisecond);

// The sharded store's localized-edit hot path: a 16-edit batch confined to
// ONE shard's nodes, advanced with a zero rebuild fraction so the dirty
// shard is rebuilt ALONE (~1/S of BM_SnapshotBuild at the same scale) —
// the rebuild economics that keep a hot region from forcing whole-store
// work.
void BM_ShardedDirtyShardRebuild(benchmark::State& state) {
  Workload w(4000);
  const size_t shards = static_cast<size_t>(state.range(0));
  w.graph.EnableDeltaLog();
  ShardedSnapshot ss(w.graph, shards);
  uint64_t watermark = w.graph.DeltaLogEnd();
  std::vector<NodeId> local;
  for (NodeId n : w.graph.Nodes())
    if (StorageShardOfNode(n, shards) == 0) local.push_back(n);
  SymbolId attr = w.vocab->Attr("bench_note");
  SymbolId v0 = w.vocab->Value("v0"), v1 = w.vocab->Value("v1");
  bool flip = false;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolId value = flip ? v0 : v1;  // parity flip: always a real change
    flip = !flip;
    for (size_t i = 0; i < 16 && i < local.size(); ++i)
      (void)w.graph.SetNodeAttr(local[i], attr, value);
    auto [records, count] = w.graph.DeltaLogSince(watermark);
    state.ResumeTiming();
    ShardedSnapshot::AdvanceStats st =
        ss.Advance(w.graph, records, count, /*rebuild_fraction=*/0.0);
    state.PauseTiming();
    if (st.shards_rebuilt != 1) std::abort();  // sanity: one dirty shard
    watermark = w.graph.DeltaLogEnd();
    w.graph.TrimDeltaLog(watermark);
    state.ResumeTiming();
  }
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedDirtyShardRebuild)
    ->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Seeding over the sharded store: the k-way merge of per-shard candidate
// partitions vs the monolithic contiguous-range copy
// (BM_SeedCandidatesSnapshot) — the read-side price of sharding.
void BM_SeedCandidatesSharded(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  ShardedSnapshot ss(w.graph, static_cast<size_t>(state.range(1)));
  RuleId dup = w.rules.Find("dup_person").value();
  Matcher m(ss, w.rules[dup].pattern());
  VarId seed = m.SeedVar();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.SeedCandidates(seed));
  }
}
BENCHMARK(BM_SeedCandidatesSharded)
    ->Args({4000, 4})->Args({4000, 8})
    ->Unit(benchmark::kMicrosecond);

// Full detection over one snapshot reused across calls, passed in as the
// view — what a caller detecting repeatedly over an unchanged graph does
// when it wants snapshot reads.
void BM_FullDetectionReusedSnapshot(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  GraphSnapshot snap(w.graph);
  for (auto _ : state) {
    ViolationStore store;
    benchmark::DoNotOptimize(DetectAll(snap, w.rules, &store));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullDetectionReusedSnapshot)->Arg(500)->Arg(1000)->Arg(2000)
    ->Arg(4000)->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_GraphMutation(benchmark::State& state) {
  auto vocab = MakeVocabulary();
  Graph g(vocab);
  SymbolId l = vocab->Label("N"), e = vocab->Label("e");
  NodeId a = g.AddNode(l), b = g.AddNode(l);
  for (auto _ : state) {
    EdgeId id = g.AddEdge(a, b, e).value();
    (void)g.RemoveEdge(id);
    benchmark::DoNotOptimize(id);
  }
}
BENCHMARK(BM_GraphMutation);

void BM_UndoJournal(benchmark::State& state) {
  auto vocab = MakeVocabulary();
  Graph g(vocab);
  SymbolId l = vocab->Label("N"), e = vocab->Label("e");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 100; ++i) nodes.push_back(g.AddNode(l));
  for (auto _ : state) {
    size_t mark = g.JournalSize();
    for (int i = 0; i + 1 < 100; ++i) g.AddEdge(nodes[i], nodes[i + 1], e);
    (void)g.UndoTo(mark);
  }
}
BENCHMARK(BM_UndoJournal)->Unit(benchmark::kMicrosecond);

// --- Compiled match plans --------------------------------------------------

// Compilation cost of a full rule set's bodies for every anchor shape the
// system searches with — more than one detection pass compiles, since each
// Matcher compiles only the shapes it searches (one per rule on a full
// pass, one per anchor shape on a delta pass).
void BM_PlanCompile(benchmark::State& state) {
  Workload w(static_cast<size_t>(state.range(0)));
  GraphSnapshot snap(w.graph);
  for (auto _ : state) {
    for (RuleId r = 0; r < w.rules.size(); ++r) {
      MatchPlan plan = MatchPlan::Compile(w.rules[r].pattern(), snap);
      benchmark::DoNotOptimize(&plan);
    }
  }
}
BENCHMARK(BM_PlanCompile)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMicrosecond);

// The intersection kernels on the skew the galloping path targets: a small
// candidate set against a large adjacency partition (ratio >= kGallopRatio
// gallops, the balanced shape merges).
void BM_IntersectGalloping(benchmark::State& state) {
  const size_t large_n = 100000;
  const size_t small_n = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> large, small;
  large.reserve(large_n);
  for (uint32_t i = 0; i < large_n; ++i) large.push_back(2 * i);
  small.reserve(small_n);
  for (uint32_t i = 0; i < small_n; ++i)
    small.push_back(static_cast<uint32_t>(i * (2 * large_n / small_n)));
  std::vector<uint32_t> out;
  for (auto _ : state) {
    IntersectSorted(small, large, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IntersectGalloping)->Arg(64)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace grepair

// Custom main so the run opens with the same self-describing JSON header
// the other benches emit (google-benchmark's own output follows).
int main(int argc, char** argv) {
  grepair::bench::PrintBenchHeader(
      "M9: matching micro-benchmarks (graph vs snapshot)");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
