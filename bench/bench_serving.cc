// S1 — Serving throughput: a RepairService under a stream of random edits,
// swept over batch size × worker threads (the pool of the shard-parallel
// publication advance) on a clean repaired knowledge graph. Reports per-batch commit latency (p50/p95 from ServiceStats) and
// edit throughput; results are bit-identical across thread counts (asserted
// in tests/test_serve.cc), so the sweep measures pure wall-clock. Each row
// is also emitted as a self-describing JSON line (see PrintBenchHeader).
//
// S2 — Snapshot acquisition: what the serving commit path pays to bring
// its publication slot to the committed state, per batch size AND shard
// count — advancing the slot's store by a delta-log Patch (O(delta)) vs
// building a fresh one (O(V+E)). Rows report the delta fraction of |E|
// and the speedup; the acceptance bar is >=10x for deltas <= 1% of |E|
// at the largest scale.
//
// S2b — Dirty-shard rebuild: a batch of edits confined to ONE storage
// shard forces that shard's rebuild alone on a ShardedSnapshot (~1/S the
// work) while a monolithic snapshot pays the full O(V+E) rebuild — the
// locality the sharded store exists for, measured at the 4000-node scale.
//
// S3 — Durable commit cost: the same edit stream with a write-ahead log on
// the real filesystem, per fsync policy (off / interval / every) against
// the no-WAL baseline. Reports commit latency and the WAL ledger (appends,
// syncs, bytes) — the price sheet of the durability knob (DESIGN.md
// "Durability").
//
// S4 — Published-read throughput: N reader threads loop full detection
// against the epoch-published snapshot generation while a writer commits
// batches, vs the single-mutex baseline where every read serializes behind
// the same mutex the writer holds. Reports aggregate reads/sec per
// (readers x writer batch size) cell — the scaling the lock-free read path
// exists for (DESIGN.md "Read path / epoch publication").
//
// GREPAIR_BENCH_SMOKE=1 shrinks all sections to CI-smoke scale; the JSON
// header records the mode so collected artifacts stay comparable.
#include "bench_common.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "graph/sharded_snapshot.h"
#include "graph/snapshot.h"
#include "serve/repair_service.h"
#include "storage/fs.h"
#include "storage/wal.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace grepair;
using namespace grepair::bench;

namespace {

bool SmokeMode() {
  const char* v = std::getenv("GREPAIR_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// The same domain-agnostic edit generator the serve tests use: mutate a
// scratch clone, feed the journal slice to the service as ops.
std::vector<EditEntry> MakeBatch(Graph* scratch, Rng* rng, size_t n) {
  size_t mark = scratch->JournalSize();
  std::vector<NodeId> nodes = scratch->Nodes();
  std::vector<SymbolId> nlabels, elabels;
  for (NodeId node : nodes) nlabels.push_back(scratch->NodeLabel(node));
  for (EdgeId e : scratch->Edges()) elabels.push_back(scratch->EdgeLabel(e));
  for (size_t k = 0; k < n; ++k) {
    switch (rng->NextBounded(4)) {
      case 0: {
        NodeId a = nodes[rng->PickIndex(nodes)];
        NodeId b = nodes[rng->PickIndex(nodes)];
        if (scratch->NodeAlive(a) && scratch->NodeAlive(b) && a != b)
          scratch->AddEdge(a, b, elabels[rng->PickIndex(elabels)]);
        break;
      }
      case 1: {
        std::vector<EdgeId> cur = scratch->Edges();
        if (!cur.empty()) scratch->RemoveEdge(cur[rng->PickIndex(cur)]);
        break;
      }
      case 2: {
        scratch->AddNode(nlabels[rng->PickIndex(nlabels)]);
        break;
      }
      default: {
        NodeId a = nodes[rng->PickIndex(nodes)];
        if (scratch->NodeAlive(a))
          scratch->SetNodeLabel(a, nlabels[rng->PickIndex(nlabels)]);
        break;
      }
    }
  }
  return std::vector<EditEntry>(scratch->Journal().begin() + mark,
                                scratch->Journal().end());
}

// S2: the per-commit snapshot acquisition cost, patch vs rebuild, on a
// clean graph under batches of `batch_size` random edits, for a monolithic
// (shards == 1) or sharded snapshot store. Each round applies a batch,
// patches the store forward (timed; sharded stores route records to their
// shards) and builds a fresh store of the same state (timed); medians over
// `rounds`.
void AcquisitionSweep(const DatasetBundle& clean, size_t batch_size,
                      size_t rounds, size_t shards, TableWriter* table) {
  Graph g = clean.graph.Clone();
  g.EnableDeltaLog();
  Graph scratch = clean.graph.Clone();
  Rng rng(23);
  std::unique_ptr<GraphSnapshot> mono;
  std::unique_ptr<ShardedSnapshot> sharded;
  if (shards <= 1)
    mono = std::make_unique<GraphSnapshot>(g);
  else
    sharded = std::make_unique<ShardedSnapshot>(g, shards);
  uint64_t watermark = g.DeltaLogEnd();

  std::vector<double> patch_ms, rebuild_ms;
  size_t delta_edits = 0;
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<EditEntry> ops = MakeBatch(&scratch, &rng, batch_size);
    size_t mark = g.JournalSize();
    for (const EditEntry& op : ops) {
      switch (op.kind) {
        case EditKind::kAddNode: g.AddNode(op.label); break;
        case EditKind::kAddEdge: (void)g.AddEdge(op.src, op.dst, op.label);
          break;
        case EditKind::kRemoveEdge: (void)g.RemoveEdge(op.edge); break;
        case EditKind::kSetNodeLabel:
          (void)g.SetNodeLabel(op.node, op.new_sym);
          break;
        default: break;
      }
    }
    delta_edits += g.JournalSize() - mark;
    {
      Timer t;
      auto [records, count] = g.DeltaLogSince(watermark);
      if (mono != nullptr)
        mono->Patch(records, count);
      else  // force the patch path: the rebuild column measures rebuilds
        sharded->Advance(g, records, count, /*rebuild_fraction=*/1e30);
      watermark = g.DeltaLogEnd();
      patch_ms.push_back(t.ElapsedMs());
    }
    {
      Timer t;
      if (mono != nullptr) {
        GraphSnapshot fresh(g);
        rebuild_ms.push_back(t.ElapsedMs());
        if (fresh.NumEdges() != mono->NumEdges()) std::abort();  // sanity
      } else {
        ShardedSnapshot fresh(g, shards);
        rebuild_ms.push_back(t.ElapsedMs());
        if (fresh.NumEdges() != sharded->NumEdges()) std::abort();
      }
    }
    scratch = g.Clone();
  }
  std::sort(patch_ms.begin(), patch_ms.end());
  std::sort(rebuild_ms.begin(), rebuild_ms.end());
  double p = patch_ms[patch_ms.size() / 2];
  double r = rebuild_ms[rebuild_ms.size() / 2];
  double delta_fraction =
      static_cast<double>(delta_edits) /
      (static_cast<double>(rounds) *
       static_cast<double>(std::max<size_t>(g.NumEdges(), 1)));
  size_t patched_total =
      mono != nullptr ? mono->PatchedEdits() : sharded->PatchedEdits();
  size_t mem =
      mono != nullptr ? mono->MemoryBytes() : sharded->MemoryBytes();
  std::printf("{\"mode\":\"snapshot_acquisition\",\"shards\":%zu,"
              "\"batch_size\":%zu,"
              "\"edges\":%zu,\"delta_fraction\":%.5f,\"patch_ms\":%.4f,"
              "\"rebuild_ms\":%.4f,\"speedup\":%.1f,"
              "\"patched_edits_total\":%zu,\"snapshot_mem_bytes\":%zu}\n",
              shards, batch_size, g.NumEdges(), delta_fraction, p, r,
              r / std::max(1e-6, p), patched_total, mem);
  table->AddRow({TableWriter::Int(int64_t(shards)),
                 TableWriter::Int(int64_t(batch_size)),
                 TableWriter::Int(int64_t(g.NumEdges())),
                 TableWriter::Num(100.0 * delta_fraction, 3),
                 TableWriter::Num(p, 4), TableWriter::Num(r, 4),
                 TableWriter::Num(r / std::max(1e-6, p), 1)});
}

// S2b: the sharded store's dirty-shard-only rebuild. Every round confines
// a batch of attribute edits to ONE storage shard's nodes and forces the
// rebuild path (fraction 0): the sharded store rebuilds the single dirty
// shard while a monolithic snapshot pays the full O(V+E) rebuild for the
// same localized delta — the locality argument of the sharded store,
// measured.
void DirtyShardSweep(const DatasetBundle& clean, size_t shards,
                     size_t rounds, TableWriter* table) {
  Graph g = clean.graph.Clone();
  g.EnableDeltaLog();
  ShardedSnapshot store(g, shards);
  uint64_t watermark = g.DeltaLogEnd();
  std::vector<NodeId> local;
  for (NodeId n : g.Nodes())
    if (StorageShardOfNode(n, shards) == 0) local.push_back(n);
  SymbolId attr = g.vocab()->Attr("bench_note");

  std::vector<double> dirty_ms, mono_ms;
  for (size_t round = 0; round < rounds; ++round) {
    SymbolId value =
        g.vocab()->Value("v" + std::to_string(round));  // always a change
    for (size_t i = 0; i < 16 && i < local.size(); ++i)
      (void)g.SetNodeAttr(local[i], attr, value);
    {
      Timer t;
      auto [records, count] = g.DeltaLogSince(watermark);
      ShardedSnapshot::AdvanceStats st =
          store.Advance(g, records, count, /*rebuild_fraction=*/0.0);
      watermark = g.DeltaLogEnd();
      dirty_ms.push_back(t.ElapsedMs());
      if (st.shards_rebuilt != 1) std::abort();  // sanity: one dirty shard
    }
    {
      Timer t;
      GraphSnapshot fresh(g);
      mono_ms.push_back(t.ElapsedMs());
      if (fresh.NumEdges() != store.NumEdges()) std::abort();
    }
  }
  std::sort(dirty_ms.begin(), dirty_ms.end());
  std::sort(mono_ms.begin(), mono_ms.end());
  double d = dirty_ms[dirty_ms.size() / 2];
  double m = mono_ms[mono_ms.size() / 2];
  std::printf("{\"mode\":\"dirty_shard_rebuild\",\"shards\":%zu,"
              "\"edges\":%zu,\"dirty_rebuild_ms\":%.4f,"
              "\"mono_rebuild_ms\":%.4f,\"speedup\":%.1f}\n",
              shards, g.NumEdges(), d, m, m / std::max(1e-6, d));
  table->AddRow({TableWriter::Int(int64_t(shards)),
                 TableWriter::Int(int64_t(g.NumEdges())),
                 TableWriter::Num(d, 4), TableWriter::Num(m, 4),
                 TableWriter::Num(m / std::max(1e-6, d), 1)});
}

// S3: one (policy) cell — a durable service on a real on-disk WAL
// directory fed `total_edits` edits in batches, against the shared edit
// stream. `policy` is "none" for the no-WAL baseline.
void DurabilitySweep(const DatasetBundle& clean, const std::string& policy,
                     size_t batch_size, size_t total_edits,
                     TableWriter* table) {
  storage::Fs* fs = storage::RealFs::Default();
  const std::string dir = "bench_wal_" + policy + ".dir";
  ServeOptions sopt;
  if (policy != "none") {
    sopt.wal_dir = dir;
    sopt.checkpoint_every = 64;
    if (policy == "every")
      sopt.fsync_policy = storage::FsyncPolicy::kEveryCommit;
    else if (policy == "interval")
      sopt.fsync_policy = storage::FsyncPolicy::kInterval;
    else
      sopt.fsync_policy = storage::FsyncPolicy::kOff;
  }
  RepairService service(clean.graph.Clone(), clean.rules, sopt);
  if (!sopt.wal_dir.empty()) {
    auto rec = service.OpenDurability();
    if (!rec.ok()) {
      std::fprintf(stderr, "OpenDurability failed: %s\n",
                   rec.status().ToString().c_str());
      std::exit(1);
    }
  }
  Graph scratch = clean.graph.Clone();
  Rng rng(17);  // the S1 stream, so rows are comparable across policies

  Timer wall;
  for (size_t done = 0; done < total_edits; done += batch_size) {
    std::vector<EditEntry> ops = MakeBatch(&scratch, &rng, batch_size);
    auto r = service.ApplyBatch(ops);
    if (!r.ok()) {
      std::fprintf(stderr, "durable batch failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    scratch = service.graph().Clone();
  }
  double total_s = wall.ElapsedMs() / 1000.0;

  const ServiceStats& s = service.stats();
  double p50 = s.LatencyPercentileMs(50), p95 = s.LatencyPercentileMs(95);
  double eps = total_s > 0 ? static_cast<double>(s.edits) / total_s : 0;
  std::printf("{\"mode\":\"durability\",\"fsync_policy\":\"%s\","
              "\"batch_size\":%zu,\"batches\":%zu,\"edits\":%zu,"
              "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"edits_per_s\":%.1f,"
              "\"wal_appends\":%zu,\"wal_syncs\":%zu,\"wal_bytes\":%zu,"
              "\"checkpoints\":%zu}\n",
              policy.c_str(), batch_size, s.batches, s.edits, p50, p95, eps,
              s.wal_appends, s.wal_syncs, s.wal_bytes, s.checkpoints);
  table->AddRow({policy,
                 TableWriter::Int(int64_t(s.batches)),
                 TableWriter::Num(p50, 3), TableWriter::Num(p95, 3),
                 TableWriter::Num(eps, 1),
                 TableWriter::Int(int64_t(s.wal_appends)),
                 TableWriter::Int(int64_t(s.wal_syncs)),
                 TableWriter::Int(int64_t(s.wal_bytes))});

  if (!sopt.wal_dir.empty()) {
    auto names = fs->ListDir(dir);
    if (names.ok())
      for (const std::string& name : names.value())
        (void)fs->RemoveFile(dir + "/" + name);
    std::remove(dir.c_str());
  }
}

// S4: one (readers, writer batch, locking) cell — reader threads loop
// DetectPublished while the main thread commits batches for `seconds` of
// wall clock. With `mutex_baseline` every read AND every commit serializes
// behind one shared mutex (the pre-publication locking discipline, on
// identical detection work); without it both run the lock-free published
// path. The ratio between the two rows is the read-path speedup.
void ReadPathSweep(const DatasetBundle& clean, size_t readers,
                   size_t writer_batch, bool mutex_baseline, double seconds,
                   TableWriter* table) {
  ServeOptions sopt;
  sopt.num_threads = 2;
  RepairService service(clean.graph.Clone(), clean.rules, sopt);
  std::mutex service_mu;  // the baseline's serialization point
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};

  std::vector<std::thread> pool;
  for (size_t r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (mutex_baseline) {
          std::lock_guard<std::mutex> lock(service_mu);
          if (!service.DetectPublished("").ok()) std::abort();
        } else {
          if (!service.DetectPublished("").ok()) std::abort();
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Graph scratch = clean.graph.Clone();
  Rng rng(29);
  Timer wall;
  size_t batches = 0;
  while (wall.ElapsedMs() < seconds * 1000.0) {
    std::vector<EditEntry> ops = MakeBatch(&scratch, &rng, writer_batch);
    Result<BatchResult> r = [&] {
      if (!mutex_baseline) return service.ApplyBatch(ops);
      std::lock_guard<std::mutex> lock(service_mu);
      return service.ApplyBatch(ops);
    }();
    if (!r.ok()) {
      std::fprintf(stderr, "read-path batch failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    scratch = service.graph().Clone();
    ++batches;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  double total_s = wall.ElapsedMs() / 1000.0;

  const char* locking = mutex_baseline ? "mutex" : "published";
  double rps = static_cast<double>(reads.load()) / std::max(1e-6, total_s);
  double bps = static_cast<double>(batches) / std::max(1e-6, total_s);
  const ServiceStats& s = service.stats();
  std::printf("{\"mode\":\"read_path\",\"readers\":%zu,"
              "\"writer_batch\":%zu,\"locking\":\"%s\",\"reads\":%zu,"
              "\"reads_per_s\":%.1f,\"writer_batches\":%zu,"
              "\"writer_batches_per_s\":%.1f,\"published_generation\":%zu,"
              "\"publish_ms\":%.3f}\n",
              readers, writer_batch, locking, reads.load(), rps, batches, bps,
              s.published_generation, s.publish_ms);
  table->AddRow({TableWriter::Int(int64_t(readers)),
                 TableWriter::Int(int64_t(writer_batch)), locking,
                 TableWriter::Num(rps, 1),
                 TableWriter::Int(int64_t(batches)),
                 TableWriter::Num(bps, 1)});
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  PrintBenchHeader("S1: serving throughput vs batch size x threads (KG)",
                   std::string("\"smoke\":") + (smoke ? "true" : "false"));
  const size_t kPersons = smoke ? 400 : 2000;
  TableWriter t("S1: commit latency / edit throughput (KG)",
                {"batch_size", "threads", "batches", "edits", "fixes",
                 "p50_ms", "p95_ms", "edits_per_s"});

  KgOptions gopt;
  gopt.num_persons = kPersons;
  gopt.num_cities = kPersons / 10;
  gopt.num_countries = 10;
  gopt.num_orgs = kPersons / 15;
  InjectOptions iopt;
  iopt.rate = 0.05;
  DatasetBundle bundle = MustKgBundle(gopt, iopt);
  // Serve from a clean state: repair the injected corruption first.
  {
    RepairEngine engine;
    auto res = engine.Run(&bundle.graph, bundle.rules);
    if (!res.ok() || res.value().remaining_violations != 0) {
      std::fprintf(stderr, "initial repair failed\n");
      return 1;
    }
  }

  const size_t kTotalEdits = smoke ? 64 : 192;
  std::vector<size_t> batch_sizes =
      smoke ? std::vector<size_t>{8, 64} : std::vector<size_t>{1, 8, 64};
  std::vector<size_t> thread_counts =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 2, 4, 8};
  for (size_t batch_size : batch_sizes) {
    for (size_t threads : thread_counts) {
      ServeOptions sopt;
      sopt.num_threads = threads;
      RepairService service(bundle.graph.Clone(), bundle.rules, sopt);
      Graph scratch = bundle.graph.Clone();
      Rng rng(17);  // same stream for every (batch size, threads) cell

      Timer wall;
      for (size_t done = 0; done < kTotalEdits; done += batch_size) {
        std::vector<EditEntry> ops = MakeBatch(&scratch, &rng, batch_size);
        auto r = service.ApplyBatch(ops);
        if (!r.ok()) {
          std::fprintf(stderr, "batch failed: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
        // Keep the edit generator aligned with the repaired graph.
        scratch = service.graph().Clone();
      }
      double total_s = wall.ElapsedMs() / 1000.0;

      const ServiceStats& s = service.stats();
      double p50 = s.LatencyPercentileMs(50), p95 = s.LatencyPercentileMs(95);
      double eps = total_s > 0 ? static_cast<double>(s.edits) / total_s : 0;
      std::printf("{\"batch_size\":%zu,\"threads\":%zu,\"shards\":%zu,"
                  "\"batches\":%zu,"
                  "\"edits\":%zu,\"fixes\":%zu,\"p50_ms\":%.3f,"
                  "\"p95_ms\":%.3f,\"edits_per_s\":%.1f,"
                  "\"publish_patches\":%zu,\"publish_rebuilds\":%zu,"
                  "\"publish_ms\":%.3f,\"shard_patches\":%zu,"
                  "\"shard_rebuilds\":%zu}\n",
                  batch_size, threads, service.num_shards(), s.batches,
                  s.edits, s.violations_repaired, p50, p95, eps,
                  s.publish_patches, s.publish_rebuilds, s.publish_ms,
                  s.shard_patches, s.shard_rebuilds);
      t.AddRow({TableWriter::Int(int64_t(batch_size)),
                TableWriter::Int(int64_t(threads)),
                TableWriter::Int(int64_t(s.batches)),
                TableWriter::Int(int64_t(s.edits)),
                TableWriter::Int(int64_t(s.violations_repaired)),
                TableWriter::Num(p50, 3), TableWriter::Num(p95, 3),
                TableWriter::Num(eps, 1)});
    }
  }

  t.Print();
  std::puts("\nCSV:");
  std::fputs(t.ToCsv().c_str(), stdout);

  // --- S2: snapshot acquisition, patch vs rebuild ----------------------
  // The largest scale is where the O(delta)-vs-O(V+E) gap matters; smoke
  // mode shrinks it but keeps the row shape. Batch sizes are chosen to
  // bracket the 1%-of-|E| acceptance point.
  const size_t kAcqPersons = smoke ? 400 : 4000;
  KgOptions aopt;
  aopt.num_persons = kAcqPersons;
  aopt.num_cities = kAcqPersons / 10;
  aopt.num_countries = 10;
  aopt.num_orgs = kAcqPersons / 15;
  InjectOptions clean_iopt;
  clean_iopt.rate = 0.0;
  DatasetBundle acq = MustKgBundle(aopt, clean_iopt);
  TableWriter t2("S2: snapshot acquisition per commit — patch vs rebuild "
                 "(per shard count)",
                 {"shards", "batch_size", "|E|", "delta_pct", "patch_ms",
                  "rebuild_ms", "speedup"});
  const size_t acq_rounds = smoke ? 5 : 9;
  size_t edges = acq.graph.NumEdges();
  std::vector<size_t> acq_batches = {1, 8, 64};
  acq_batches.push_back(std::max<size_t>(1, edges / 100));  // the 1% point
  acq_batches.push_back(std::max<size_t>(1, edges / 20));   // past threshold
  std::vector<size_t> acq_shards =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 4, 8};
  for (size_t shards : acq_shards)
    for (size_t batch_size : acq_batches)
      AcquisitionSweep(acq, batch_size, acq_rounds, shards, &t2);
  t2.Print();
  std::puts("\nCSV:");
  std::fputs(t2.ToCsv().c_str(), stdout);

  // --- S2b: localized edits — dirty-shard rebuild vs monolithic rebuild --
  TableWriter t3("S2b: localized-edit rebuild — one dirty shard vs "
                 "monolithic O(V+E)",
                 {"shards", "|E|", "dirty_rebuild_ms", "mono_rebuild_ms",
                  "speedup"});
  std::vector<size_t> dirty_shards =
      smoke ? std::vector<size_t>{4} : std::vector<size_t>{2, 4, 8};
  for (size_t shards : dirty_shards)
    DirtyShardSweep(acq, shards, acq_rounds, &t3);
  t3.Print();
  std::puts("\nCSV:");
  std::fputs(t3.ToCsv().c_str(), stdout);

  // --- S3: durable commit cost per fsync policy ------------------------
  TableWriter t4("S3: durable commit cost per fsync policy (real fs WAL)",
                 {"fsync_policy", "batches", "p50_ms", "p95_ms",
                  "edits_per_s", "wal_appends", "wal_syncs", "wal_bytes"});
  const size_t kDurableEdits = smoke ? 64 : 192;
  for (const char* policy : {"none", "off", "interval", "every"})
    DurabilitySweep(bundle, policy, 8, kDurableEdits, &t4);
  t4.Print();
  std::puts("\nCSV:");
  std::fputs(t4.ToCsv().c_str(), stdout);

  // --- S4: published-read throughput vs the single-mutex baseline -------
  TableWriter t5("S4: published-read throughput — lock-free readers vs "
                 "single-mutex baseline",
                 {"readers", "writer_batch", "locking", "reads_per_s",
                  "batches", "batches_per_s"});
  std::vector<size_t> reader_counts =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 2, 4, 8};
  std::vector<size_t> read_wbatches =
      smoke ? std::vector<size_t>{8} : std::vector<size_t>{8, 64};
  const double read_secs = smoke ? 0.4 : 1.5;
  for (size_t wb : read_wbatches)
    for (size_t readers : reader_counts)
      for (bool baseline : {true, false})
        ReadPathSweep(bundle, readers, wb, baseline, read_secs, &t5);
  t5.Print();
  std::puts("\nCSV:");
  std::fputs(t5.ToCsv().c_str(), stdout);
  return 0;
}
