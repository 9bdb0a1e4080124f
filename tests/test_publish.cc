// Epoch-published snapshot tests (src/serve/publisher.h): the read side of
// the serving subsystem. Pins the four load-bearing properties:
//
//   1. Bit-identity: the `detect` read verb over the published generation
//      reproduces offline `grepair detect` against the same committed
//      batch byte for byte, swept over shards {1,2,4,8} x threads
//      {1,2,4,8} (and through the real CLI file round trip).
//   2. Prefix property: under a concurrent write storm every reader
//      observes EXACTLY the state of some committed batch boundary —
//      detect counts and backlog pages match a sequential replay at that
//      batch, and the observed batches are monotone per reader. This is
//      the test the TSan CI job runs for interleaving coverage.
//   3. Lifetime: a pinned generation survives arbitrarily many later
//      publications untouched (RCU abandonment), and is released only
//      when the last lease drops.
//   4. Isolation: read verbs complete while the service/commit mutex is
//      HELD by another thread (they never acquire it), and restore
//      republishes atomically — a pinned reader never observes a
//      half-restored store.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "eval/experiment.h"
#include "graph/graph_io.h"
#include "grr/rule_parser.h"
#include "repair/engine.h"
#include "serve/repair_service.h"
#include "serve/session.h"
#include "util/rng.h"
#include "util/strings.h"

namespace grepair {
namespace {

// A kg bundle, corrupted (has violations) or fully repaired first.
DatasetBundle KgBundle(bool repaired, uint64_t seed = 3) {
  KgOptions gopt;
  gopt.num_persons = 250;
  gopt.num_cities = 30;
  gopt.num_countries = 8;
  gopt.num_orgs = 15;
  gopt.seed = seed;
  InjectOptions iopt;
  iopt.rate = 0.05;
  iopt.seed = seed + 5;
  auto b = MakeKgBundle(gopt, iopt);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  DatasetBundle bundle = std::move(b).value();
  if (repaired) {
    auto res = RepairEngine().Run(&bundle.graph, bundle.rules);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.value().remaining_violations, 0u);
  }
  return bundle;
}

// Random domain-agnostic edits against g; returns the journal slice (the
// op list a RepairService replays). Same scheme as tests/test_serve.cc.
std::vector<EditEntry> MutateRandom(Graph* g, Rng* rng, size_t n) {
  size_t mark = g->JournalSize();
  std::vector<NodeId> nodes = g->Nodes();
  std::vector<SymbolId> nlabels, elabels;
  for (NodeId node : nodes) nlabels.push_back(g->NodeLabel(node));
  for (EdgeId e : g->Edges()) elabels.push_back(g->EdgeLabel(e));
  for (size_t k = 0; k < n; ++k) {
    switch (rng->NextBounded(4)) {
      case 0: {
        NodeId a = nodes[rng->PickIndex(nodes)];
        NodeId b = nodes[rng->PickIndex(nodes)];
        if (g->NodeAlive(a) && g->NodeAlive(b) && a != b)
          g->AddEdge(a, b, elabels[rng->PickIndex(elabels)]);
        break;
      }
      case 1: {
        NodeId a = nodes[rng->PickIndex(nodes)];
        if (g->NodeAlive(a))
          g->SetNodeLabel(a, nlabels[rng->PickIndex(nlabels)]);
        break;
      }
      case 2: {
        g->AddNode(nlabels[rng->PickIndex(nlabels)]);
        break;
      }
      default: {
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

// Exactly what `grepair detect` prints for this graph + rules (the text
// the published detect verb promises to reproduce).
std::string OfflineDetectReport(const GraphView& g, const RuleSet& rules) {
  ViolationStore store;
  DetectAll(g, rules, &store);
  std::map<std::string, size_t> per_rule;
  for (const Violation& v : store.Snapshot()) per_rule[rules[v.rule].name()]++;
  std::string out = StrFormat("%zu violations\n", store.Size());
  for (const auto& [name, c] : per_rule)
    out += StrFormat("  %-32s %zu\n", name.c_str(), c);
  return out;
}

bool SameDetect(const PublishedDetect& a, const PublishedDetect& b) {
  return a.violations == b.violations && a.per_rule == b.per_rule;
}

bool SameViolations(const PublishedViolations& a,
                    const PublishedViolations& b) {
  if (a.total != b.total || a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    const auto& x = a.rows[i];
    const auto& y = b.rows[i];
    if (x.rule != y.rule || x.cost != y.cost || x.nodes != y.nodes ||
        x.edges != y.edges)
      return false;
  }
  return true;
}

// ------------------------------------------- bit-identity, shards x threads

// The detect verb over the published generation must reproduce the offline
// report byte for byte at EVERY committed batch boundary, for every
// shards x threads combination — the determinism half of the tentpole.
class PublishBitIdentity
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(PublishBitIdentity, DetectMatchesOfflineAtEveryBoundary) {
  const size_t shards = std::get<0>(GetParam());
  const size_t threads = std::get<1>(GetParam());
  DatasetBundle bundle = KgBundle(/*repaired=*/false);

  ServeOptions sopt;
  sopt.num_threads = threads;
  sopt.num_shards = shards;
  RepairService service(bundle.graph.Clone(), bundle.rules, sopt);
  serve::Session session(&service, serve::SessionMode::kImmediate);

  Rng rng(1000 * shards + threads);
  for (size_t batch = 0; batch < 3; ++batch) {
    // Published state at a boundary == the live graph at that boundary.
    std::string expected = OfflineDetectReport(service.graph(), service.rules());
    std::string got = session.HandleLine("detect");
    EXPECT_EQ(got + "\n", expected)
        << "shards " << shards << " threads " << threads << " batch " << batch;

    // A rule-filtered detect returns exactly that rule's line count.
    auto all = service.DetectPublished("");
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    if (!all.value().per_rule.empty()) {
      const auto& [name, count] = all.value().per_rule.front();
      auto one = service.DetectPublished(name);
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      EXPECT_EQ(one.value().violations, count);
      EXPECT_EQ(one.value().per_rule.size(), 1u);
    }
    EXPECT_FALSE(service.DetectPublished("no_such_rule").ok());

    Graph scratch = service.graph().Clone();
    std::vector<EditEntry> ops = MutateRandom(&scratch, &rng, 6);
    auto res = service.ApplyBatch(ops);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(ShardsThreads, PublishBitIdentity,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                                            ::testing::Values(1u, 2u, 4u,
                                                              8u)),
                         [](const auto& info) {
                           return "s" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_t" +
                                  std::to_string(std::get<1>(info.param));
                         });

// Through the real CLI file round trip: `grepair detect` on the same
// graph/rules files the service was loaded from prints the same report the
// detect verb answers at batch 0 (the construction publication).
TEST(PublishCliTest, DetectVerbMatchesOfflineCli) {
  std::string graph = ::testing::TempDir() + "/grepair_pub_g.tsv";
  std::string rules = ::testing::TempDir() + "/grepair_pub_r.grr";
  std::string out;
  ASSERT_EQ(RunCli({"gen", "kg", "--out", graph, "--rules-out", rules,
                    "--scale", "150", "--rate", "0.05"},
                   &out),
            0)
      << out;

  std::string offline;
  ASSERT_EQ(RunCli({"detect", graph, rules}, &offline), 0) << offline;

  auto vocab = MakeVocabulary();
  auto g = LoadGraph(graph, vocab);
  ASSERT_TRUE(g.ok());
  std::ifstream rf(rules);
  std::stringstream rtext;
  rtext << rf.rdbuf();
  auto rs = ParseRules(rtext.str(), vocab);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();

  RepairService service(std::move(g).value(), std::move(rs).value(),
                        ServeOptions());
  serve::Session session(&service, serve::SessionMode::kImmediate);
  EXPECT_EQ(session.HandleLine("detect") + "\n", offline);

  std::remove(graph.c_str());
  std::remove(rules.c_str());
}

// --------------------------------------------- prefix under a write storm

// Concurrent readers against a committing service: every read must land
// exactly on some committed batch boundary, matching what a sequential
// single-threaded replay of the same batches published there, and each
// reader's observed batch sequence is monotone. max_fixes_per_batch keeps
// a live backlog so detect counts and violation pages vary per batch.
TEST(PublishStormTest, ReadersObserveExactlyCommittedPrefixes) {
  constexpr size_t kBatches = 8;
  constexpr size_t kReaders = 4;
  DatasetBundle bundle = KgBundle(/*repaired=*/true);

  ServeOptions base;
  base.max_fixes_per_batch = 3;

  // The sequential reference: one thread, one shard, same budget.
  ServeOptions seq_opt = base;
  seq_opt.num_threads = 1;
  RepairService seq(bundle.graph.Clone(), bundle.rules, seq_opt);

  // Generate each batch against the reference's own committed state so the
  // ops are valid for any service replaying the same prefix, and record
  // what the reference published at every boundary.
  std::map<uint64_t, PublishedDetect> expect_d;
  std::map<uint64_t, PublishedViolations> expect_v;
  auto record = [&](uint64_t batch) {
    auto d = seq.DetectPublished("");
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_EQ(d.value().batch, batch);
    expect_d[batch] = std::move(d).value();
    auto v = seq.ReadViolations(0, 1'000'000);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    expect_v[batch] = std::move(v).value();
  };
  record(0);
  Rng rng(77);
  std::vector<std::vector<EditEntry>> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    Graph scratch = seq.graph().Clone();
    batches.push_back(MutateRandom(&scratch, &rng, 10));
    auto res = seq.ApplyBatch(batches.back());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    record(b + 1);
  }

  // The storm service: shard-parallel publications, concurrent readers.
  ServeOptions storm_opt = base;
  storm_opt.num_threads = 4;
  storm_opt.num_shards = 4;
  RepairService storm(bundle.graph.Clone(), bundle.rules, storm_opt);

  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_batch = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto d = storm.DetectPublished("");
        ASSERT_TRUE(d.ok()) << d.status().ToString();
        EXPECT_GE(d.value().batch, last_batch) << "batch went backwards";
        last_batch = d.value().batch;
        auto it = expect_d.find(d.value().batch);
        ASSERT_NE(it, expect_d.end())
            << "read pinned unknown batch " << d.value().batch;
        EXPECT_TRUE(SameDetect(d.value(), it->second))
            << "detect diverged at batch " << d.value().batch;

        auto v = storm.ReadViolations(0, 1'000'000);
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        auto vit = expect_v.find(v.value().batch);
        ASSERT_NE(vit, expect_v.end());
        EXPECT_TRUE(SameViolations(v.value(), vit->second))
            << "backlog page diverged at batch " << v.value().batch;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (const auto& ops : batches) {
    auto res = storm.ApplyBatch(ops);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  // Both services replayed identical batches: identical final state.
  EXPECT_TRUE(storm.graph().ContentEquals(seq.graph()));
  auto final_d = storm.DetectPublished("");
  ASSERT_TRUE(final_d.ok());
  EXPECT_EQ(final_d.value().batch, kBatches);
  EXPECT_GT(storm.stats().published_reads, 0u);
  EXPECT_EQ(storm.stats().publishes, kBatches + 1);  // construction + commits
}

// ------------------------------------------------------ generation lifetime

// A pinned lease freezes its generation across arbitrarily many later
// publications: the writer abandons the retired-but-pinned slot instead of
// recycling it, and the shared_ptr keeps the store alive until the last
// lease drops.
TEST(PublishLifetimeTest, PinnedGenerationSurvivesLaterPublications) {
  DatasetBundle bundle = KgBundle(/*repaired=*/false);
  ServeOptions sopt;
  sopt.num_threads = 2;
  sopt.num_shards = 2;
  RepairService service(bundle.graph.Clone(), bundle.rules, sopt);

  serve::ReadLease lease = service.PinPublished();
  ASSERT_TRUE(lease.valid());
  const uint64_t pinned_gen = lease->generation;
  const uint64_t pinned_batch = lease->batch;
  const size_t pinned_nodes = lease.view().NumNodes();
  const size_t pinned_edges = lease.view().NumEdges();

  Rng rng(11);
  for (size_t b = 0; b < 4; ++b) {
    Graph scratch = service.graph().Clone();
    auto res = service.ApplyBatch(MutateRandom(&scratch, &rng, 8));
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }

  // Four publications later the lease still reads its frozen store.
  EXPECT_GT(service.PublishedGeneration(), pinned_gen);
  ASSERT_TRUE(lease.valid());
  EXPECT_EQ(lease->generation, pinned_gen);
  EXPECT_EQ(lease->batch, pinned_batch);
  EXPECT_EQ(lease.view().NumNodes(), pinned_nodes);
  EXPECT_EQ(lease.view().NumEdges(), pinned_edges);

  lease.Release();
  EXPECT_FALSE(lease.valid());
  // The service keeps serving fresh generations after the drop.
  auto d = service.DetectPublished("");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().batch, 4u);
}

// ------------------------------------------------- mutex isolation, restore

// The acceptance criterion of the read path: detect / violations complete
// while another thread HOLDS the service mutex. If either verb ever tried
// to acquire it this test would deadlock (and time out).
TEST(PublishIsolationTest, ReadVerbsCompleteWhileCommitMutexHeld) {
  DatasetBundle bundle = KgBundle(/*repaired=*/false);
  RepairService service(bundle.graph.Clone(), bundle.rules, ServeOptions());
  std::mutex service_mu;
  serve::Session reader(&service, serve::SessionMode::kStaged, &service_mu);

  std::string detect_resp, violations_resp;
  {
    std::lock_guard<std::mutex> commit_path_held(service_mu);
    std::thread t([&] {
      detect_resp = reader.HandleLine("detect");
      violations_resp = reader.HandleLine("violations 0 5");
    });
    t.join();  // hangs iff a read verb takes the mutex
  }
  EXPECT_NE(detect_resp.find(" violations"), std::string::npos)
      << detect_resp;
  EXPECT_EQ(violations_resp.rfind("violations total=", 0), 0u)
      << violations_resp;
}

// Restore republishes a fresh generation atomically: a reader pinned
// before the restore keeps its pre-restore store untouched, and the next
// pin observes exactly the restored state.
TEST(PublishIsolationTest, RestoreRepublishesAtomically) {
  std::string path = ::testing::TempDir() + "/grepair_pub_restore.snap";
  DatasetBundle bundle = KgBundle(/*repaired=*/false);
  RepairService service(bundle.graph.Clone(), bundle.rules, ServeOptions());

  auto d0 = service.DetectPublished("");
  ASSERT_TRUE(d0.ok());
  ASSERT_TRUE(service.SaveState(path).ok());

  Rng rng(23);
  Graph scratch = service.graph().Clone();
  ASSERT_TRUE(service.ApplyBatch(MutateRandom(&scratch, &rng, 12)).ok());

  serve::ReadLease lease = service.PinPublished();
  ASSERT_TRUE(lease.valid());
  const uint64_t pre_restore_gen = lease->generation;
  const size_t pre_restore_nodes = lease.view().NumNodes();

  ASSERT_TRUE(service.RestoreState(path).ok());

  // The pinned reader never observes the swap.
  ASSERT_TRUE(lease.valid());
  EXPECT_EQ(lease->generation, pre_restore_gen);
  EXPECT_EQ(lease.view().NumNodes(), pre_restore_nodes);

  // The restored state was republished as a NEW generation whose detect
  // report equals the report at save time.
  EXPECT_GT(service.PublishedGeneration(), pre_restore_gen);
  auto d1 = service.DetectPublished("");
  ASSERT_TRUE(d1.ok());
  EXPECT_TRUE(SameDetect(d0.value(), d1.value()));

  std::remove(path.c_str());
}

// --------------------------------------------------- options and protocol

// Construction publishes generation 1, with or without a pool, so a read
// before any commit answers from it; the refusal left on the read path is
// an unknown rule filter, which answers `err rejected` and counts as a
// stale read.
TEST(PublishOptionsTest, ReadsBeforeFirstCommitAndUnknownRuleRejected) {
  DatasetBundle bundle = KgBundle(/*repaired=*/false);
  for (size_t threads : {1u, 2u}) {
    ServeOptions sopt;
    sopt.num_threads = threads;
    RepairService service(bundle.graph.Clone(), bundle.rules, sopt);
    serve::Session session(&service, serve::SessionMode::kImmediate);

    EXPECT_EQ(service.stats().published_generation, 1u) << threads;
    auto d = service.DetectPublished("");
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d.value().generation, 1u);
    EXPECT_EQ(d.value().batch, 0u);
    EXPECT_EQ(session.HandleLine("detect") + "\n",
              OfflineDetectReport(service.graph(), service.rules()));

    const size_t stale = service.stats().stale_reads;
    EXPECT_EQ(session.HandleLine("detect nosuchrule").rfind("err rejected", 0),
              0u);
    EXPECT_EQ(service.stats().stale_reads, stale + 1) << threads;
  }
}

TEST(PublishOptionsTest, ValidateBoundsMaxReadThreads) {
  ServeOptions sopt;
  sopt.max_read_threads = 4096;
  EXPECT_TRUE(sopt.Validate().ok());
  sopt.max_read_threads = 4097;
  EXPECT_FALSE(sopt.Validate().ok());
}

// A 1-shard store hands readers its only shard, a GraphSnapshot: matching
// through the routing wrapper loses the matcher's zero-copy candidate
// spans. Wider stores read through the wrapper.
TEST(PublishReadPathTest, OneShardServicesReadAGraphSnapshot) {
  DatasetBundle bundle = KgBundle(/*repaired=*/false);
  const struct {
    size_t threads, shards, want_shards;
  } cases[] = {{1, 0, 1}, {1, 4, 1}, {2, 1, 1}, {2, 2, 2}, {4, 0, 4}};
  for (const auto& c : cases) {
    ServeOptions sopt;
    sopt.num_threads = c.threads;
    sopt.num_shards = c.shards;
    RepairService service(bundle.graph.Clone(), bundle.rules, sopt);
    ASSERT_EQ(service.num_shards(), c.want_shards);
    Rng rng(5);
    for (size_t b = 0; b < 2; ++b) {
      serve::ReadLease lease = service.PinPublished();
      ASSERT_TRUE(lease.valid());
      EXPECT_EQ(lease.view().AsSnapshot() != nullptr, c.want_shards == 1)
          << "threads " << c.threads << " shards " << c.shards;
      EXPECT_EQ(lease->store->NumShards(), c.want_shards);
      lease.Release();
      Graph scratch = service.graph().Clone();
      ASSERT_TRUE(service.ApplyBatch(MutateRandom(&scratch, &rng, 8)).ok());
    }
  }
}

// Publication's store maintenance is visible without a pool: a lease held
// across two commits makes the writer abandon the pinned slot and rebuild
// a fresh one; once it is released, publications patch again. Every
// publication counts exactly one advance.
TEST(PublishLedgerTest, AbandonedSlotsAndPublicationAdvancesAreCounted) {
  DatasetBundle bundle = KgBundle(/*repaired=*/true);
  RepairService service(bundle.graph.Clone(), bundle.rules, ServeOptions());
  Rng rng(21);
  auto commit = [&] {
    Graph scratch = service.graph().Clone();
    ASSERT_TRUE(service.ApplyBatch(MutateRandom(&scratch, &rng, 6)).ok());
  };
  commit();  // both slots built

  serve::ReadLease lease = service.PinPublished();
  const ServiceStats before = service.stats();
  commit();
  commit();
  const ServiceStats held = service.stats();
  EXPECT_GE(held.publish_abandoned, before.publish_abandoned + 1);
  EXPECT_GE(held.publish_rebuilds, before.publish_rebuilds + 1);

  lease.Release();
  commit();
  commit();
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.publish_abandoned, held.publish_abandoned);
  EXPECT_GE(after.publish_patches, held.publish_patches + 1);
  for (const ServiceStats* s : {&before, &held, &after})
    EXPECT_EQ(s->publish_patches + s->publish_rebuilds, s->publishes);

  serve::Session session(&service, serve::SessionMode::kImmediate);
  const std::string metrics = session.HandleLine("metrics");
  EXPECT_NE(metrics.find(StrFormat(
                "grepair_serve_publish_abandoned_total %zu",
                after.publish_abandoned)),
            std::string::npos);
  EXPECT_NE(metrics.find(StrFormat(
                "grepair_serve_publish_advances_total{path=\"patch\"} %zu",
                after.publish_patches)),
            std::string::npos);
  EXPECT_NE(metrics.find(StrFormat(
                "grepair_serve_publish_advances_total{path=\"rebuild\"} %zu",
                after.publish_rebuilds)),
            std::string::npos);
}

// The delta-log retention bound: every publication advances a slot to the
// log end and the other slot lags by at most one commit, so after each
// commit the retained log holds at most what the last two commits
// appended — also while a reader pins retired generations.
class DeltaLogRetention
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(DeltaLogRetention, BoundedByLastTwoCommits) {
  const size_t threads = std::get<0>(GetParam());
  const bool pinned = std::get<1>(GetParam());
  DatasetBundle bundle = KgBundle(/*repaired=*/false);
  ServeOptions sopt;
  sopt.num_threads = threads;
  RepairService service(bundle.graph.Clone(), bundle.rules, sopt);
  const Graph& g = service.graph();
  ASSERT_TRUE(g.DeltaLogEnabled());

  serve::ReadLease lease;
  uint64_t prev_end = g.DeltaLogEnd();
  uint64_t prev_appended = 0;
  Rng rng(77 + threads);
  for (size_t b = 0; b < 9; ++b) {
    // Re-pinned every third commit, so each lease spans three commits.
    if (pinned && b % 3 == 0) lease = service.PinPublished();
    Graph scratch = g.Clone();
    // Alternate small and large batches.
    auto res = service.ApplyBatch(MutateRandom(&scratch, &rng, b % 2 ? 4 : 24));
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const uint64_t end = g.DeltaLogEnd();
    const uint64_t appended = end - prev_end;
    EXPECT_LE(end - g.DeltaLogBegin(), appended + prev_appended)
        << "threads " << threads << " pinned " << pinned << " batch " << b;
    prev_end = end;
    prev_appended = appended;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadsPinned, DeltaLogRetention,
                         ::testing::Combine(::testing::Values(1u, 4u),
                                            ::testing::Bool()),
                         [](const auto& info) {
                           std::string name = "t";
                           name += std::to_string(std::get<0>(info.param));
                           name += std::get<1>(info.param) ? "_pinned"
                                                           : "_unpinned";
                           return name;
                         });

TEST(PublishProtocolTest, ViolationsPagingWindows) {
  DatasetBundle bundle = KgBundle(/*repaired=*/true);
  ServeOptions sopt;
  sopt.max_fixes_per_batch = 1;  // budget cut: backlog persists
  RepairService service(bundle.graph.Clone(), bundle.rules, sopt);

  Rng rng(31);
  Graph scratch = service.graph().Clone();
  ASSERT_TRUE(service.ApplyBatch(MutateRandom(&scratch, &rng, 14)).ok());

  auto all = service.ReadViolations(0, 1'000'000);
  ASSERT_TRUE(all.ok());
  const size_t total = all.value().total;
  ASSERT_GT(total, 0u) << "budget cut should leave a backlog";

  // Page concatenation covers the whole backlog in order.
  std::vector<PublishedViolations::Row> paged;
  for (size_t off = 0; off < total; off += 2) {
    auto page = service.ReadViolations(off, 2);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page.value().offset, off);
    EXPECT_EQ(page.value().total, total);
    for (const auto& row : page.value().rows) paged.push_back(row);
  }
  ASSERT_EQ(paged.size(), all.value().rows.size());
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].rule, all.value().rows[i].rule);
    EXPECT_EQ(paged[i].cost, all.value().rows[i].cost);
  }

  // Past-the-end offsets clamp to an empty page, not an error.
  auto past = service.ReadViolations(total + 100, 10);
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(past.value().rows.size(), 0u);
  EXPECT_EQ(past.value().offset, total);

  serve::Session session(&service, serve::SessionMode::kImmediate);
  EXPECT_EQ(session.HandleLine("violations 0 2").rfind("violations total=", 0),
            0u);
  EXPECT_EQ(session.HandleLine("violations notanum")
                .rfind("err bad_request", 0),
            0u);
  EXPECT_EQ(session.HandleLine("violations 0 0").rfind("err bad_request", 0),
            0u);
  EXPECT_EQ(session.HandleLine("detect a b").rfind("err arity", 0), 0u);
}

}  // namespace
}  // namespace grepair
