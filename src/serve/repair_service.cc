#include "serve/repair_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "graph/graph_io.h"
#include "obs/trace.h"
#include "repair/fix.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "util/strings.h"

namespace grepair {

double ServiceStats::LatencyPercentileMs(double p) const {
  if (batch_ms.empty()) return 0.0;  // no commits in the window yet
  if (std::isnan(p)) return 0.0;     // garbage percentile, not UB
  p = std::min(100.0, std::max(0.0, p));
  // Nearest-rank over the retained window. The ring is UNORDERED once it
  // wraps (newest overwrites oldest in place), so selection must not
  // assume arrival order carries rank: rank-select on a scratch copy.
  // rank = ceil(p/100 * n) clamped to [1, n]; p = 0 maps to the minimum
  // (rank 1), p = 100 to the maximum (rank n).
  std::vector<double> scratch = batch_ms;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 *
                                              static_cast<double>(
                                                  scratch.size())));
  rank = std::max<size_t>(1, std::min(rank, scratch.size()));
  std::nth_element(scratch.begin(), scratch.begin() + (rank - 1),
                   scratch.end());
  return scratch[rank - 1];
}

Status ServeOptions::Validate() const {
  // NaN fails both comparisons' complement, so spell the accept range out.
  if (!(snapshot_rebuild_fraction >= 0.0 &&
        snapshot_rebuild_fraction <= 1.0))
    return Status::InvalidArgument(
        "snapshot_rebuild_fraction must be in [0, 1]");
  if (num_shards > ShardedSnapshot::kMaxShards)
    return Status::InvalidArgument(
        StrFormat("num_shards must be at most %zu",
                  ShardedSnapshot::kMaxShards));
  // size_t cannot be negative, but a "-1" that slipped through an unsigned
  // parse becomes an absurd count — reject it rather than spawning it.
  constexpr size_t kMaxThreads = 4096;
  if (num_threads > kMaxThreads)
    return Status::InvalidArgument(
        StrFormat("num_threads must be at most %zu", kMaxThreads));
  if (max_read_threads > kMaxThreads)
    return Status::InvalidArgument(
        StrFormat("max_read_threads must be at most %zu (0 = unlimited)",
                  kMaxThreads));
  if (listen_port < -1 || listen_port > 65535)
    return Status::InvalidArgument(
        "listen_port must be in [0, 65535] (-1 = stdio)");
  // A cap of 0 would reject every client of a listener that was asked for;
  // the upper bound keeps a mistyped value from exhausting fds/threads.
  constexpr size_t kMaxConnectionCap = 65536;
  if (max_connections == 0 || max_connections > kMaxConnectionCap)
    return Status::InvalidArgument(
        StrFormat("max_connections must be in [1, %zu]", kMaxConnectionCap));
  if (!(max_requests_per_sec >= 0.0 && max_requests_per_sec <= 1e9))
    return Status::InvalidArgument(
        "max_requests_per_sec must be in [0, 1e9] (0 = unlimited)");
  return Status::Ok();
}

RepairService::RepairService(Graph graph, RuleSet rules, ServeOptions options)
    : options_(std::move(options)),
      graph_(std::move(graph)),
      rules_(std::move(rules)),
      clean_mark_(graph_.JournalSize()) {
  Status valid = options_.Validate();
  if (!valid.ok()) throw std::invalid_argument(valid.ToString());

  // Resolve the instrument handles once; every former stats_ field
  // increment now lands on one of these (DESIGN.md "Observability" has the
  // naming scheme). Registration order fixes nothing — exposition sorts by
  // name — but keep it grouped for readers.
  m_batches_ = registry_.GetCounter("grepair_serve_batches_total",
                                    "Committed batches.");
  m_edits_ = registry_.GetCounter("grepair_serve_edits_total",
                                  "Edit ops accepted into the journal.");
  m_op_errors_ = registry_.GetCounter(
      "grepair_serve_op_errors_total",
      "Edit ops rejected (dead ids, bad endpoints).");
  m_violations_detected_ = registry_.GetCounter(
      "grepair_serve_violations_detected_total",
      "Violations newly seeded by batch delta-detection.");
  m_fixes_ = registry_.GetCounter("grepair_serve_fixes_total",
                                  "Cascade fixes applied.");
  m_anchors_ = registry_.GetCounter(
      "grepair_serve_anchors_total",
      "Node + edge anchors induced by committed deltas.");
  m_expansions_ = registry_.GetCounter(
      "grepair_serve_expansions_total",
      "Matcher expansions spent on detection and cascades.");
  m_shard_patches_ = registry_.GetCounter(
      "grepair_shard_patches_total",
      "Store shards a publication advanced by an O(delta) patch.");
  m_shard_rebuilds_ = registry_.GetCounter(
      "grepair_shard_rebuilds_total",
      "Store shards a publication rebuilt from scratch (dirty-shard-only "
      "economics).");
  m_publish_patches_ = registry_.GetCounter(
      "grepair_serve_publish_advances_total",
      "Publications by how the slot reached the committed state.",
      {{"path", "patch"}});
  m_publish_rebuilds_ = registry_.GetCounter(
      "grepair_serve_publish_advances_total",
      "Publications by how the slot reached the committed state.",
      {{"path", "rebuild"}});
  m_publish_abandoned_ = registry_.GetCounter(
      "grepair_serve_publish_abandoned_total",
      "Retired slots still pinned by readers, left to them and replaced by "
      "a fresh slot that rebuilds.");
  m_wal_appends_ = registry_.GetCounter(
      "grepair_wal_appends_total", "Batches appended to the write-ahead log.");
  m_wal_bytes_ = registry_.GetCounter(
      "grepair_wal_bytes_total", "Bytes appended to the WAL, frames included.");
  m_wal_syncs_ = registry_.GetCounter(
      "grepair_wal_syncs_total", "fsyncs issued by the WAL writer.");
  m_wal_append_errors_ = registry_.GetCounter(
      "grepair_wal_append_errors_total",
      "Failed WAL appends; each one rolls the batch back and degrades the "
      "service to read-only.");
  m_checkpoints_ = registry_.GetCounter(
      "grepair_checkpoints_total",
      "Checkpoints written (cadence and baseline).");
  m_checkpoint_errors_ = registry_.GetCounter(
      "grepair_checkpoint_errors_total",
      "Checkpoint attempts that failed (the service degrades to read-only).");
  m_recovery_replayed_ = registry_.GetCounter(
      "grepair_recovery_replayed_batches_total",
      "Complete WAL batches re-committed during startup recovery.");
  m_recovery_truncated_bytes_ = registry_.GetCounter(
      "grepair_recovery_truncated_bytes_total",
      "Torn/corrupt WAL tail bytes truncated during startup recovery.");
  m_recovery_dropped_ = registry_.GetCounter(
      "grepair_recovery_dropped_batches_total",
      "Complete WAL batches dropped after a sequence gap during recovery.");
  m_recovery_corrupt_ckpts_ = registry_.GetCounter(
      "grepair_recovery_corrupt_checkpoints_total",
      "Checkpoints that failed validation and were quarantined.");
  m_read_only_ = registry_.GetGauge(
      "grepair_serve_read_only",
      "1 after a storage failure degraded the service to read-only.");
  m_last_checkpoint_seq_ = registry_.GetGauge(
      "grepair_last_checkpoint_seq",
      "Batch seq covered by the newest checkpoint.");
  m_backlog_ = registry_.GetGauge(
      "grepair_serve_backlog",
      "Violations waiting in the persistent store after the last commit.");
  m_snapshot_mem_ = registry_.GetGauge(
      "grepair_snapshot_memory_bytes",
      "Heap footprint of the publisher's snapshot slots (0 when none).");
  m_published_reads_ = registry_.GetCounter(
      "grepair_serve_published_reads_total",
      "detect/violations requests served lock-free from a published "
      "snapshot generation.");
  m_stale_reads_ = registry_.GetCounter(
      "grepair_serve_stale_reads_total",
      "Read requests refused before pinning a generation (unknown rule, or "
      "shed by the max_read_threads gate).");
  m_published_generation_ = registry_.GetGauge(
      "grepair_serve_published_generation",
      "Generation number of the snapshot readers currently pin (0 before "
      "the first publication).");
  m_commit_ms_ = registry_.GetHistogram(
      "grepair_serve_commit_ms", "Whole-commit latency (detect + cascades).",
      obs::DefaultLatencyBucketsMs());
  m_detect_ms_ = registry_.GetHistogram(
      "grepair_serve_detect_ms", "Seed detection latency.",
      obs::DefaultLatencyBucketsMs());
  m_publish_ms_ = registry_.GetHistogram(
      "grepair_serve_publish_ms",
      "Generation publication latency (slot advance + backlog copy + "
      "pointer flip); count is the publication ledger.",
      obs::DefaultLatencyBucketsMs());
  m_read_ms_ = registry_.GetHistogram(
      "grepair_serve_read_ms",
      "Published read latency (detect / violations verbs).",
      obs::DefaultLatencyBucketsMs());
  if (options_.num_threads != 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    num_shards_ = options_.num_shards == 0 ? pool_->NumThreads()
                                           : options_.num_shards;
    num_shards_ = std::min(num_shards_, ShardedSnapshot::kMaxShards);
  }
  // Physical deltas for incremental maintenance of the published stores.
  graph_.EnableDeltaLog();
  // Eager first publication: readers can pin the constructed state before
  // any batch commits. The first commit's publication finds the other slot
  // empty and builds it too.
  PublishGeneration(0);
}

storage::Fs* RepairService::StateFs() const {
  return options_.wal_fs != nullptr ? options_.wal_fs
                                    : storage::RealFs::Default();
}

uint64_t RepairService::NowMs() const {
  if (options_.clock_ms) return options_.clock_ms();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RepairService::EnterReadOnly(const std::string& why) {
  if (read_only_) return;
  read_only_ = true;
  m_read_only_->Set(1);
  std::fprintf(stderr, "grepair: service entering read-only mode: %s\n",
               why.c_str());
}

void RepairService::SyncWalInstruments() {
  if (wal_ == nullptr) return;
  m_wal_appends_->Add(wal_->appends() - seen_wal_appends_);
  m_wal_bytes_->Add(wal_->bytes_appended() - seen_wal_bytes_);
  m_wal_syncs_->Add(wal_->syncs() - seen_wal_syncs_);
  seen_wal_appends_ = wal_->appends();
  seen_wal_bytes_ = wal_->bytes_appended();
  seen_wal_syncs_ = wal_->syncs();
}

ParallelRunner RepairService::ShardRunner() const {
  if (pool_ == nullptr || pool_->NumThreads() <= 1) return {};
  return [this](size_t n, const std::function<void(size_t)>& fn) {
    pool_->ParallelFor(n, fn);
  };
}

void RepairService::PublishGeneration(uint64_t batch) {
  OBS_SPAN("commit.publish");
  obs::Stopwatch t;
  serve::Generation* slot = publisher_.Writable();
  // Abandonment happens in Writable(), when the slot it would recycle is
  // still pinned.
  m_publish_abandoned_->Add(publisher_.abandoned() - seen_abandoned_);
  seen_abandoned_ = publisher_.abandoned();
  ShardedSnapshot::AdvanceStats adv;
  if (!slot->has_store() || slot->watermark < graph_.DeltaLogBegin()) {
    // Nothing to patch from: a fresh or abandoned slot, or one from an
    // older epoch whose store Writable() dropped.
    slot->store = std::make_unique<ShardedSnapshot>(graph_, num_shards_,
                                                    ShardRunner());
    adv.shards_rebuilt = num_shards_;
  } else {
    // The patch-or-rebuild decision is PER SHARD inside Advance: clean
    // shards are untouched, lightly dirty shards patch, and a shard past
    // its own fraction rebuilds alone, all fanned out over the pool. The
    // whole advance counts as a patch only when no shard had to rebuild.
    auto [records, count] = graph_.DeltaLogSince(slot->watermark);
    adv = slot->store->Advance(graph_, records, count,
                               options_.snapshot_rebuild_fraction,
                               ShardRunner());
  }
  slot->watermark = graph_.DeltaLogEnd();
  m_shard_patches_->Add(adv.shards_patched);
  m_shard_rebuilds_->Add(adv.shards_rebuilt);
  (adv.shards_rebuilt == 0 ? m_publish_patches_ : m_publish_rebuilds_)->Add(1);
  // The backlog page source holds only violations that still hold on the
  // committed graph: the store invalidates lazily, so an entry a later edit
  // ended stays in it until PopBest re-verifies it. The SaveState sort
  // order makes two replicas at the same batch page identically.
  std::vector<Violation> backlog;
  const SymbolId conf = ConfAttr();
  for (Violation& v : store_.Snapshot()) {
    if (CheapestLiveAlternative(graph_, rules_[v.rule], v.alternatives,
                                options_.cost_model, conf) != nullptr)
      backlog.push_back(std::move(v));
  }
  std::sort(backlog.begin(), backlog.end(),
            [](const Violation& a, const Violation& b) {
              if (a.rule != b.rule) return a.rule < b.rule;
              if (a.alternatives.front().nodes != b.alternatives.front().nodes)
                return a.alternatives.front().nodes <
                       b.alternatives.front().nodes;
              return a.alternatives.front().edges <
                     b.alternatives.front().edges;
            });
  publisher_.Publish(batch, std::move(backlog));
  m_published_generation_->Set(
      static_cast<int64_t>(publisher_.CurrentGeneration()));
  TrimConsumedDeltaLog();
  m_publish_ms_->Observe(t.ElapsedMs());
}

void RepairService::TrimConsumedDeltaLog() {
  // Every commit moves the writable slot to log_end at publication, so the
  // laggard (the slot retired by the previous publish) is at most one
  // commit behind: keep records back to the oldest valid watermark and let
  // Advance's per-shard budget decide patch vs rebuild when they are
  // consumed. A slot from an older epoch (or already trimmed past) holds
  // no claim.
  const uint64_t log_begin = graph_.DeltaLogBegin();
  const uint64_t log_end = graph_.DeltaLogEnd();
  uint64_t keep_from = log_end;
  publisher_.ForEachSlot([&](const serve::Generation& s) {
    if (!s.has_store()) return;
    if (s.epoch != publisher_.current_epoch()) return;
    if (s.watermark < log_begin || s.watermark > log_end) return;
    keep_from = std::min(keep_from, s.watermark);
  });
  graph_.TrimDeltaLog(keep_from);
}

const ServiceStats& RepairService::stats() const {
  // Materialize the view from the registry instruments — the counters ARE
  // the bookkeeping now; this struct is how callers that predate the
  // registry (tests, the stats verb) keep reading them.
  ServiceStats& s = stats_view_;
  s.batches = m_batches_->Value();
  s.edits = m_edits_->Value();
  s.op_errors = m_op_errors_->Value();
  s.violations_detected = m_violations_detected_->Value();
  s.violations_repaired = m_fixes_->Value();
  s.anchors_visited = m_anchors_->Value();
  s.expansions = m_expansions_->Value();
  s.shard_patches = m_shard_patches_->Value();
  s.shard_rebuilds = m_shard_rebuilds_->Value();
  s.publish_patches = m_publish_patches_->Value();
  s.publish_rebuilds = m_publish_rebuilds_->Value();
  s.publish_abandoned = m_publish_abandoned_->Value();
  s.read_only = read_only_;
  s.wal_appends = m_wal_appends_->Value();
  s.wal_bytes = m_wal_bytes_->Value();
  s.wal_syncs = m_wal_syncs_->Value();
  s.wal_append_errors = m_wal_append_errors_->Value();
  s.checkpoints = m_checkpoints_->Value();
  s.last_checkpoint_seq =
      static_cast<size_t>(m_last_checkpoint_seq_->Value());
  s.recovery_replayed_batches = m_recovery_replayed_->Value();
  s.batch_ms = latency_ring_;
  s.published_generation =
      static_cast<size_t>(publisher_.CurrentGeneration());
  s.publishes = m_publish_ms_->Count();
  s.publish_ms = m_publish_ms_->Sum();
  s.published_reads = m_published_reads_->Value();
  s.stale_reads = m_stale_reads_->Value();
  // Lazily priced: MemoryBytes walks every attribute map, which must not
  // ride the per-commit hot path. Rolls up across the publisher's slots
  // (and their shards when the store is sharded). The gauge keeps the
  // Prometheus exposition in step with the view.
  s.snapshot_memory_bytes = publisher_.MemoryBytes();
  m_snapshot_mem_->Set(static_cast<int64_t>(s.snapshot_memory_bytes));
  return s;
}

SymbolId RepairService::ConfAttr() const {
  // Lookup-only, never Intern: detection runs on pool threads reading the
  // vocabulary concurrently (see RepairEngine::ConfAttr).
  if (options_.confidence_attr.empty()) return 0;
  SymbolId id;
  if (!graph_.vocab()->lookup_only().Attr(options_.confidence_attr, &id))
    return 0;
  return id;
}

Result<EditApplied> RepairService::ApplyEdit(const EditEntry& op) {
  OBS_SPAN("serve.edit");
  if (read_only_)
    return Status::IoError(
        "service is read-only after a storage failure; restart to recover");
  EditApplied out;
  Status st;
  switch (op.kind) {
    case EditKind::kAddNode:
      out.node = graph_.AddNode(op.label);
      break;
    case EditKind::kRemoveNode:
      st = graph_.RemoveNode(op.node);
      break;
    case EditKind::kAddEdge: {
      auto added = graph_.AddEdge(op.src, op.dst, op.label);
      if (!added.ok()) {
        st = added.status();
        break;
      }
      out.edge = added.value();
      break;
    }
    case EditKind::kRemoveEdge:
      st = graph_.RemoveEdge(op.edge);
      break;
    case EditKind::kSetNodeLabel:
      st = graph_.SetNodeLabel(op.node, op.new_sym);
      break;
    case EditKind::kSetEdgeLabel:
      st = graph_.SetEdgeLabel(op.edge, op.new_sym);
      break;
    case EditKind::kSetNodeAttr:
      st = graph_.SetNodeAttr(op.node, op.attr, op.new_sym);
      break;
    case EditKind::kSetEdgeAttr:
      st = graph_.SetEdgeAttr(op.edge, op.attr, op.new_sym);
      break;
  }
  if (!st.ok()) {
    m_op_errors_->Add(1);
    return st;
  }
  m_edits_->Add(1);
  return out;
}

Status RepairService::AppendBatchToWal(uint64_t seq) {
  OBS_SPAN("commit.wal");
  storage::WalBatch b;
  b.seq = seq;
  // Symbols interned since the last append (by session parsing, ahead of
  // the edits that reference them) ride along so replay can re-intern them
  // at identical ids — WAL records store raw SymbolIds.
  const Vocabulary& v = *graph_.vocab();
  for (size_t i = logged_labels_; i < v.NumLabels(); ++i)
    b.symbols.push_back(
        {0, static_cast<uint32_t>(i), v.LabelName(static_cast<SymbolId>(i))});
  for (size_t i = logged_attrs_; i < v.NumAttrs(); ++i)
    b.symbols.push_back(
        {1, static_cast<uint32_t>(i), v.AttrName(static_cast<SymbolId>(i))});
  for (size_t i = logged_values_; i < v.NumValues(); ++i)
    b.symbols.push_back(
        {2, static_cast<uint32_t>(i), v.ValueName(static_cast<SymbolId>(i))});
  b.records.assign(graph_.Journal().begin() + clean_mark_,
                   graph_.Journal().end());
  GREPAIR_RETURN_IF_ERROR(wal_->AppendBatch(b, NowMs()));
  logged_labels_ = v.NumLabels();
  logged_attrs_ = v.NumAttrs();
  logged_values_ = v.NumValues();
  SyncWalInstruments();
  return Status::Ok();
}

Result<BatchResult> RepairService::Commit() {
  OBS_SPAN("commit");
  if (read_only_)
    return Status::IoError(
        "service is read-only after a storage failure; restart to recover");
  obs::Stopwatch total;
  BatchResult res;
  res.batch = m_batches_->Value() + 1;
  res.edits = PendingEdits();
  SymbolId conf = ConfAttr();

  // Durability: the batch's client edits go to the WAL (and the device,
  // per policy) BEFORE detection/cascades run, so an acked batch line
  // implies a durable batch. A failed append REJECTS the batch — the
  // staged edits roll back and the service degrades to read-only rather
  // than silently diverging from its log.
  if (wal_ != nullptr && !replaying_) {
    Status appended = AppendBatchToWal(res.batch);
    if (!appended.ok()) {
      m_wal_append_errors_->Add(1);
      Status undone = graph_.UndoTo(clean_mark_);
      EnterReadOnly("wal append failed: " + appended.message() +
                    (undone.ok() ? "" : "; rollback also failed: " +
                                            undone.message()));
      return Status::IoError("wal append failed: " + appended.message());
    }
  }

  DeltaAnchors anchors;
  if (!rules_.empty()) {  // with no rule to search, the delta anchors nothing
    OBS_SPAN("commit.delta");
    anchors = ComputeDeltaAnchors(
        graph_, std::span(graph_.Journal()).subspan(clean_mark_));
    res.anchor_nodes = anchors.nodes.size();
    res.anchor_edges = anchors.edges.size();
  }

  // Seed: the RunDelta seeding, on this thread.
  const size_t backlog = store_.Size();  // budget-cut leftovers, if any
  {
    OBS_SPAN("commit.detect");
    obs::Stopwatch t;
    DetectDelta(graph_, rules_, anchors, &store_, options_.cost_model, conf,
                &res.expansions);
    res.detect_ms = t.ElapsedMs();
    m_detect_ms_->Observe(res.detect_ms);
  }
  res.violations = store_.Size();

  // Cascade: drain greedily, re-detecting sequentially around each fix —
  // the same loop as RepairEngine::RunGreedy in dynamic mode, so a commit
  // is bit-identical to RunDelta over the same slice.
  OBS_SPAN("commit.cascade");
  Violation v;
  for (;;) {
    if (res.fixes >= options_.max_fixes_per_batch && !store_.Empty()) {
      res.budget_exhausted = true;
      break;
    }
    if (!store_.PopBest(&v)) break;
    const Rule& rule = rules_[v.rule];
    const Match* best = CheapestLiveAlternative(graph_, rule, v.alternatives,
                                                options_.cost_model, conf);
    if (best == nullptr) continue;  // stale violation

    size_t mark = graph_.JournalSize();
    auto applied = ApplyFix(&graph_, v.rule, rule, *best);
    if (!applied.ok()) continue;  // defensive: verified matches must apply
    ++res.fixes;

    DetectDelta(graph_, rules_,
                ComputeDeltaAnchors(graph_,
                                    std::span(graph_.Journal()).subspan(mark)),
                &store_, options_.cost_model, conf, &res.expansions);
  }

  clean_mark_ = graph_.JournalSize();
  res.total_ms = total.ElapsedMs();

  m_batches_->Add(1);
  // Only newly seeded violations count as detected; backlog re-reported by
  // res.violations was already counted by the batch that found it.
  m_violations_detected_->Add(res.violations - backlog);
  m_fixes_->Add(res.fixes);
  m_anchors_->Add(res.anchor_nodes + res.anchor_edges);
  m_expansions_->Add(res.expansions);
  m_commit_ms_->Observe(res.total_ms);
  m_backlog_->Set(static_cast<int64_t>(store_.Size()));
  // Exact percentiles want raw samples, which histogram buckets quantize
  // away — the bounded ring survives the registry refactor for that.
  const uint64_t batches = m_batches_->Value();
  if (latency_ring_.size() < ServiceStats::kLatencyWindow)
    latency_ring_.push_back(res.total_ms);
  else
    latency_ring_[(batches - 1) % ServiceStats::kLatencyWindow] =
        res.total_ms;

  // Publication point: the batch has fully landed (cascades drained or
  // budget-cut, counters settled), so expose it to the lock-free readers.
  // Everything a reader can observe — store, backlog — is frozen before
  // the atomic flip; concurrent readers keep the previous generation until
  // it happens and see exactly one committed boundary either way.
  PublishGeneration(res.batch);

  // Cadence checkpoint: absolute seq multiples, so a replay knows to
  // re-execute the id-compacting state swap at exactly these points. The
  // batch itself is already durable and committed — a failed checkpoint
  // degrades the service but still acks the batch.
  if (wal_ != nullptr && !replaying_ && options_.checkpoint_every > 0 &&
      res.batch % options_.checkpoint_every == 0) {
    Status ckpt = CheckpointNow(/*baseline=*/false);
    if (!ckpt.ok()) {
      m_checkpoint_errors_->Add(1);
      EnterReadOnly("checkpoint failed: " + ckpt.message());
    }
  }
  return res;
}

// ------------------------------------------------- state persistence
// File layout (line-oriented, TSV-compatible with graph_io):
//   # comments
//   L/K/W <name>       the vocabulary dump: every label / attr name /
//                      value in id order (id 0, the empty string, is
//                      implicit). Interning these in order before parsing
//                      the rest reproduces the writing process's symbol
//                      ids exactly — what makes raw SymbolIds in WAL
//                      records valid against a reloaded checkpoint.
//   N/E ...            the graph (SerializeGraph format)
//   V <rule> <cost>    one backlog violation (cost = best_cost)
//   A <k> <node ids...> <m> <edge ids...>   one alternative match of the
//                      preceding V, ids already in the reloaded id space
namespace {

// ParseGraph assigns fresh dense ids in serialization order (alive
// elements, ascending), so the reloaded id of an element is its rank among
// the alive ids of its kind.
template <typename Id>
std::unordered_map<Id, Id> RankMap(const std::vector<Id>& alive_ascending) {
  std::unordered_map<Id, Id> rank;
  rank.reserve(alive_ascending.size());
  for (size_t i = 0; i < alive_ascending.size(); ++i)
    rank[alive_ascending[i]] = static_cast<Id>(i);
  return rank;
}

}  // namespace

std::string RepairService::SerializeServiceState() const {
  std::unordered_map<NodeId, NodeId> node_rank = RankMap(graph_.Nodes());
  std::unordered_map<EdgeId, EdgeId> edge_rank = RankMap(graph_.Edges());

  // Backlog with ids translated to the reloaded space; alternatives that
  // reference dead elements cannot be expressed there and are dropped (the
  // cascade loop's re-verify would discard them on pop anyway).
  struct SavedViolation {
    RuleId rule;
    double cost;
    std::vector<Match> alternatives;
  };
  std::vector<SavedViolation> backlog;
  for (const Violation& v : store_.Snapshot()) {
    SavedViolation sv;
    sv.rule = v.rule;
    sv.cost = v.best_cost;
    for (const Match& alt : v.alternatives) {
      Match translated;
      bool live = true;
      for (NodeId n : alt.nodes) {
        auto it = node_rank.find(n);
        if (it == node_rank.end() || !graph_.NodeAlive(n)) {
          live = false;
          break;
        }
        translated.nodes.push_back(it->second);
      }
      for (EdgeId e : alt.edges) {
        auto it = edge_rank.find(e);
        if (!live || it == edge_rank.end() || !graph_.EdgeAlive(e)) {
          live = false;
          break;
        }
        translated.edges.push_back(it->second);
      }
      if (live) sv.alternatives.push_back(std::move(translated));
    }
    if (!sv.alternatives.empty()) backlog.push_back(std::move(sv));
  }
  // Deterministic file order (Snapshot() iterates a hash map).
  std::sort(backlog.begin(), backlog.end(),
            [](const SavedViolation& a, const SavedViolation& b) {
              if (a.rule != b.rule) return a.rule < b.rule;
              if (a.alternatives.front().nodes != b.alternatives.front().nodes)
                return a.alternatives.front().nodes <
                       b.alternatives.front().nodes;
              return a.alternatives.front().edges <
                     b.alternatives.front().edges;
            });

  std::string out = "# grepair service state v1\n";
  const Vocabulary& v = *graph_.vocab();
  for (size_t i = 1; i < v.NumLabels(); ++i)
    out += "L\t" + v.LabelName(static_cast<SymbolId>(i)) + "\n";
  for (size_t i = 1; i < v.NumAttrs(); ++i)
    out += "K\t" + v.AttrName(static_cast<SymbolId>(i)) + "\n";
  for (size_t i = 1; i < v.NumValues(); ++i)
    out += "W\t" + v.ValueName(static_cast<SymbolId>(i)) + "\n";
  out += SerializeGraph(graph_);
  for (const SavedViolation& sv : backlog) {
    out += StrFormat("V\t%u\t%.17g\n", sv.rule, sv.cost);
    for (const Match& alt : sv.alternatives) {
      out += StrFormat("A\t%zu", alt.nodes.size());
      for (NodeId n : alt.nodes) out += StrFormat("\t%u", n);
      out += StrFormat("\t%zu", alt.edges.size());
      for (EdgeId e : alt.edges) out += StrFormat("\t%u", e);
      out += "\n";
    }
  }
  return out;
}

Status RepairService::SaveState(const std::string& path) {
  if (PendingEdits() > 0) {
    auto committed = Commit();
    if (!committed.ok()) return committed.status();
  }
  // Temp file + fsync + atomic rename: a crash mid-save never replaces a
  // previous good state file with a torn one.
  return storage::WriteFileAtomic(StateFs(), path, SerializeServiceState());
}

Status RepairService::LoadServiceState(const std::string& text,
                                       const std::string& origin) {
  const std::string& path = origin;  // error-message label
  // Split vocabulary and graph lines from violation lines.
  size_t next_label = 1, next_attr = 1, next_value = 1;
  std::string graph_text;
  struct PendingViolation {
    RuleId rule;
    double cost;
    std::vector<Match> alternatives;
  };
  std::vector<PendingViolation> backlog;
  size_t line_no = 0;
  for (const auto& raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw);
    auto err = [&](const std::string& what) {
      return Status::ParseError(
          StrFormat("%s line %zu: %s", path.c_str(), line_no, what.c_str()));
    };
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == 'N' || line[0] == 'E') {
      graph_text += std::string(line) + "\n";
      continue;
    }
    auto fields = Split(line, '\t');
    if (fields[0] == "L" || fields[0] == "K" || fields[0] == "W") {
      if (fields.size() != 2) return err("bad vocabulary record");
      // Interning straight into the live (shared) vocabulary is safe even
      // when a later line fails validation: it is append-only, so extra
      // symbols are inert. Each entry must land on its dumped id — drift
      // means the service was built from different --graph/--rules than
      // the one that wrote this state, and every raw SymbolId in it (and
      // in any WAL tail about to replay) would silently mean something
      // else.
      SymbolId got;
      size_t expect;
      if (fields[0] == "L") {
        got = graph_.vocab()->Label(fields[1]);
        expect = next_label++;
      } else if (fields[0] == "K") {
        got = graph_.vocab()->Attr(fields[1]);
        expect = next_attr++;
      } else {
        got = graph_.vocab()->Value(fields[1]);
        expect = next_value++;
      }
      if (got != expect)
        return err(StrFormat(
            "vocabulary drift: '%s' interned as %u where %zu expected (was "
            "the service built from the same --graph/--rules?)",
            fields[1].c_str(), got, expect));
      continue;
    }
    if (fields[0] == "V") {
      if (fields.size() != 3) return err("bad V record");
      PendingViolation pv;
      uint64_t rule = 0;
      if (!ParseUint64(fields[1], &rule) || rule >= rules_.size())
        return err("bad rule id");
      pv.rule = static_cast<RuleId>(rule);
      if (!ParseDouble(fields[2], &pv.cost)) return err("bad cost");
      backlog.push_back(std::move(pv));
    } else if (fields[0] == "A") {
      if (backlog.empty()) return err("A record before any V record");
      if (fields.size() < 3) return err("bad A record");
      Match m;
      size_t idx = 1;
      uint64_t count = 0, id = 0;
      // Reject ids that don't fit the 32-bit id space BEFORE the
      // static_cast: truncation could alias a live element and defeat the
      // validated-before-swap guarantee.
      if (!ParseUint64(fields[idx++], &count)) return err("bad node count");
      for (uint64_t i = 0; i < count; ++i) {
        if (idx >= fields.size() || !ParseUint64(fields[idx++], &id) ||
            id >= kInvalidNode)
          return err("bad node id");
        m.nodes.push_back(static_cast<NodeId>(id));
      }
      if (idx >= fields.size() || !ParseUint64(fields[idx++], &count))
        return err("bad edge count");
      for (uint64_t i = 0; i < count; ++i) {
        if (idx >= fields.size() || !ParseUint64(fields[idx++], &id) ||
            id >= kInvalidEdge)
          return err("bad edge id");
        m.edges.push_back(static_cast<EdgeId>(id));
      }
      if (idx != fields.size()) return err("trailing fields in A record");
      const Pattern& p = rules_[backlog.back().rule].pattern();
      if (m.nodes.size() != p.NumNodes() || m.edges.size() != p.NumEdges())
        return err("match arity does not fit the rule's pattern");
      backlog.back().alternatives.push_back(std::move(m));
    } else {
      return err("unknown record type '" + std::string(fields[0]) + "'");
    }
  }

  auto parsed = ParseGraph(graph_text, graph_.vocab());
  if (!parsed.ok()) return parsed.status();
  Graph restored = std::move(parsed).value();
  // The parse journal is construction noise, not user edits; the restored
  // state is clean by definition (SaveState commits first).
  restored.ResetJournal();
  for (const PendingViolation& pv : backlog) {
    for (const Match& alt : pv.alternatives) {
      for (NodeId nid : alt.nodes)
        if (!restored.NodeAlive(nid))
          return Status::ParseError(
              StrFormat("%s: violation references dead node %u",
                        path.c_str(), nid));
      for (EdgeId eid : alt.edges)
        if (!restored.EdgeAlive(eid))
          return Status::ParseError(
              StrFormat("%s: violation references dead edge %u",
                        path.c_str(), eid));
    }
  }

  // Point of no return: every record validated, swap the state in. The
  // publisher's slot stores mirror the OLD graph — and their watermarks
  // the old delta log — so a new epoch invalidates them for WRITER reuse
  // (the next advance rebuilds from scratch) while the published
  // generation keeps serving the consistent pre-swap state to any pinned
  // reader until the republication below atomically replaces it. A reader
  // therefore never observes a half-restored store.
  graph_ = std::move(restored);
  graph_.EnableDeltaLog();
  publisher_.BeginNewEpoch();
  clean_mark_ = 0;
  store_.Clear();
  for (const PendingViolation& pv : backlog)
    for (const Match& alt : pv.alternatives)
      store_.Add(pv.rule, alt, pv.cost);
  // Everything the vocabulary now holds is covered by this state (its dump
  // plus the construction prefix it verified), so the next WAL append
  // starts its symbol frames here.
  logged_labels_ = graph_.vocab()->NumLabels();
  logged_attrs_ = graph_.vocab()->NumAttrs();
  logged_values_ = graph_.vocab()->NumValues();
  // Atomic republication of the restored state (every LoadServiceState
  // caller — restore, checkpoint swap, recovery — swaps to a committed
  // boundary, so publishing here keeps the reader-visible sequence at
  // committed boundaries only).
  PublishGeneration(m_batches_->Value());
  return Status::Ok();
}

Status RepairService::RestoreState(const std::string& path) {
  if (read_only_)
    return Status::IoError(
        "service is read-only after a storage failure; restart to recover");
  // The staged-edits rule: a restore while edits are journaled-but-
  // uncommitted is ambiguous (discard them? commit them onto the restored
  // state?), so it is refused outright — protocol code `staged_edits`.
  if (PendingEdits() > 0)
    return Status::FailedPrecondition(
        StrFormat("%zu staged edit(s) pending; commit before restore",
                  PendingEdits()));
  auto text = StateFs()->ReadFile(path);
  if (!text.ok()) return text.status();
  GREPAIR_RETURN_IF_ERROR(LoadServiceState(text.value(), path));
  // The restore itself is a state swap no WAL replay could reproduce, so
  // under durability history re-anchors on a baseline checkpoint of the
  // restored state. Its failure degrades the service: the restore already
  // happened in memory, but it is not durable.
  if (wal_ != nullptr) {
    Status ckpt = CheckpointNow(/*baseline=*/true);
    if (!ckpt.ok()) {
      m_checkpoint_errors_->Add(1);
      EnterReadOnly("post-restore checkpoint failed: " + ckpt.message());
      return Status::IoError("restored in memory, but the re-anchoring "
                             "checkpoint failed: " +
                             ckpt.message());
    }
  }
  return Status::Ok();
}

Status RepairService::SwapState() {
  std::string payload = SerializeServiceState();
  Status st = LoadServiceState(payload, "<state swap>");
  if (!st.ok())
    return Status::Internal("state failed to survive its own serialize/load "
                            "round trip: " +
                            st.ToString());
  return Status::Ok();
}

Status RepairService::CheckpointNow(bool baseline) {
  if (wal_ == nullptr)
    return Status::FailedPrecondition("durability is not open");
  if (PendingEdits() > 0)
    return Status::FailedPrecondition(
        "checkpoint with uncommitted edits staged");
  OBS_SPAN("serve.checkpoint");
  const uint64_t seq = m_batches_->Value();
  std::string payload = SerializeServiceState();
  GREPAIR_RETURN_IF_ERROR(
      storage::WriteCheckpoint(StateFs(), options_.wal_dir, seq, payload));
  // The swap: load our own payload, compacting ids exactly the way a
  // recovery that starts from this checkpoint will. Live state and
  // recovered state converge by construction (DESIGN.md "Durability").
  Status swapped = LoadServiceState(payload, "<checkpoint swap>");
  if (!swapped.ok())
    return Status::Internal(
        "checkpoint payload failed to reload: " + swapped.ToString());
  GREPAIR_RETURN_IF_ERROR(wal_->Rotate(seq + 1));
  // A baseline re-anchors history (recovery/restore swap points a replay
  // could not reproduce): everything older is unsound to fall back to.
  storage::TrimStorageDir(StateFs(), options_.wal_dir, baseline ? 1 : 2);
  m_checkpoints_->Add(1);
  m_last_checkpoint_seq_->Set(static_cast<int64_t>(seq));
  SyncWalInstruments();
  return Status::Ok();
}

Result<RecoveryInfo> RepairService::OpenDurability() {
  RecoveryInfo info;
  if (options_.wal_dir.empty()) return info;
  if (wal_ != nullptr)
    return Status::FailedPrecondition("durability is already open");
  if (m_batches_->Value() != 0 || PendingEdits() > 0)
    return Status::FailedPrecondition(
        "OpenDurability must run before the first commit");
  storage::Fs* fs = StateFs();
  GREPAIR_RETURN_IF_ERROR(fs->CreateDir(options_.wal_dir));
  GREPAIR_ASSIGN_OR_RETURN(storage::RecoveryPlan plan,
                           storage::PlanRecovery(fs, options_.wal_dir));
  info.durable = true;
  info.recovered_from_checkpoint = plan.found_checkpoint;
  info.checkpoint_seq = plan.checkpoint_seq;
  info.truncated_bytes = plan.truncated_bytes;
  info.dropped_batches = plan.dropped_batches;
  info.corrupt_checkpoints = plan.corrupt_checkpoints;

  if (plan.found_checkpoint) {
    GREPAIR_RETURN_IF_ERROR(LoadServiceState(
        plan.checkpoint_payload,
        options_.wal_dir + "/" + storage::CheckpointName(plan.checkpoint_seq)));
    m_batches_->Add(plan.checkpoint_seq);
  }

  // Replay the WAL tail through the NORMAL commit path: detection and
  // cascade fixes are recomputed (they are not logged — the engine is
  // bit-identical across thread/shard counts), and each replayed batch
  // must land on its logged seq or the replay is declared diverged rather
  // than silently partial. Cadence state swaps re-execute at the same
  // absolute seqs the original checkpointed at.
  replaying_ = true;
  auto diverged = [this](std::string why) {
    replaying_ = false;
    return Status::DataLoss("replay diverged: " + std::move(why));
  };
  for (const storage::WalBatch& batch : plan.batches) {
    for (const storage::WalSymDef& s : batch.symbols) {
      SymbolId got = s.dict == 0   ? graph_.vocab()->Label(s.name)
                     : s.dict == 1 ? graph_.vocab()->Attr(s.name)
                                   : graph_.vocab()->Value(s.name);
      if (got != s.id)
        return diverged(StrFormat(
            "symbol '%s' re-interned as %u, wal batch %llu says %u (was the "
            "service built from the same --graph/--rules?)",
            s.name.c_str(), got, (unsigned long long)batch.seq, s.id));
    }
    for (const EditEntry& rec : batch.records) {
      auto applied = ApplyEdit(rec);
      if (!applied.ok())
        return diverged(StrFormat("batch %llu record rejected: %s",
                                  (unsigned long long)batch.seq,
                                  applied.status().ToString().c_str()));
    }
    auto res = Commit();
    if (!res.ok()) {
      replaying_ = false;
      return res.status();
    }
    if (res.value().batch != batch.seq)
      return diverged(StrFormat("commit landed on seq %zu, wal says %llu",
                                res.value().batch,
                                (unsigned long long)batch.seq));
    if (options_.checkpoint_every > 0 &&
        batch.seq % options_.checkpoint_every == 0) {
      Status swapped = SwapState();
      if (!swapped.ok()) {
        replaying_ = false;
        return swapped;
      }
    }
  }
  replaying_ = false;
  info.replayed_batches = plan.batches.size();
  m_recovery_replayed_->Add(plan.batches.size());
  m_recovery_truncated_bytes_->Add(plan.truncated_bytes);
  m_recovery_dropped_->Add(plan.dropped_batches);
  m_recovery_corrupt_ckpts_->Add(plan.corrupt_checkpoints);
  for (const std::string& note : plan.notes)
    std::fprintf(stderr, "grepair: recovery: %s\n", note.c_str());

  GREPAIR_ASSIGN_OR_RETURN(
      wal_, storage::WalWriter::Open(fs, options_.wal_dir, plan.next_seq,
                                     options_.fsync_policy,
                                     options_.fsync_interval_ms));
  // Baseline re-anchor: a fresh directory gets its seq-0 checkpoint (so
  // recovery never depends on --graph again), and a recovered one stops
  // depending on the history just replayed.
  Status ckpt = CheckpointNow(/*baseline=*/true);
  if (!ckpt.ok()) {
    wal_.reset();
    return ckpt;
  }
  SyncWalInstruments();
  return info;
}

// ------------------------------------------------- published read path
// Everything below runs on READER threads, concurrently with the writer.
// The rules it lives by: pin first (publisher mutex, pointer work only),
// then touch ONLY the pinned generation, the immutable rule set / options,
// and thread-safe instruments — never graph_, store_, the vocabulary, or
// any writer-side cache.

namespace {

// RAII in-flight ticket against the max_read_threads gate. The counter is
// advisory (relaxed): an over-admit under a race sheds the next request
// instead, which is the right failure direction for load shedding.
class InflightRead {
 public:
  InflightRead(std::atomic<int64_t>* counter, size_t cap) : counter_(counter) {
    const int64_t n = counter_->fetch_add(1, std::memory_order_relaxed) + 1;
    admitted_ = cap == 0 || n <= static_cast<int64_t>(cap);
  }
  ~InflightRead() { counter_->fetch_sub(1, std::memory_order_relaxed); }
  InflightRead(const InflightRead&) = delete;
  InflightRead& operator=(const InflightRead&) = delete;
  bool admitted() const { return admitted_; }

 private:
  std::atomic<int64_t>* counter_;
  bool admitted_ = false;
};

}  // namespace

Result<PublishedDetect> RepairService::DetectPublished(
    const std::string& rule_filter) const {
  OBS_SPAN("read.detect");
  InflightRead ticket(&active_reads_, options_.max_read_threads);
  if (!ticket.admitted()) {
    m_stale_reads_->Add(1);
    return Status::ResourceExhausted("read capacity exhausted");
  }
  // Filter resolution by plain string compare — the vocabulary is mutable
  // under the writer (session parsing interns), so readers never touch it.
  if (!rule_filter.empty()) {
    bool known = false;
    for (RuleId r = 0; r < rules_.size() && !known; ++r)
      known = rules_[r].name() == rule_filter;
    if (!known) {
      m_stale_reads_->Add(1);
      return Status::NotFound("unknown rule '" + rule_filter + "'");
    }
  }
  serve::ReadLease lease = publisher_.Pin();
  obs::Stopwatch t;
  const GraphView& view = lease.view();
  // Mirror the offline `grepair detect` pass exactly — matches folded into
  // violations by a local store, default cost model, no confidence
  // weighting (the DetectAll contract) — so the verb's counts are
  // bit-identical to the CLI's against the same committed batch.
  ViolationStore folded;
  PublishedDetect out;
  out.generation = lease->generation;
  out.batch = lease->batch;
  for (RuleId r = 0; r < rules_.size(); ++r) {
    if (!rule_filter.empty() && rules_[r].name() != rule_filter) continue;
    Matcher matcher(view, rules_[r].pattern());
    MatchOptions opts;
    MatchStats st = matcher.FindAll(opts, [&](const Match& m) {
      folded.Add(r, m, FixCost(view, rules_[r], m, CostModel{}, 0));
      return true;
    });
    out.expansions += st.expansions;
  }
  out.violations = folded.Size();
  std::map<std::string, size_t> per_rule;
  for (const Violation& v : folded.Snapshot())
    per_rule[rules_[v.rule].name()]++;
  out.per_rule.assign(per_rule.begin(), per_rule.end());
  m_published_reads_->Add(1);
  m_read_ms_->Observe(t.ElapsedMs());
  return out;
}

Result<PublishedViolations> RepairService::ReadViolations(
    size_t offset, size_t limit) const {
  OBS_SPAN("read.violations");
  InflightRead ticket(&active_reads_, options_.max_read_threads);
  if (!ticket.admitted()) {
    m_stale_reads_->Add(1);
    return Status::ResourceExhausted("read capacity exhausted");
  }
  serve::ReadLease lease = publisher_.Pin();
  obs::Stopwatch t;
  PublishedViolations out;
  out.generation = lease->generation;
  out.batch = lease->batch;
  out.total = lease->backlog.size();
  out.offset = std::min(offset, out.total);
  const size_t end = std::min(out.total, out.offset + limit);
  out.rows.reserve(end - out.offset);
  for (size_t i = out.offset; i < end; ++i) {
    const Violation& v = lease->backlog[i];
    PublishedViolations::Row row;
    row.rule = rules_[v.rule].name();
    row.cost = v.best_cost;
    row.nodes = v.alternatives.front().nodes.size();
    row.edges = v.alternatives.front().edges.size();
    out.rows.push_back(std::move(row));
  }
  m_published_reads_->Add(1);
  m_read_ms_->Observe(t.ElapsedMs());
  return out;
}

Result<BatchResult> RepairService::ApplyBatch(
    const std::vector<EditEntry>& ops) {
  for (size_t i = 0; i < ops.size(); ++i) {
    auto applied = ApplyEdit(ops[i]);
    if (!applied.ok())
      return Status::InvalidArgument("batch op " + std::to_string(i) + ": " +
                                     applied.status().ToString());
  }
  return Commit();
}

}  // namespace grepair
