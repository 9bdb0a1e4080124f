// The serving subsystem: a long-lived RepairService that owns a graph and a
// persistent violation store, accepts batches of edits, and keeps the graph
// clean under a stream of updates — the paper's "efficient repairing"
// (delta-anchored re-detection) turned into a system surface.
//
// Lifecycle per batch (DESIGN.md "Serving model"):
//   1. edits are applied to the owned graph immediately (journaled);
//   2. Commit() takes the journal slice since the last commit as the delta
//      and seeds the violation store through DetectDelta over the live
//      graph — the RunDelta seeding, on the committing thread;
//   3. repair cascades drain the store greedily, exactly like
//      RepairEngine::RunDelta: pop cheapest, re-verify, apply, re-detect
//      around the fix through the same DetectDelta;
//   4. publication advances the writable snapshot slot to the committed
//      state by patching the graph's delta log — O(delta) per commit
//      instead of an O(V+E) rebuild (DESIGN.md "Incremental maintenance";
//      a shard rebuilds past snapshot_rebuild_fraction) — copies the live
//      backlog, and flips it to the readers. That is the one snapshot
//      advance of a commit.
//
// Threading contract: all mutation happens on the caller's thread; the
// only worker threads are the service pool's, which advance one store
// shard each in step 4 while the writer blocks on them (DESIGN.md
// "Threading model"). The service is single-writer — callers serialize access — with
// ONE carve-out: the published read path (DetectPublished / ReadViolations
// / PinPublished) is safe from any thread concurrently with the writer; it
// runs against immutable epoch-published snapshot generations
// (serve::SnapshotPublisher) and never touches the mutable service state.
#ifndef GREPAIR_SERVE_REPAIR_SERVICE_H_
#define GREPAIR_SERVE_REPAIR_SERVICE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/sharded_snapshot.h"
#include "serve/publisher.h"
#include "grr/rule.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "repair/engine.h"
#include "repair/violation.h"
#include "storage/fs.h"
#include "storage/wal.h"
#include "util/status.h"

namespace grepair {

/// Service configuration.
struct ServeOptions {
  /// Worker threads of the publication advance, which builds, patches and
  /// rebuilds the store shards in parallel (0 = hardware concurrency, 1 =
  /// no pool). Detection and cascades run on the committing thread at any
  /// count. Results are bit-identical across counts.
  size_t num_threads = 1;
  /// Edge attribute carrying evidence confidence ("" disables weighting).
  std::string confidence_attr = "conf";
  /// Cost model for fix selection and cost accounting.
  CostModel cost_model;
  /// Per-batch cascade budget; an exhausted batch leaves the remaining
  /// violations in the store for the next commit to continue draining.
  size_t max_fixes_per_batch = 1'000'000;
  /// Rebuild a store shard instead of patching it once the records to
  /// apply — its pending delta plus everything already patched into it —
  /// exceed this fraction of the shard's own edge count: per-record
  /// overlay bookkeeping has a higher constant than the linear rebuild,
  /// and a heavily patched snapshot carries overlay lookups on its read
  /// paths. A hot shard rebuilds alone; 0 rebuilds every dirty shard.
  double snapshot_rebuild_fraction = 0.15;
  /// Storage shards of the published snapshot store (ShardedSnapshot): 0 =
  /// one shard per pool thread (the default — publication builds, patches
  /// and rebuilds the shards in parallel over the pool), capped at
  /// ShardedSnapshot::kMaxShards. A service without a pool (num_threads 1)
  /// keeps one shard. Results are bit-identical across shard counts; only
  /// wall-clock changes.
  size_t num_shards = 0;
  /// Cap on concurrently executing published reads across all transports
  /// (`--max-read-threads`); excess requests are shed with `err busy`
  /// instead of queueing behind each other. 0 = unlimited.
  size_t max_read_threads = 0;
  /// TCP listener port for `grepair serve --listen` (serve::Server). -1 =
  /// no listener, stdio transport; 0 = bind an ephemeral port (published
  /// via Server::port()); 1..65535 = that port.
  int listen_port = -1;
  /// Admission cap on concurrently admitted TCP client connections;
  /// accepts beyond it are answered `err busy` and closed.
  size_t max_connections = 64;
  /// Token-bucket request rate limit across ALL connections (burst =
  /// max(1, rate)); requests past it are shed with `err busy`. 0 disables.
  double max_requests_per_sec = 0.0;
  /// Durability directory for the write-ahead log + checkpoints ("" = no
  /// durability, the pre-WAL in-memory behavior). With a directory set,
  /// OpenDurability() must run before the first commit: it recovers from
  /// the newest valid checkpoint, replays the WAL tail, and opens the
  /// writer. The SAME --graph/--rules configuration must be used across
  /// restarts of one directory (DESIGN.md "Durability").
  std::string wal_dir;
  /// When WAL appends reach the device (storage/wal.h). Weaker policies
  /// trade the last `fsync_interval_ms` (or OS flush cadence) of acked
  /// commits for append latency; recovery still lands on a valid prefix.
  storage::FsyncPolicy fsync_policy = storage::FsyncPolicy::kEveryCommit;
  /// Sync cadence under FsyncPolicy::kInterval, in milliseconds.
  uint64_t fsync_interval_ms = 100;
  /// Write a checkpoint (and rotate + trim the WAL) every N committed
  /// batches. 0 = only the baseline checkpoints OpenDurability and
  /// RestoreState write — the WAL then grows until the next restart.
  /// NOTE a checkpoint compacts element ids exactly like a save/restore
  /// round trip (DESIGN.md "Durability"); ids handed to clients before it
  /// are remapped to their dense rank.
  uint64_t checkpoint_every = 256;
  /// Filesystem seam for durability AND SaveState/RestoreState (tests and
  /// fault injection pass MemFs/FaultFs). Null = the real filesystem. Not
  /// owned; must outlive the service.
  storage::Fs* wal_fs = nullptr;
  /// Monotonic clock in ms for the interval fsync policy (tests inject a
  /// fake). Null = std::chrono::steady_clock.
  std::function<uint64_t()> clock_ms;

  /// Rejects out-of-range configuration — snapshot_rebuild_fraction
  /// outside [0,1] (or NaN), num_shards beyond the kMaxShards routing
  /// cap, absurd thread counts, out-of-range listener/admission knobs —
  /// instead of letting it silently misbehave.
  /// RepairService's constructor enforces this (std::invalid_argument);
  /// the CLI validates before constructing so bad flags exit cleanly.
  Status Validate() const;
};

/// Outcome of one committed batch.
struct BatchResult {
  size_t batch = 0;         ///< 1-based commit sequence number
  size_t edits = 0;         ///< journal entries in the batch delta
  size_t anchor_nodes = 0;  ///< node anchors the delta induced
  size_t anchor_edges = 0;  ///< edge anchors the delta induced
  /// Violations pending after seeding: the delta's, plus any backlog a
  /// budget-cut earlier batch left in the persistent store.
  size_t violations = 0;
  size_t fixes = 0;  ///< cascade fixes applied
  size_t expansions = 0;    ///< matcher expansions (detection + cascades)
  bool budget_exhausted = false;
  double detect_ms = 0.0;  ///< seed detection time
  double total_ms = 0.0;   ///< whole commit (detection + cascades)
};

/// What OpenDurability found and did on startup (the recovery summary the
/// CLI prints; the same numbers feed the recovery_* instruments).
struct RecoveryInfo {
  bool durable = false;  ///< a wal_dir is configured and open
  bool recovered_from_checkpoint = false;
  uint64_t checkpoint_seq = 0;      ///< base the replay started from
  uint64_t replayed_batches = 0;    ///< complete WAL batches re-committed
  uint64_t truncated_bytes = 0;     ///< torn/corrupt WAL tail cut off
  uint64_t dropped_batches = 0;     ///< complete batches lost to a seq gap
  uint64_t corrupt_checkpoints = 0; ///< quarantined as *.corrupt
};

/// Cumulative service counters; latencies are per committed batch.
///
/// Since the observability layer landed this is a VIEW: the service's
/// source of truth is its obs::MetricsRegistry (the same instruments the
/// `metrics` serve verb exports as Prometheus text), and stats()
/// materializes this struct from those instruments on query. Field
/// semantics are unchanged from the pre-registry struct — every assertion
/// that held on the old bookkeeping holds on the view.
struct ServiceStats {
  /// Latency samples kept: a bounded ring of the most recent commits, so a
  /// long-lived service never grows without bound.
  static constexpr size_t kLatencyWindow = 4096;

  size_t batches = 0;
  size_t edits = 0;
  size_t op_errors = 0;  ///< rejected edit ops (dead ids, bad endpoints)
  size_t violations_detected = 0;  ///< newly seeded (backlog not recounted)
  size_t violations_repaired = 0;
  size_t anchors_visited = 0;  ///< node + edge anchors over all batches
  size_t expansions = 0;
  /// Per-shard ledger of the publication advances: cumulative SHARDS
  /// patched / rebuilt. A publication that patches 3 shards and rebuilds
  /// the one hot shard adds 3 and 1 — the dirty-shard-only economics the
  /// per-publication counters below cannot express (they count the whole
  /// advance as one rebuild whenever any shard rebuilt). With one shard,
  /// shard_rebuilds == publish_rebuilds.
  size_t shard_patches = 0;
  size_t shard_rebuilds = 0;
  /// Heap footprint of the publisher's snapshot slots (0 when none).
  /// Computed when stats() is queried — the walk over the snapshot's
  /// attribute maps is O(V+E) and must not ride the per-commit hot path.
  size_t snapshot_memory_bytes = 0;
  /// Epoch-publication ledger.
  size_t published_generation = 0;  ///< last published generation number
  size_t publishes = 0;             ///< generations published
  /// How each publication brought its slot to the committed state
  /// (publish_patches + publish_rebuilds == publishes): an O(delta) patch,
  /// or a rebuild of at least one shard.
  size_t publish_patches = 0;
  size_t publish_rebuilds = 0;
  /// Retired slots still pinned by readers when the writer came to reuse
  /// them: each was left to its readers and replaced by a fresh slot,
  /// which the next advance builds from scratch.
  size_t publish_abandoned = 0;
  size_t published_reads = 0;  ///< detect/violations served lock-free
  /// Reads refused before pinning (unknown rule filter, or shed by the
  /// max_read_threads gate).
  size_t stale_reads = 0;
  double publish_ms = 0.0;  ///< cumulative publication wall-clock
  /// Durability ledger (all zero on a service without a wal_dir).
  bool read_only = false;        ///< degraded after a storage failure
  size_t wal_appends = 0;        ///< batches appended to the WAL
  size_t wal_bytes = 0;          ///< bytes appended (frames included)
  size_t wal_syncs = 0;          ///< fsyncs issued by the writer
  size_t wal_append_errors = 0;  ///< failed appends (each one degrades)
  size_t checkpoints = 0;        ///< checkpoints written (baselines too)
  size_t last_checkpoint_seq = 0;
  size_t recovery_replayed_batches = 0;  ///< WAL batches replayed at open
  /// Commit latencies of the most recent kLatencyWindow batches (unordered
  /// once the ring wraps).
  std::vector<double> batch_ms;

  /// Latency percentile over the retained window (p in [0,100];
  /// nearest-rank). Returns 0 before the first commit.
  double LatencyPercentileMs(double p) const;
};

/// Result of applying one edit op: the id it created, when it created one.
struct EditApplied {
  NodeId node = kInvalidNode;  ///< kAddNode
  EdgeId edge = kInvalidEdge;  ///< kAddEdge
};

/// One lock-free detection pass over the published generation (`detect`
/// verb). Counts are bit-identical to offline `grepair detect` against the
/// same committed batch (the match-order contract, match/plan.h).
struct PublishedDetect {
  uint64_t generation = 0;  ///< publication the pass ran against
  uint64_t batch = 0;       ///< committed batch that publication mirrors
  size_t violations = 0;    ///< total matches across the selected rules
  /// Per-rule match counts, name-sorted (the offline report order).
  std::vector<std::pair<std::string, size_t>> per_rule;
  size_t expansions = 0;  ///< matcher expansions spent
};

/// One page of the published violation backlog (`violations` verb): the
/// budget-cut leftovers pending repair at the published batch boundary, in
/// the deterministic SaveState order. Only violations that still hold on
/// that boundary's graph are published: the store invalidates lazily, so
/// it may also hold entries a later edit already ended.
struct PublishedViolations {
  uint64_t generation = 0;
  uint64_t batch = 0;
  size_t total = 0;   ///< live backlog size at the boundary
  size_t offset = 0;  ///< first row's index into the sorted backlog
  struct Row {
    std::string rule;  ///< rule name
    double cost = 0.0; ///< best-alternative repair cost
    size_t nodes = 0;  ///< nodes bound by the best alternative
    size_t edges = 0;  ///< edges bound by the best alternative
  };
  std::vector<Row> rows;
};

/// A long-lived repair service over one graph + rule set.
class RepairService {
 public:
  /// Takes ownership of the graph. The rule set must share its vocabulary.
  /// Throws std::invalid_argument when `options` fail
  /// ServeOptions::Validate() (callers that must not throw validate
  /// first).
  RepairService(Graph graph, RuleSet rules, ServeOptions options = {});

  /// Applies one edit op, journaled but NOT yet repaired (repair happens at
  /// the next Commit). Ops are interpreted EditEntry records — the fields a
  /// journal replay needs: kAddNode reads `label`; kAddEdge reads
  /// `src`/`dst`/`label`; kRemove* read the element id; kSet*Label and
  /// kSet*Attr read the element id, `attr` and `new_sym`. Invalid ops (dead
  /// or unknown ids, self-referential adds) are rejected without touching
  /// the graph.
  Result<EditApplied> ApplyEdit(const EditEntry& op);

  /// Runs batched delta-detection over everything journaled since the last
  /// commit, then repairs cascades greedily. Equivalent to
  /// RepairEngine::RunDelta over the same slice for any thread count.
  ///
  /// Under durability the batch's journal slice (plus any symbols interned
  /// since the last append) is appended to the WAL and fsynced per policy
  /// BEFORE detection runs — an acked batch line implies the edits are on
  /// disk under kEveryCommit. A failed append rejects the batch: the
  /// staged edits are rolled back, the service degrades to read-only, and
  /// kIo comes back (protocol code `err io`). Cascade fixes are NOT
  /// logged; replay recomputes them bit-identically.
  Result<BatchResult> Commit();

  /// Brings up durability for ServeOptions::wal_dir (no-op without one):
  /// restores the newest valid checkpoint (falling back one on
  /// corruption), replays the WAL tail through the normal commit path
  /// (verifying each replayed batch lands on its logged seq), truncates
  /// torn tails, opens the writer, and re-anchors with a baseline
  /// checkpoint. Call once, after construction, before serving traffic.
  /// kDataLoss = the directory's contents cannot reproduce a committed
  /// prefix (never silently partial); kIo = plain I/O failure.
  Result<RecoveryInfo> OpenDurability();

  /// Writes a checkpoint at the current commit seq, swaps the service into
  /// the compacted id space the checkpoint parses back to (so live state
  /// and recovered state are identical by construction — DESIGN.md
  /// "Durability"), rotates the WAL, and trims per retention. `baseline`
  /// re-anchors history (keeps only this checkpoint; used after recovery
  /// and restore, whose swap points a replay could not reproduce).
  Status CheckpointNow(bool baseline);

  /// ApplyEdit for each op (stopping at the first invalid one), then
  /// Commit. The error status reports the offending op index; edits before
  /// it stay journaled and are repaired by the next commit.
  Result<BatchResult> ApplyBatch(const std::vector<EditEntry>& ops);

  /// Persists the service's graph + violation-store backlog to `path`
  /// (protocol verb `snapshot <file>`), via temp file + fsync + atomic
  /// rename — a crash mid-save never leaves a torn file where a previous
  /// good one stood. Pending edits are committed first —
  /// their delta could not survive a save/load round trip, and quitting
  /// already commits, so a saved state is always a committed state. Stale
  /// backlog alternatives referencing dead elements are dropped (re-verify
  /// would discard them on pop anyway); element ids are rewritten to the
  /// dense id space a reload produces.
  Status SaveState(const std::string& path);

  /// Replaces the owned graph and violation backlog with the state saved at
  /// `path` (protocol verb `restore <file>`). Rules, options and the worker
  /// pool are kept; cumulative ServiceStats keep counting across the
  /// restore. Refused (kFailedPrecondition, protocol code `staged_edits`)
  /// while edits are staged-but-uncommitted: silently discarding them — or
  /// committing them onto the restored state — would both be surprising,
  /// so the caller commits first and restores a quiescent service. Under
  /// durability a successful restore is sealed with a baseline checkpoint
  /// (the restore's state swap is a point a WAL replay could not
  /// reproduce, so history re-anchors here).
  Status RestoreState(const std::string& path);

  /// ---- Published read path (thread-safe, never takes the commit lock) --
  ///
  /// The three calls below are safe from ANY thread while the writer
  /// commits: they pin the last published generation (publisher mutex —
  /// pointer work only), then run entirely against that frozen state. The
  /// constructor publishes generation 1, so there is always one to pin.
  /// kResourceExhausted = the max_read_threads gate shed the request;
  /// kNotFound = unknown rule filter.

  /// Full (or rule-filtered, `rule_filter` non-empty) detection over the
  /// published generation, one Matcher per rule over the pinned view.
  Result<PublishedDetect> DetectPublished(const std::string& rule_filter) const;

  /// One page of the published violation backlog.
  Result<PublishedViolations> ReadViolations(size_t offset,
                                             size_t limit) const;

  /// Pins the published generation directly (tests and embedders; the
  /// lease keeps that generation alive across any number of commits).
  serve::ReadLease PinPublished() const { return publisher_.Pin(); }

  /// Last published generation number (1 after construction).
  uint64_t PublishedGeneration() const {
    return publisher_.CurrentGeneration();
  }

  /// Edit ops journaled since the last commit.
  size_t PendingEdits() const { return graph_.JournalSize() - clean_mark_; }
  /// Violations waiting in the persistent store (a budget-cut backlog).
  size_t ViolationBacklog() const { return store_.Size(); }

  const Graph& graph() const { return graph_; }
  const RuleSet& rules() const { return rules_; }
  const ServiceStats& stats() const;
  /// The service-scoped instruments backing stats() — exported by the
  /// `metrics` serve verb (alongside MetricsRegistry::Global() for the
  /// process-wide pool/matcher instruments).
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }
  /// Writable registry handle for components instrumenting this service's
  /// exposition (serve::Server registers its connection/admission
  /// instruments here so the `metrics` verb exports them).
  obs::MetricsRegistry* mutable_metrics_registry() { return &registry_; }
  const ServeOptions& options() const { return options_; }
  /// Effective storage shards of the snapshot store (1 for a service
  /// without a pool).
  size_t num_shards() const { return num_shards_; }
  /// True after a WAL/checkpoint write failed: every mutation is refused
  /// with kIo until the process restarts (and recovers). Reads still work.
  bool read_only() const { return read_only_; }
  /// True once OpenDurability opened a WAL writer.
  bool durable() const { return wal_ != nullptr; }

 private:
  SymbolId ConfAttr() const;
  /// Publishes the writable slot as the next generation at committed batch
  /// `batch`: brings its store to the current graph state — a build when
  /// it has none or its slice was trimmed off the delta log, otherwise an
  /// advance by the slice since its watermark that decides patch or
  /// rebuild PER SHARD against `snapshot_rebuild_fraction` (dirty shards
  /// rebuild alone, in parallel over the pool) — copies the backlog
  /// entries that still have a live alternative, in SaveState order,
  /// flips the published pointer, and trims the consumed delta log.
  void PublishGeneration(uint64_t batch);
  /// Trims the delta log to the oldest watermark of a slot that can still
  /// patch from it. Every publication advances a slot to the log end, so
  /// the laggard is at most one commit behind and the retained log spans
  /// at most the last two commits' records.
  void TrimConsumedDeltaLog();
  /// Shard-task runner over the service pool (null runner when there is no
  /// pool to fan out over).
  ParallelRunner ShardRunner() const;
  /// Filesystem for ALL state files (WAL, checkpoints, SaveState/Restore):
  /// the injected seam or the real one.
  storage::Fs* StateFs() const;
  uint64_t NowMs() const;
  /// The full serialized service state: vocabulary dump (L/K/W lines, id
  /// order — what makes raw SymbolIds in WAL records valid against a
  /// reloaded checkpoint) + graph + violation backlog.
  std::string SerializeServiceState() const;
  /// Parses `text` (SerializeServiceState / SaveState format) and swaps it
  /// in — graph, backlog, vocab tail — after full validation. `origin`
  /// names the source in error messages.
  Status LoadServiceState(const std::string& text, const std::string& origin);
  /// Serialize + load own payload: the deterministic id-compacting state
  /// swap both a live checkpoint and its recovery perform. Replay calls
  /// this (no file writes) at the same seqs the original checkpointed at.
  Status SwapState();
  /// Flips read-only on (mutations refuse with kIo from here on).
  void EnterReadOnly(const std::string& why);
  /// Appends the pending journal slice + newly interned symbols as batch
  /// `seq`; updates the vocab watermarks on success.
  Status AppendBatchToWal(uint64_t seq);
  /// Rolls the writer's cumulative counters into the registry counters.
  void SyncWalInstruments();

  ServeOptions options_;
  Graph graph_;
  RuleSet rules_;
  ViolationStore store_;  ///< persistent across batches
  std::unique_ptr<ThreadPool> pool_;  ///< null when num_threads == 1
  size_t num_shards_ = 1;  ///< resolved ServeOptions::num_shards
  size_t clean_mark_ = 0;  ///< journal position of the last commit
  /// The double-buffered snapshot slots (a num_shards_-shard store each)
  /// and the atomic publication point readers pin generations from.
  serve::SnapshotPublisher publisher_;
  /// publisher_.abandoned() already exported to m_publish_abandoned_.
  uint64_t seen_abandoned_ = 0;
  /// In-flight published reads, against options_.max_read_threads.
  mutable std::atomic<int64_t> active_reads_{0};

  /// Durability state (all inert without a wal_dir).
  std::unique_ptr<storage::WalWriter> wal_;
  bool read_only_ = false;
  /// True while OpenDurability re-commits WAL batches: Commit then skips
  /// the WAL append (the records are already on disk) but runs everything
  /// else — including the cadence state swaps — exactly like the original.
  bool replaying_ = false;
  /// Vocabulary sizes already covered by the WAL/checkpoint: symbols
  /// interned past these marks ride the next batch as 'S' frames, so
  /// replay interns them at identical ids before applying the records.
  size_t logged_labels_ = 0;
  size_t logged_attrs_ = 0;
  size_t logged_values_ = 0;
  /// Writer counter snapshots, so the registry counters below advance by
  /// deltas (the writer survives rotations but not reopen).
  uint64_t seen_wal_appends_ = 0;
  uint64_t seen_wal_bytes_ = 0;
  uint64_t seen_wal_syncs_ = 0;

  /// The service's metrics: instrument handles into registry_ (resolved
  /// once in the constructor), incremented where the old struct fields
  /// were. The registry is per-service so concurrent/sequential services
  /// in one process never bleed counts into each other's stats.
  obs::MetricsRegistry registry_;
  obs::Counter* m_batches_;
  obs::Counter* m_edits_;
  obs::Counter* m_op_errors_;
  obs::Counter* m_violations_detected_;
  obs::Counter* m_fixes_;
  obs::Counter* m_anchors_;
  obs::Counter* m_expansions_;
  obs::Counter* m_shard_patches_;
  obs::Counter* m_shard_rebuilds_;
  obs::Counter* m_publish_patches_;
  obs::Counter* m_publish_rebuilds_;
  obs::Counter* m_publish_abandoned_;
  obs::Counter* m_wal_appends_;
  obs::Counter* m_wal_bytes_;
  obs::Counter* m_wal_syncs_;
  obs::Counter* m_wal_append_errors_;
  obs::Counter* m_checkpoints_;
  obs::Counter* m_checkpoint_errors_;
  obs::Counter* m_recovery_replayed_;
  obs::Counter* m_recovery_truncated_bytes_;
  obs::Counter* m_recovery_dropped_;
  obs::Counter* m_recovery_corrupt_ckpts_;
  obs::Counter* m_published_reads_;  ///< detect/violations served
  obs::Counter* m_stale_reads_;      ///< reads shed/refused pre-pin
  obs::Gauge* m_read_only_;
  obs::Gauge* m_last_checkpoint_seq_;
  obs::Gauge* m_backlog_;
  obs::Gauge* m_snapshot_mem_;
  obs::Gauge* m_published_generation_;
  obs::Histogram* m_commit_ms_;
  obs::Histogram* m_detect_ms_;
  obs::Histogram* m_publish_ms_;  ///< count == publishes
  obs::Histogram* m_read_ms_;     ///< per published read
  /// Raw commit-latency samples of the most recent kLatencyWindow batches
  /// (histograms cannot answer nearest-rank percentiles exactly).
  std::vector<double> latency_ring_;
  /// mutable: stats() materializes the view (and prices
  /// snapshot_memory_bytes, an O(V+E) walk kept off the commit path) on
  /// query; the service is single-caller, so const reads never race.
  mutable ServiceStats stats_view_;
};

}  // namespace grepair

#endif  // GREPAIR_SERVE_REPAIR_SERVICE_H_
