// serve_stream and serve_mixed: the stationary edit stream (stream.h)
// committed through an in-process staged serve::Session — the per-connection
// object `grepair serve --listen` runs, without its socket — over a
// single-threaded RepairService (one snapshot store, no pool) with a WAL
// fsynced at most every 100 ms and a checkpoint every 64 batches.
//
//   serve_stream: one closed-loop writer, no concurrent readers (the write
//     path with the read path idle). Every kIdleReadEvery batches the client
//     issues one `detect` between commits, on the quiescent service; those
//     give the read metrics.
//   serve_mixed: the same closed-loop writer plus two closed-loop reader
//     sessions issuing `detect`. Readers pin retired generations, which
//     turns the writer's snapshot patches into rebuilds.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "graph/snapshot.h"
#include "repair/engine.h"
#include "serve/repair_service.h"
#include "serve/session.h"
#include "stream.h"
#include "workloads.h"

namespace perfbench {

using namespace grepair;

namespace {

// One service thread. On the shared 4-vCPU reference host, three runs a
// few minutes apart put a 2-thread service's commit p50 at 3.5-5.8 ms (WAL
// fsync per commit) against 2.2-2.7 ms for one thread, and serve_mixed's
// two readers next to a 2-thread pool would oversubscribe the 4 vCPUs. The
// parallel layer is measured by offline_repair.
constexpr size_t kThreads = 1;
constexpr uint64_t kCheckpointEvery = 64;
// Every segment spans a checkpoint, so edits_per_s carries checkpoint cost
// at any --seconds.
constexpr int kMinBatchesPerSegment = kCheckpointEvery + 8;
constexpr int kReaders = 2;
// Nominal closed-loop batches per second on the reference host (4-vCPU VM):
// a patched commit in serve_stream, a rebuilt one under serve_mixed's
// readers.
constexpr double kStreamBatchesPerSecond = 100.0;
constexpr double kMixedBatchesPerSecond = 20.0;
// serve_stream reads once per this many batches, between commits, so its
// read samples spread over the whole run like its commits do.
constexpr int kIdleReadEvery = 8;
// Snapshot builds probed per traced segment.
constexpr int kBuildProbes = 5;

struct CommitLine {
  uint64_t batch = 0;
  size_t fixes = 0;
  double core_ms = 0.0;
  size_t op_errors = 0;
};

// "batch N edits=E anchors=A violations=V fixes=F ms=M[ BUDGET_EXHAUSTED]
// [ op_errors=K]" (serve::FormatBatchLine + the staged op_errors suffix).
CommitLine ParseCommit(const std::string& line) {
  CommitLine c;
  unsigned long long batch = 0;
  size_t edits = 0, anchors = 0, violations = 0;
  if (std::sscanf(line.c_str(),
                  "batch %llu edits=%zu anchors=%zu violations=%zu fixes=%zu "
                  "ms=%lf",
                  &batch, &edits, &anchors, &violations, &c.fixes,
                  &c.core_ms) != 6)
    Fail("commit not acked: " + line);
  if (line.find("BUDGET_EXHAUSTED") != std::string::npos)
    Fail("commit exhausted its repair budget: " + line);
  c.batch = batch;
  const size_t pos = line.find(" op_errors=");
  if (pos != std::string::npos)
    c.op_errors = std::strtoull(line.c_str() + pos + 11, nullptr, 10);
  return c;
}

// A `detect` answer for a clean generation: "0 violations" then one line
// per rule.
bool CleanDetect(const std::string& response) {
  return response.rfind("0 violations", 0) == 0;
}

// Reader threads of one segment. Declared after the service they read, so
// a failed check on the writer stops and joins them before the service is
// destroyed.
struct ReaderThreads {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  void JoinAll() {
    stop.store(true);
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
  }
  ~ReaderThreads() { JoinAll(); }
};

bool Within(size_t value, size_t base, double share) {
  return std::abs(static_cast<double>(value) - static_cast<double>(base)) <=
         share * static_cast<double>(base);
}

}  // namespace

RunResult RunServe(const RunOptions& opt, const Inputs& in, bool mixed,
                   TraceSink* trace) {
  const int batches = std::max(
      kMinBatchesPerSegment,
      OpsPerSegment(opt, mixed ? kMixedBatchesPerSecond
                               : kStreamBatchesPerSecond));
  SpanLog* writer_log = trace != nullptr ? trace->spans.NewLog() : nullptr;
  std::vector<SpanLog*> reader_logs;
  for (int i = 0; i < kReaders && trace != nullptr; ++i)
    reader_logs.push_back(trace->spans.NewLog());

  RunResult res;
  std::vector<double> setup_s, op_ms, untraced_op_ms, read_ms;
  double edit_lines = 0, writer_busy_s = 0, reads = 0, read_phase_s = 0;
  double facts = 0, facts_held = 0, fixes = 0;
  // Traced segments only.
  std::vector<double> load_ms, parse_ms, open_ms, build_ms, edit_ms, core_ms,
      checkpoint_ms;
  double traced_requests = 0;
  Exposition delta;

  for (int seg = 0; seg < kSegments; ++seg) {
    const bool traced = trace != nullptr && seg % 2 == 0;
    SpanLog* log = traced ? writer_log : nullptr;
    SpanLog::Scope seg_span(log, "client.segment", seg);
    const std::string wal_dir = opt.dir + "/wal";

    // ---- cold set-ups: files -> ready for the first commit ----
    std::unique_ptr<RepairService> service;
    for (int i = 0; i < kSetupsPerSegment; ++i) {
      service.reset();
      std::filesystem::remove_all(wal_dir);
      std::filesystem::create_directories(wal_dir);
      const Clock::time_point t0 = Clock::now();
      SpanLog::Scope span(log, "client.setup", seg);
      Loaded l = LoadInputs(in, log, seg);
      ServeOptions so;
      so.num_threads = kThreads;
      so.wal_dir = wal_dir;
      // An fsync per commit adds the shared disk's latency (its median
      // moved 0.19-0.44 ms between back-to-back probes) to every commit; at
      // most one per 100 ms (the default interval) keeps it in the tail.
      so.fsync_policy = storage::FsyncPolicy::kInterval;
      so.fsync_interval_ms = 100;
      so.checkpoint_every = kCheckpointEvery;
      {
        SpanLog::Scope construct(log, "serve.construct", seg);
        service = std::make_unique<RepairService>(std::move(l.graph),
                                                  std::move(l.rules), so);
      }
      const Clock::time_point o0 = Clock::now();
      {
        SpanLog::Scope open(log, "storage.open", seg);
        auto rec = service->OpenDurability();
        if (!rec.ok()) Fail("OpenDurability: " + rec.status().ToString());
      }
      const Clock::time_point t1 = Clock::now();
      setup_s.push_back(MsBetween(t0, t1) / 1000.0);
      if (traced) {
        load_ms.push_back(l.load_ms);
        parse_ms.push_back(l.parse_ms);
        open_ms.push_back(MsBetween(o0, t1));
      }
    }

    std::mutex mu;
    serve::Session writer(service.get(), serve::SessionMode::kStaged, &mu);
    serve::Session idle_reader(service.get(), serve::SessionMode::kStaged,
                               &mu);
    const Graph& g = service->graph();
    const size_t v0 = g.NumNodes(), e0 = g.NumEdges();
    if (g.NodeIdBound() != v0)
      Fail("served graph has node id gaps; a checkpoint would move ids");
    EditStream stream(in.stream_seed,
                      KgSchema::Create(g.vocab().get()));
    const Exposition before =
        traced ? ParseExposition(writer.HandleLine("metrics")) : Exposition();

    // ---- readers (serve_mixed) ----
    std::vector<std::vector<double>> reader_ms(kReaders);
    std::vector<std::string> reader_error(kReaders);
    ReaderThreads readers;
    const Clock::time_point phase0 = Clock::now();
    for (int i = 0; mixed && i < kReaders; ++i) {
      SpanLog* rlog = traced ? reader_logs[i] : nullptr;
      readers.threads.emplace_back([&, i, rlog] {
        serve::Session reader(service.get(), serve::SessionMode::kStaged,
                              &mu);
        for (uint64_t n = 0; !readers.stop.load(); ++n) {
          const Clock::time_point q0 = Clock::now();
          std::string resp;
          {
            SpanLog::Scope span(rlog, "serve.read", n);
            resp = reader.HandleLine("detect");
          }
          reader_ms[i].push_back(MsBetween(q0, Clock::now()));
          if (!CleanDetect(resp)) {
            reader_error[i] = resp.substr(0, resp.find('\n'));
            return;
          }
        }
      });
    }

    // ---- the writer: `batches` batches of 32 edit lines + commit ----
    for (int b = 0; b < batches; ++b) {
      const uint64_t req = static_cast<uint64_t>(seg) * batches + b;
      StreamBatch batch = stream.Next(g);
      SpanLog::Scope batch_span(log, "client.batch", req);
      double busy_ms = 0.0;
      for (const std::string& line : batch.lines) {
        const Clock::time_point l0 = Clock::now();
        std::string resp;
        {
          SpanLog::Scope span(log, "serve.edit", req);
          resp = writer.HandleLine(line);
        }
        const double ms = MsBetween(l0, Clock::now());
        busy_ms += ms;
        if (traced) edit_ms.push_back(ms);
        ++res.attempted;
        if (resp.rfind("staged ", 0) != 0)
          Fail("edit not staged: " + line + " -> " + resp);
      }
      const Clock::time_point c0 = Clock::now();
      std::string resp;
      {
        SpanLog::Scope span(log, "serve.commit", req);
        resp = writer.HandleLine("commit");
      }
      const Clock::time_point c1 = Clock::now();
      busy_ms += MsBetween(c0, c1);
      ++res.attempted;
      const CommitLine c = ParseCommit(resp);
      if (service->ViolationBacklog() != 0)
        Fail("commit acked with a backlog of " +
             std::to_string(service->ViolationBacklog()));
      const double latency = MsBetween(c0, c1);
      (traced || trace == nullptr ? op_ms : untraced_op_ms)
          .push_back(latency);
      writer_busy_s += busy_ms / 1000.0;
      res.failed += c.op_errors;
      edit_lines += static_cast<double>(batch.lines.size() - c.op_errors);
      fixes += static_cast<double>(c.fixes);
      facts += static_cast<double>(batch.facts.size());
      for (const Fact& f : batch.facts) facts_held += stream.Holds(g, f);

      if (!mixed && b % kIdleReadEvery == kIdleReadEvery - 1) {
        const Clock::time_point q0 = Clock::now();
        std::string answer;
        {
          SpanLog::Scope span(log, "serve.read", req);
          answer = idle_reader.HandleLine("detect");
        }
        const double ms = MsBetween(q0, Clock::now());
        read_ms.push_back(ms);
        read_phase_s += ms / 1000.0;
        reads += 1;
        ++res.attempted;
        if (traced) traced_requests += 1;
        if (!CleanDetect(answer))
          Fail("detect between commits did not report a clean generation: " +
               answer.substr(0, answer.find('\n')));
      }

      if (!traced) continue;
      core_ms.push_back(c.core_ms);
      if (c.batch % kCheckpointEvery == 0) checkpoint_ms.push_back(latency);
    }
    readers.JoinAll();
    const double phase_s = MsBetween(phase0, Clock::now()) / 1000.0;
    for (int i = 0; i < kReaders; ++i) {
      if (!reader_error[i].empty())
        Fail("detect under load did not report a clean generation: " +
             reader_error[i]);
      read_ms.insert(read_ms.end(), reader_ms[i].begin(), reader_ms[i].end());
      reads += static_cast<double>(reader_ms[i].size());
      res.attempted += reader_ms[i].size();
    }
    if (mixed) read_phase_s += phase_s;
    if (traced && mixed) {
      for (const auto& r : reader_ms) traced_requests += r.size();
    }

    if (traced) {
      // The snapshot-build probe runs after the measured phase, on the
      // graph the last commit left: the stream is stationary, so this is the
      // build an op would face, and probing between commits would space
      // them out and hide the reader pins that serve_mixed exists to show.
      for (int n = 0; n < kBuildProbes; ++n) {
        const Clock::time_point p0 = Clock::now();
        {
          SpanLog::Scope span(log, "graph.snapshot_build", n);
          GraphSnapshot probe(g);
        }
        build_ms.push_back(MsBetween(p0, Clock::now()));
      }
      traced_requests += batches;
      std::string text = writer.HandleLine("metrics");
      AddDelta(before, ParseExposition(text), &delta);
      trace->exposition = std::move(text);
    }

    // ---- segment-end checks ----
    const size_t left = CountViolations(g, service->rules());
    if (left != 0)
      Fail("served graph holds " + std::to_string(left) +
           " violations after the stream");
    if (!Within(g.NumNodes(), v0, 0.02) || !Within(g.NumEdges(), e0, 0.02))
      Fail("edit stream drifted: |V| " + std::to_string(v0) + " -> " +
           std::to_string(g.NumNodes()) + ", |E| " + std::to_string(e0) +
           " -> " + std::to_string(g.NumEdges()));
    service.reset();
    std::filesystem::remove_all(wal_dir);
  }

  // Served repair quality: a corruption's expected repair held after its
  // commit (recall) against the fixes the commits applied (precision).
  const double recall = facts > 0 ? facts_held / facts : 0.0;
  const double precision = fixes > 0 ? std::min(1.0, facts_held / fixes) : 0.0;
  const double f1 = precision + recall > 0
                        ? 2 * precision * recall / (precision + recall)
                        : 0.0;

  Metrics& m = res.metrics;
  if (trace == nullptr) {
    const Tail op_tail = TailOf(op_ms), read_tail = TailOf(read_ms);
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("op_p50_ms", Median(op_ms), "ms");
    m.Set("op_tail_ms", op_tail.value, "ms");
    m.Set("read_p50_ms", Median(read_ms), "ms");
    m.Set("read_tail_ms", read_tail.value, "ms");
    m.Set("edits_per_s", edit_lines / writer_busy_s, "1/s");
    m.Set("reads_per_s", reads / read_phase_s, "1/s");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    m.Set("ok_share",
          static_cast<double>(res.attempted - res.failed) / res.attempted,
          "ratio");
    m.Set("repair_f1", f1, "ratio");
    res.info["op_tail_percentile"] = op_tail.percentile;
    res.info["op_samples"] = static_cast<double>(op_tail.samples);
    res.info["read_tail_percentile"] = read_tail.percentile;
    res.info["read_samples"] = static_cast<double>(read_tail.samples);
    res.info["repair_precision"] = precision;
    res.info["repair_recall"] = recall;
    return res;
  }

  SetLayerDefaults(&m);
  m.Set("graph.load_ms", Median(load_ms), "ms");
  m.Set("graph.snapshot_build_ms", Median(build_ms), "ms");
  m.Set("grr.parse_rules_ms", Median(parse_ms), "ms");
  SetMatchAndPoolMetrics(delta, traced_requests, &m);
  m.Set("serve.edit_ms", Median(edit_ms), "ms");
  m.Set("serve.commit_core_ms", Median(core_ms), "ms");
  m.Set("serve.seed_detect_ms", HistogramMean(delta, "grepair_serve_detect_ms"),
        "ms");
  m.Set("serve.publish_ms", HistogramMean(delta, "grepair_serve_publish_ms"),
        "ms");
  m.Set("serve.read_core_ms", HistogramMean(delta, "grepair_serve_read_ms"),
        "ms");
  m.Set("serve.op_errors", Value(delta, "grepair_serve_op_errors_total"),
        "count");
  m.Set("serve.stale_reads", Value(delta, "grepair_serve_stale_reads_total"),
        "count");
  m.Set("storage.open_ms", Median(open_ms), "ms");
  m.Set("storage.wal_appends", Value(delta, "grepair_wal_appends_total"),
        "count");
  m.Set("storage.wal_syncs", Value(delta, "grepair_wal_syncs_total"), "count");
  const double served_edits = Value(delta, "grepair_serve_edits_total");
  m.Set("storage.wal_bytes_per_edit",
        served_edits > 0 ? Value(delta, "grepair_wal_bytes_total") / served_edits
                         : 0.0,
        "B/edit");
  m.Set("storage.checkpoints", Value(delta, "grepair_checkpoints_total"),
        "count");
  m.Set("storage.checkpoint_commit_ms", Median(checkpoint_ms), "ms");
  m.Set("client.trace_overhead_pct",
        100.0 * (Median(op_ms) / Median(untraced_op_ms) - 1.0), "%");
  return res;
}

}  // namespace perfbench
