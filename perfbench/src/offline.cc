// offline_repair: the paper's batch setting. One op is one greedy
// RepairEngine::Run at num_threads = 2 on a fresh clone of the loaded,
// corrupted KG; closed loop, one job at a time.
#include <optional>

#include "eval/metrics.h"
#include "graph/sharded_snapshot.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "repair/engine.h"
#include "workloads.h"

namespace perfbench {

using namespace grepair;

namespace {

constexpr size_t kThreads = 2;
// Nominal jobs per second on the reference host (4-vCPU VM): a job is the
// untimed clone, Run (~130 ms), the check detection (~35 ms) and the
// untimed quality evaluation.
constexpr double kJobsPerSecond = 5.0;

// The injected truth with its symbols re-interned into `to`: symbol ids are
// per vocabulary, names are what the files carry.
InjectReport Remap(const InjectReport& truth, const Vocabulary& from,
                   Vocabulary* to) {
  InjectReport out = truth;
  for (InjectedError& e : out.errors) {
    ExpectedFact& f = e.fact;
    if (f.label != 0) {
      // kNodeRelabeled / kNodeAddedWithEdge carry node labels, the edge
      // kinds edge labels; both live in the one label space.
      f.label = to->Label(from.LabelName(f.label));
    }
    if (f.edge_label != 0) f.edge_label = to->Label(from.LabelName(f.edge_label));
    if (f.attr != 0) f.attr = to->Attr(from.AttrName(f.attr));
    if (f.value != 0) f.value = to->Value(from.ValueName(f.value));
  }
  return out;
}

std::string GlobalExposition() {
  return obs::MetricsRegistry::Global().ExpositionText();
}

}  // namespace

RunResult RunOffline(const RunOptions& opt, const Inputs& in,
                     TraceSink* trace) {
  const int jobs = OpsPerSegment(opt, kJobsPerSecond);
  RepairOptions ropt;
  ropt.num_threads = kThreads;
  const RepairEngine engine(ropt);
  SpanLog* main_log = trace != nullptr ? trace->spans.NewLog() : nullptr;

  std::vector<double> setup_s, op_ms, untraced_op_ms, read_ms;
  double edits = 0, run_s = 0, read_s = 0;
  double f1 = -1.0;
  RunResult res;
  // Traced segments only.
  std::vector<double> load_ms, parse_ms, build_ms, run_core_ms, detect_ms,
      fix_ms;
  double fixes = 0, initial = 0, fanned_out = 0, traced_jobs = 0,
         traced_requests = 0;
  Exposition delta;

  for (int seg = 0; seg < kSegments; ++seg) {
    // A traced run alternates traced and untraced segments, so the tracing
    // overhead is measured on interleaved samples.
    const bool traced = trace != nullptr && seg % 2 == 0;
    SpanLog* log = traced ? main_log : nullptr;
    SpanLog::Scope seg_span(log, "client.segment", seg);

    std::optional<Loaded> loaded;
    for (int i = 0; i < kSetupsPerSegment; ++i) {
      loaded.reset();
      const Clock::time_point t0 = Clock::now();
      {
        SpanLog::Scope span(log, "client.setup", seg);
        loaded.emplace(LoadInputs(in, log, seg));
      }
      setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
      if (traced) {
        load_ms.push_back(loaded->load_ms);
        parse_ms.push_back(loaded->parse_ms);
      }
    }
    const InjectReport truth =
        Remap(in.truth, *in.truth_vocab, loaded->vocab.get());
    const Graph& input = loaded->graph;
    const NodeId node_bound = static_cast<NodeId>(input.NodeIdBound());

    const Exposition before =
        traced ? ParseExposition(GlobalExposition()) : Exposition();
    for (int job = 0; job < jobs; ++job) {
      const uint64_t req = static_cast<uint64_t>(seg) * jobs + job;
      Graph work = input.Clone();
      const double tasks_before =
          traced ? Value(ParseExposition(GlobalExposition()),
                         "grepair_pool_tasks_total")
                 : 0.0;

      const Clock::time_point r0 = Clock::now();
      Result<RepairResult> run = [&] {
        SpanLog::Scope span(log, "repair.run", req);
        return engine.Run(&work, loaded->rules);
      }();
      const Clock::time_point r1 = Clock::now();
      ++res.attempted;
      if (!run.ok()) Fail("RepairEngine::Run: " + run.status().ToString());
      const RepairResult& r = run.value();
      if (r.remaining_violations != 0 || r.budget_exhausted)
        Fail("offline job left " + std::to_string(r.remaining_violations) +
             " violations");
      const double ms = MsBetween(r0, r1);
      (traced || trace == nullptr ? op_ms : untraced_op_ms).push_back(ms);
      run_s += ms / 1000.0;
      edits += static_cast<double>(work.JournalSize());

      // The read: offline `grepair detect` over the repaired graph, which is
      // also the check that the job left it clean.
      const Clock::time_point d0 = Clock::now();
      const size_t left = [&] {
        SpanLog::Scope span(log, "match.count_violations", req);
        return CountViolations(work, loaded->rules, kThreads);
      }();
      const double dms = MsBetween(d0, Clock::now());
      ++res.attempted;
      if (left != 0)
        Fail("detect after repair found " + std::to_string(left) +
             " violations");
      read_ms.push_back(dms);
      read_s += dms / 1000.0;

      const QualityMetrics q =
          EvaluateRepair(work, r.applied, truth, node_bound);
      if (f1 < 0) {
        f1 = q.f1;
      } else if (q.f1 != f1) {
        Fail("repair_f1 differs between identical jobs");
      }

      if (!traced) continue;
      traced_jobs += 1;
      traced_requests += 2;
      run_core_ms.push_back(r.total_ms);
      detect_ms.push_back(r.detect_ms);
      fix_ms.push_back(r.total_ms - r.detect_ms);
      fixes += static_cast<double>(r.applied.size());
      initial += static_cast<double>(r.initial_violations);
      if (Value(ParseExposition(GlobalExposition()),
                "grepair_pool_tasks_total") > tasks_before)
        fanned_out += 1;
      const Clock::time_point b0 = Clock::now();
      {
        SpanLog::Scope span(log, "graph.snapshot_build", req);
        ShardedSnapshot probe(input, 1);
      }
      build_ms.push_back(MsBetween(b0, Clock::now()));
    }
    if (traced) {
      obs::RegisterBuildInfoMetric();
      const std::string text = GlobalExposition();
      AddDelta(before, ParseExposition(text), &delta);
      trace->exposition = text;
    }
  }

  Metrics& m = res.metrics;
  if (trace == nullptr) {
    const Tail op_tail = TailOf(op_ms), read_tail = TailOf(read_ms);
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("op_p50_ms", Median(op_ms), "ms");
    m.Set("op_tail_ms", op_tail.value, "ms");
    m.Set("read_p50_ms", Median(read_ms), "ms");
    m.Set("read_tail_ms", read_tail.value, "ms");
    m.Set("edits_per_s", edits / run_s, "1/s");
    m.Set("reads_per_s", static_cast<double>(read_ms.size()) / read_s, "1/s");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    m.Set("ok_share",
          static_cast<double>(res.attempted - res.failed) / res.attempted,
          "ratio");
    m.Set("repair_f1", f1, "ratio");
    res.info["op_tail_percentile"] = op_tail.percentile;
    res.info["op_samples"] = static_cast<double>(op_tail.samples);
    res.info["read_tail_percentile"] = read_tail.percentile;
    res.info["read_samples"] = static_cast<double>(read_tail.samples);
    return res;
  }

  SetLayerDefaults(&m);
  m.Set("graph.load_ms", Median(load_ms), "ms");
  m.Set("graph.snapshot_build_ms", Median(build_ms), "ms");
  m.Set("grr.parse_rules_ms", Median(parse_ms), "ms");
  SetMatchAndPoolMetrics(delta, traced_requests, &m);
  m.Set("parallel.fanout_share", fanned_out / traced_jobs, "ratio");
  m.Set("repair.run_ms", Median(run_core_ms), "ms");
  m.Set("repair.detect_ms", Median(detect_ms), "ms");
  m.Set("repair.fix_ms", Median(fix_ms), "ms");
  m.Set("repair.fixes", fixes / traced_jobs, "count");
  m.Set("repair.initial_violations", initial / traced_jobs, "count");
  m.Set("client.trace_overhead_pct",
        100.0 * (Median(op_ms) / Median(untraced_op_ms) - 1.0), "%");
  return res;
}

}  // namespace perfbench
