#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

int OpsPerSegment(const RunOptions& opt, double ops_per_second) {
  const double ops = ops_per_second * opt.seconds / kSegments;
  return std::max(1, static_cast<int>(std::lround(ops)));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  t.percentile = kTailPercentile;
  if (v.size() * (100.0 - kTailPercentile) / 100.0 < 10.0)
    Fail("too few samples for the tail: " + std::to_string(v.size()));
  t.value = Percentile(std::move(v), kTailPercentile);
  return t;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Fail(const std::string& what) { throw CheckFailure{what}; }

std::string Metrics::Json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", vu.first);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  return out + "}";
}

void SetLayerDefaults(Metrics* m) {
  static const char* const kLayerMetrics[][2] = {
      {"graph.load_ms", "ms"},
      {"graph.snapshot_build_ms", "ms"},
      {"grr.parse_rules_ms", "ms"},
      {"match.expansions", "count"},
      {"match.candidates", "count"},
      {"match.plan_compiles", "count"},
      {"match.plan_compile_ms", "ms"},
      {"parallel.tasks", "count"},
      {"parallel.task_wait_ms", "ms"},
      {"parallel.task_run_ms", "ms"},
      {"parallel.fanout_share", "ratio"},
      {"repair.run_ms", "ms"},
      {"repair.detect_ms", "ms"},
      {"repair.fix_ms", "ms"},
      {"repair.fixes", "count"},
      {"repair.initial_violations", "count"},
      {"serve.edit_ms", "ms"},
      {"serve.commit_core_ms", "ms"},
      {"serve.seed_detect_ms", "ms"},
      {"serve.publish_ms", "ms"},
      {"serve.read_core_ms", "ms"},
      {"serve.op_errors", "count"},
      {"serve.stale_reads", "count"},
      {"storage.open_ms", "ms"},
      {"storage.wal_appends", "count"},
      {"storage.wal_syncs", "count"},
      {"storage.wal_bytes_per_edit", "B/edit"},
      {"storage.checkpoints", "count"},
      {"storage.checkpoint_commit_ms", "ms"},
      {"client.trace_overhead_pct", "%"},
  };
  for (const auto& [name, unit] : kLayerMetrics) m->Set(name, 0.0, unit);
}

void SetMatchAndPoolMetrics(const Exposition& delta, double requests,
                            Metrics* m) {
  m->Set("match.expansions",
         Value(delta, "grepair_match_expansions_total") / requests, "count");
  m->Set("match.candidates",
         Value(delta, "grepair_match_candidates_total") / requests, "count");
  const double compiles = Value(delta, "grepair_plan_compiles_total");
  m->Set("match.plan_compiles", compiles / requests, "count");
  m->Set("match.plan_compile_ms",
         compiles > 0
             ? Value(delta, "grepair_plan_compile_us_total") / 1000.0 / compiles
             : 0.0,
         "ms");
  m->Set("parallel.tasks", Value(delta, "grepair_pool_tasks_total") / requests,
         "count");
  m->Set("parallel.task_wait_ms",
         HistogramMean(delta, "grepair_pool_task_wait_ms"), "ms");
  m->Set("parallel.task_run_ms",
         HistogramMean(delta, "grepair_pool_task_run_ms"), "ms");
}

Exposition ParseExposition(const std::string& text) {
  Exposition out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

void AddDelta(const Exposition& before, const Exposition& after,
              Exposition* acc) {
  for (const auto& [key, v] : after) (*acc)[key] += v - Value(before, key);
}

double Value(const Exposition& delta, const std::string& key) {
  auto it = delta.find(key);
  return it == delta.end() ? 0.0 : it->second;
}

double HistogramMean(const Exposition& delta, const std::string& name) {
  const double count = Value(delta, name + "_count");
  return count > 0 ? Value(delta, name + "_sum") / count : 0.0;
}

}  // namespace perfbench
