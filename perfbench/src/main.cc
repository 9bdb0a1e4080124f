// perfbench: the repository's fixed-work benchmark harness (README.md).
//
//   perfbench --workload offline_repair|serve_stream|serve_mixed --seed N
//             --seconds S --trace 0|1 --dir DIR
//
// Generates the workload's inputs from the seed into DIR, runs kSegments
// cold-started segments of fixed work through the library's public entry
// points, checks every output, and prints:
//   1. the host-shape header (bench_common.h's PrintBenchHeader fields);
//   2. an info line: sample counts, the percentile each tail sits at, and in
//      a traced run the self time of every span name;
//   3. the result: {"correct", "attempted", "failed", "metrics"}. An untraced
//      run reports the end-to-end metrics, a traced run the per-layer ones
//      and writes DIR/trace.json + DIR/metrics.prom.
// A failed correctness check exits 1 without printing a result.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "offline_repair|serve_stream|serve_mixed --seed N --seconds S "
               "--trace 0|1 --dir DIR\n",
               why);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || opt.seconds < 1 || opt.seconds > 60)
        Usage("bad --seconds (1..60)");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace (0 or 1)");
      opt.trace = value == "1";
    } else if (flag == "--dir") {
      opt.dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload != "offline_repair" && opt.workload != "serve_stream" &&
      opt.workload != "serve_mixed")
    Usage("unknown --workload");
  if (opt.dir.empty()) Usage("--dir is required");
  return opt;
}

std::string InfoJson(const RunResult& r, const TraceSink* trace) {
  std::string out = "{\"info\": {";
  bool first = true;
  auto add = [&](const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out += (first ? "\"" : ", \"") + key + "\": " + buf;
    first = false;
  };
  for (const auto& [k, v] : r.info) add(k, v);
  if (trace != nullptr)
    for (const auto& [name, t] : trace->spans.Totals())
      add("self_ms." + name, t.self_ms);
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = ParseArgs(argc, argv);
  try {
    std::filesystem::create_directories(opt.dir);
    const Inputs in = MakeInputs(opt);
    grepair::bench::PrintBenchHeader(
        "perfbench", "\"workload\":\"" + opt.workload +
                         "\",\"seed\":" + std::to_string(opt.seed) +
                         ",\"seconds\":" + std::to_string(opt.seconds) +
                         ",\"trace\":" + (opt.trace ? "1" : "0") +
                         ",\"segments\":" + std::to_string(kSegments));
    std::fflush(stdout);

    TraceSink sink;
    TraceSink* trace = opt.trace ? &sink : nullptr;
    RunResult r = opt.workload == "offline_repair"
                      ? RunOffline(opt, in, trace)
                      : RunServe(opt, in, opt.workload == "serve_mixed", trace);
    if (trace != nullptr) {
      if (!sink.spans.WriteChromeJson(opt.dir + "/trace.json"))
        Fail("cannot write " + opt.dir + "/trace.json");
      std::FILE* f = std::fopen((opt.dir + "/metrics.prom").c_str(), "w");
      if (f == nullptr) Fail("cannot write " + opt.dir + "/metrics.prom");
      std::string text = sink.exposition;
      if (!text.empty() && text.back() != '\n') text += '\n';
      std::fputs(text.c_str(), f);
      std::fclose(f);
    }
    std::printf("%s\n", InfoJson(r, trace).c_str());
    std::printf(
        "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed), r.metrics.Json().c_str());
    return 0;
  } catch (const CheckFailure& f) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.what.c_str());
    return 1;
  }
}
