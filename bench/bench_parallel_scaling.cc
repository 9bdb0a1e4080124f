// P1 — Detection throughput vs thread count: full violation detection
// (DetectAll) on the F5 scalability knowledge graphs (5% errors) at 1, 2, 4
// and 8 worker threads. Detection is the read path the parallel subsystem
// accelerates; output is bit-identical across thread counts (asserted in
// tests/test_parallel.cc), so this bench reports pure wall-clock scaling.
// Each row is also emitted as a self-describing JSON line (see
// PrintBenchHeader for the run-level header).
#include "bench_common.h"

#include "graph/snapshot.h"
#include "util/timer.h"

using namespace grepair;
using namespace grepair::bench;

namespace {

// Median-of-3 detection wall-clock, fresh store each run. The graph never
// changes across the thread sweep, so all runs read one snapshot built
// once and passed in as the view — the sweep then measures matching over
// the same store at every thread count.
double DetectMs(const GraphSnapshot& snap, const RuleSet& rules,
                size_t threads, size_t* violations) {
  double samples[3];
  for (double& s : samples) {
    ViolationStore store;
    Timer t;
    *violations = DetectAll(snap, rules, &store, nullptr, threads);
    s = t.ElapsedMs();
  }
  std::sort(std::begin(samples), std::end(samples));
  return samples[1];
}

}  // namespace

int main() {
  PrintBenchHeader("P1: detection throughput vs threads (KG, 5% errors)");
  TableWriter t("P1: detection wall-clock vs threads (KG, 5% errors)",
                {"persons", "|V|", "|E|", "violations", "t1_ms", "t2_ms",
                 "t4_ms", "t8_ms", "speedup_4t"});

  const size_t kPersons[] = {1000, 2000, 4000, 8000};
  const size_t kThreads[] = {1, 2, 4, 8};
  for (size_t persons : kPersons) {
    KgOptions gopt;
    gopt.num_persons = persons;
    gopt.num_cities = persons / 10;
    gopt.num_countries = std::max<size_t>(10, persons / 200);
    gopt.num_orgs = persons / 15;
    InjectOptions iopt;
    iopt.rate = 0.05;
    DatasetBundle bundle = MustKgBundle(gopt, iopt);

    GraphSnapshot snap(bundle.graph);  // one build for the whole sweep
    size_t violations = 0;
    double ms[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < 4; ++i) {
      ms[i] = DetectMs(snap, bundle.rules, kThreads[i], &violations);
      std::printf("{\"persons\":%zu,\"nodes\":%zu,\"edges\":%zu,"
                  "\"threads\":%zu,\"violations\":%zu,\"detect_ms\":%.2f,"
                  "\"snapshot_reused\":true}\n",
                  persons, bundle.graph.NumNodes(), bundle.graph.NumEdges(),
                  kThreads[i], violations, ms[i]);
    }

    t.AddRow({TableWriter::Int(int64_t(persons)),
              TableWriter::Int(int64_t(bundle.graph.NumNodes())),
              TableWriter::Int(int64_t(bundle.graph.NumEdges())),
              TableWriter::Int(int64_t(violations)),
              TableWriter::Num(ms[0], 1), TableWriter::Num(ms[1], 1),
              TableWriter::Num(ms[2], 1), TableWriter::Num(ms[3], 1),
              TableWriter::Num(ms[0] / std::max(0.01, ms[2]), 2)});
  }

  t.Print();
  std::puts("\nCSV:");
  std::fputs(t.ToCsv().c_str(), stdout);
  return 0;
}
