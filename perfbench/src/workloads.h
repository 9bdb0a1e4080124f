// The three workloads. Each runs kSegments identical segments; a segment
// starts the system cold from the input files kSetupsPerSegment times (one
// setup_s sample each) and then does a fixed number of ops. main()
// generates the inputs and prints the result.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"
#include "graph/error_injector.h"
#include "graph/graph.h"
#include "graph/vocabulary.h"
#include "grr/rule.h"
#include "trace.h"

namespace perfbench {

/// The files the program sees, plus what only the harness knows about them.
struct Inputs {
  std::string graph_path;
  std::string rules_path;
  /// offline_repair: the injected errors, with symbols of `truth_vocab`
  /// and the node ids LoadGraph gives the graph file.
  grepair::InjectReport truth;
  grepair::VocabularyPtr truth_vocab;
  /// Seed of the serve workloads' edit stream.
  uint64_t stream_seed = 0;
};

/// Generates the workload's inputs from `opt.seed` and writes them under
/// `opt.dir`. Untimed: generation, error injection and the clean-up repair
/// of the serving graph are the harness's work, not the program's.
Inputs MakeInputs(const RunOptions& opt);

/// The cold part every set-up shares: a fresh vocabulary, LoadGraph and
/// ParseRules on the input files, each timed and spanned.
struct Loaded {
  grepair::VocabularyPtr vocab;
  grepair::Graph graph;
  grepair::RuleSet rules;
  double load_ms = 0.0;
  double parse_ms = 0.0;
};
Loaded LoadInputs(const Inputs& in, SpanLog* log, uint64_t segment);

/// What a traced run writes besides its per-layer metrics: the spans and
/// the program's metrics exposition.
struct TraceSink {
  SpanTrace spans;
  std::string exposition;  ///< the last traced segment's `metrics` text
};

RunResult RunOffline(const RunOptions& opt, const Inputs& in,
                     TraceSink* trace);
RunResult RunServe(const RunOptions& opt, const Inputs& in, bool mixed,
                   TraceSink* trace);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
