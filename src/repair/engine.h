// The repair engine: detect violations of a GRR set, choose fixes under the
// configured strategy, apply until a fixpoint (no violations) or a budget is
// exhausted. Detection can be incremental (delta-anchored around each edit)
// or full re-detection — the central efficiency comparison of the paper.
#ifndef GREPAIR_REPAIR_ENGINE_H_
#define GREPAIR_REPAIR_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "grr/rule.h"
#include "match/incremental.h"
#include "repair/fix.h"
#include "repair/strategy.h"
#include "repair/violation.h"
#include "util/status.h"

namespace grepair {

/// Engine configuration.
struct RepairOptions {
  RepairStrategy strategy = RepairStrategy::kGreedy;
  /// Delta-anchored re-detection after edits (vs full re-detection).
  bool incremental = true;
  /// Hard caps; exceeded runs return partially repaired graphs with
  /// budget_exhausted set (this is how non-terminating rule sets surface).
  size_t max_fixes = 1'000'000;
  size_t max_rounds = 10'000;
  /// Edge attribute carrying evidence confidence ("" disables weighting).
  std::string confidence_attr = "conf";
  /// Cost model for fix selection and the reported repair cost.
  CostModel cost_model;
  /// Track graph fingerprints and stop when a state repeats (oscillation).
  bool detect_oscillation = false;
  /// Naive-strategy shuffle seed (arbitrary order is seeded for
  /// reproducibility).
  uint64_t seed = 1;
  /// Exact-strategy budgets.
  size_t exact_max_expansions = 500'000;
  size_t exact_max_depth = 64;
  /// Worker threads for full (re-)detection — the initial detection of
  /// incremental mode and every full re-detection route through
  /// parallel::ParallelDetector when this exceeds 1 (0 = hardware
  /// concurrency). Results are bit-identical to the sequential path; only
  /// wall-clock and the expansions statistic change. Delta-anchored
  /// re-detection stays sequential (it is already O(delta)).
  size_t num_threads = 1;
};

/// Outcome of a repair run.
struct RepairResult {
  std::vector<AppliedFix> applied;
  size_t rounds = 0;
  size_t initial_violations = 0;
  size_t remaining_violations = 0;  ///< from a final full re-detection
  double repair_cost = 0.0;         ///< weighted journal cost of all edits
  double detect_ms = 0.0;           ///< time in (re-)detection
  double total_ms = 0.0;
  size_t matcher_expansions = 0;
  bool budget_exhausted = false;
  bool oscillation_detected = false;
};

/// Runs detection only: fills `store` with every violation of `rules` in
/// `g`. Returns the number of live violations. With num_threads > 1 the
/// matching fans out over a thread pool whose workers read `g` itself;
/// the store contents and order are identical to the sequential result for
/// any thread count. A caller that wants snapshot reads passes the snapshot
/// as `g` — reads over any view are bit-identical, so results do not
/// depend on which one is supplied.
size_t DetectAll(const GraphView& g, const RuleSet& rules,
                 ViolationStore* store,
                 size_t* expansions = nullptr, size_t num_threads = 1);

/// Counts violations without keeping them.
size_t CountViolations(const GraphView& g, const RuleSet& rules,
                       size_t num_threads = 1);

/// Delta-anchored re-detection: adds, for every rule, each violation the
/// edit slice behind `anchors` (ComputeDeltaAnchors, once per slice) can
/// have introduced to `store`, costed with `model`/`conf_attr` exactly like
/// full detection. Sequential, on the calling thread. Every delta pass runs
/// through it: the seed and per-fix cascade of RunDelta, the incremental
/// re-detection of RunGreedy and RunBatch, and a served commit's seed and
/// cascade (src/serve/).
void DetectDelta(const GraphView& g, const RuleSet& rules,
                 const DeltaAnchors& anchors, ViolationStore* store,
                 const CostModel& model, SymbolId conf_attr,
                 size_t* expansions);

/// The engine. Stateless across runs; all state lives in the Graph and the
/// run-local stores.
class RepairEngine {
 public:
  explicit RepairEngine(RepairOptions options = {});

  /// Repairs `g` in place against `rules`. The journal after the call holds
  /// every edit (cost-accounted in the result).
  Result<RepairResult> Run(Graph* g, const RuleSet& rules) const;

  /// Dynamic repair: assumes `g` was consistent at journal mark
  /// `since_mark` and repairs ONLY the violations introduced by the edits
  /// journaled after it (plus any repair cascades). Detection cost is
  /// proportional to the delta, not |G| — the API a live system uses to
  /// keep a graph clean under a stream of updates. Greedy/incremental by
  /// construction (the strategy option is ignored).
  Result<RepairResult> RunDelta(Graph* g, const RuleSet& rules,
                                size_t since_mark) const;

  const RepairOptions& options() const { return options_; }

 private:
  /// With `since_mark`, seeds from the journal slice after it (RunDelta)
  /// instead of a full detection pass.
  Result<RepairResult> RunGreedy(
      Graph* g, const RuleSet& rules,
      std::optional<size_t> since_mark = std::nullopt) const;
  Result<RepairResult> RunNaive(Graph* g, const RuleSet& rules) const;
  Result<RepairResult> RunBatch(Graph* g, const RuleSet& rules) const;
  Result<RepairResult> RunExact(Graph* g, const RuleSet& rules) const;

  SymbolId ConfAttr(const Graph& g) const;

  RepairOptions options_;
};

}  // namespace grepair

#endif  // GREPAIR_REPAIR_ENGINE_H_
