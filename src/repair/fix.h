// Candidate fixes: a rule action instantiated at a concrete match, with a
// cost under the weighted-GED model (low-confidence evidence is cheaper to
// delete), application to the graph, and the applied-fix record the
// evaluation compares against ground truth.
#ifndef GREPAIR_REPAIR_FIX_H_
#define GREPAIR_REPAIR_FIX_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "grr/rule.h"
#include "match/matcher.h"

namespace grepair {

/// A fix that has been applied: the canonical description of what changed,
/// plus the journal range holding its primitive edits.
struct AppliedFix {
  RuleId rule;
  ActionKind kind;
  NodeId node_a = kInvalidNode;  ///< primary node (src / deleted / kept)
  NodeId node_b = kInvalidNode;  ///< secondary node (dst / merged-away)
  SymbolId label = 0;            ///< edge label or new node/edge label
  SymbolId attr = 0;
  SymbolId value = 0;
  NodeId new_node = kInvalidNode;  ///< kAddNode only
  size_t journal_begin = 0;
  size_t journal_end = 0;

  std::string ToString(const Vocabulary& vocab) const;
};

/// Cost of repairing `match` with `rule`'s action. Deletion costs scale
/// with the evidence confidence carried by the `conf_attr` edge attribute
/// (numeric string, 0-100; absent = 100), so removing a low-confidence
/// claim is cheaper: this is the weighted-GED "closest repair" semantics.
/// Rule priority divides the final cost (higher priority = preferred).
double FixCost(const GraphView& g, const Rule& rule, const Match& match,
               const CostModel& model, SymbolId conf_attr);

/// The alternative a repair loop applies for one violation: the first
/// strictly cheapest (by FixCost) of `alternatives` that still verifies
/// against `g`'s current state, or nullptr when none does (a stale
/// violation). Its cost goes to `*cost` when non-null.
const Match* CheapestLiveAlternative(const GraphView& g, const Rule& rule,
                                     const std::vector<Match>& alternatives,
                                     const CostModel& model,
                                     SymbolId conf_attr,
                                     double* cost = nullptr);

/// Applies `rule`'s action at `match`. The caller must have verified the
/// match against the current graph. MERGE keeps the lower node id (the
/// deterministic survivor policy).
Result<AppliedFix> ApplyFix(Graph* g, RuleId rule_id, const Rule& rule,
                            const Match& match);

}  // namespace grepair

#endif  // GREPAIR_REPAIR_FIX_H_
