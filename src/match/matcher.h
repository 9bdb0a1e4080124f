// Subgraph-isomorphism search for rule patterns: VF2-style backtracking with
// label/degree candidate pruning, attribute-index joins for disconnected
// components, early predicate evaluation, and NAC checking. Matching is
// injective on node variables and on edge variables.
//
// Every search runs a compiled PlanBody (plan.h): the Matcher compiles the
// body of each anchor shape on its first search with that shape and replays
// its steps — fixed variable order, sorted-range candidate intersection,
// hoisted checks — on every later one.
#ifndef GREPAIR_MATCH_MATCHER_H_
#define GREPAIR_MATCH_MATCHER_H_

#include <functional>
#include <limits>
#include <vector>

#include "graph/graph_view.h"
#include "match/pattern.h"
#include "match/plan.h"

namespace grepair {

/// One embedding of a pattern: nodes[i] is the image of node variable i,
/// edges[j] the image of pattern edge j.
struct Match {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;

  bool operator==(const Match& other) const = default;
  /// True if any element of the match equals the given node/edge.
  bool ContainsNode(NodeId n) const;
  bool ContainsEdge(EdgeId e) const;
};

/// Search controls. Anchors pre-bind variables — the backbone of both
/// "repair this violation here" checks and incremental re-matching.
struct MatchOptions {
  size_t max_matches = std::numeric_limits<size_t>::max();
  /// Pre-bind node variable -> concrete node.
  std::vector<std::pair<VarId, NodeId>> node_anchors;
  /// Pre-bind pattern edge index -> concrete edge (also binds endpoints).
  std::vector<std::pair<size_t, EdgeId>> edge_anchors;
  /// Backtracking budget; exceeded searches stop early (stats.exhausted).
  size_t max_expansions = 50'000'000;
};

struct MatchStats {
  size_t expansions = 0;
  size_t matches = 0;
  bool exhausted = false;  ///< true if the expansion budget was hit
};

/// Return false from the callback to stop enumeration.
using MatchCallback = std::function<bool(const Match&)>;

/// Pattern-matching engine over one frozen graph state (any GraphView:
/// the live Graph between mutations, or an immutable GraphSnapshot).
/// Cheap to construct: nothing compiles until the first search.
///
/// A Matcher keeps the body it compiles for each anchor shape for its whole
/// lifetime, so two rules bind every instance:
///   - it is used by one thread (the body table is unsynchronized; every
///     parallel task builds its own Matcher);
///   - it is not searched again after its graph mutates (a body fixes the
///     variable order from the label counts it was compiled against; the
///     repair loops build a fresh Matcher per fix, per task or per pass).
/// Verify reads no body and is exempt from the second rule.
class Matcher {
 public:
  /// `pattern` must pass Pattern::Validate (at most kMaxPatternNodes
  /// node variables).
  Matcher(const GraphView& graph, const Pattern& pattern);

  /// Enumerates matches; stops at opts.max_matches or when cb returns false.
  MatchStats FindAll(const MatchOptions& opts, const MatchCallback& cb) const;

  /// Collects up to `limit` matches.
  std::vector<Match> Collect(size_t limit = std::numeric_limits<size_t>::max())
      const;
  /// Collects with full options.
  std::vector<Match> CollectWith(const MatchOptions& opts) const;

  /// True iff at least one match exists.
  bool Exists() const;

  /// Counts matches (up to `limit`).
  size_t Count(size_t limit = std::numeric_limits<size_t>::max()) const;

  /// Re-verifies a previously found match against the current graph state:
  /// all elements alive, labels/adjacency intact, predicates and NACs hold.
  bool Verify(const Match& m) const;

  /// The node variable an unanchored FindAll binds first (the first step
  /// of the unanchored body), or kNoVar for a node-less pattern.
  /// Deterministic for a given (graph, pattern) snapshot. This is the
  /// sharding contract used by parallel::ParallelDetector: the full
  /// enumeration order equals the concatenation, over SeedCandidates() in
  /// order, of the anchored searches {SeedVar() -> candidate}.
  VarId SeedVar() const;

  /// The candidates FindAll tries for `var`, which must be SeedVar(), in
  /// enumeration (ascending id) order. Every match binds SeedVar() to
  /// exactly one of these.
  std::vector<NodeId> SeedCandidates(VarId var) const;

 private:
  struct SearchState;
  void Extend(SearchState* st, size_t depth) const;
  void EnumerateEdges(SearchState* st, size_t edge_idx) const;
  bool CheckNewBinding(SearchState* st, VarId var, NodeId node) const;
  bool CheckStepBinding(SearchState* st, const PlanStep& step, NodeId node,
                        uint32_t covered_pivots, int covered_pred) const;
  size_t StepCandidates(SearchState* st, const PlanStep& step, size_t depth,
                        const NodeId** out, uint32_t* covered_pivots,
                        int* covered_pred) const;

  const GraphView& g_;
  const Pattern& p_;
  const GraphSnapshot* snap_;  ///< non-null: zero-copy partition spans
  mutable MatchPlan bodies_;   ///< compiled on first search per anchor shape
};

}  // namespace grepair

#endif  // GREPAIR_MATCH_MATCHER_H_
