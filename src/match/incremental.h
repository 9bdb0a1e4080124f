// Incremental match maintenance: after the repair engine applies an edit,
// only the neighborhood the edit touched can host NEW matches (violations).
// DeltaMatcher re-searches anchored at the touched elements instead of
// re-running global detection — the core efficiency technique of the
// "efficient repairing methods" half of the paper.
//
// Soundness argument (tested property): a match that exists after a delta
// but not before must use an added element, a relabeled/re-attributed
// element, or have had a NAC blocked by a removed element. Every such match
// therefore contains (a) a touched element among its images, or (b) for the
// NAC case, is discoverable by re-searching around the removed element's
// endpoints. Over-reporting (finding pre-existing matches again) is
// harmless: the violation store deduplicates.
#ifndef GREPAIR_MATCH_INCREMENTAL_H_
#define GREPAIR_MATCH_INCREMENTAL_H_

#include <span>
#include <vector>

#include "graph/edit_log.h"
#include "graph/graph_view.h"
#include "match/matcher.h"

namespace grepair {

/// The anchors a delta induces: the alive elements it touched, ascending.
struct DeltaAnchors {
  std::vector<NodeId> nodes;  ///< touched, alive nodes
  std::vector<EdgeId> edges;  ///< added/relabeled, alive edges
};

/// Extracts the anchors of `delta` (journal entries already applied to
/// `g`). It reads only the graph and the delta, never a pattern, so one
/// computation serves every rule of a rule set.
DeltaAnchors ComputeDeltaAnchors(const GraphView& g,
                                 std::span<const EditEntry> delta);

/// Incremental (delta-anchored) pattern search over one graph. It holds
/// one Matcher for its whole lifetime, so every anchored search of one
/// shape — across calls and across both anchor kinds — replays the body
/// compiled on the first; it inherits the Matcher's rules (one thread, no
/// search after the graph mutates).
class DeltaMatcher {
 public:
  DeltaMatcher(const GraphView& graph, const Pattern& pattern);

  /// Enumerates every match that can be NEW after applying `delta`
  /// (journal entries). May also report surviving old matches; never misses
  /// a new one. Matches are deduplicated within one call.
  MatchStats FindDelta(const std::vector<EditEntry>& delta,
                       const MatchCallback& cb) const;

  /// Same search from precomputed anchors (they must describe the current
  /// graph state): one anchored search per (anchor, pattern element of a
  /// compatible label), edge anchors first, each in ascending id order,
  /// and each with its own expansion budget.
  MatchStats FindDelta(const DeltaAnchors& anchors,
                       const MatchCallback& cb) const;

 private:
  const GraphView& g_;
  const Pattern& p_;
  Matcher matcher_;
};

}  // namespace grepair

#endif  // GREPAIR_MATCH_INCREMENTAL_H_
