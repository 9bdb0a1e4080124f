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

#include <cstdint>
#include <vector>

#include "graph/edit_log.h"
#include "graph/graph_view.h"
#include "match/matcher.h"

namespace grepair {

/// Footprint hash used to deduplicate delta-found matches (a match reachable
/// through two anchors must be reported once). Shared by FindDelta and the
/// sharded merge in parallel::ParallelDeltaDetector so both paths keep the
/// exact same survivor set.
uint64_t DeltaMatchHash(const Match& m);

/// Incremental (delta-anchored) pattern search over one graph. It holds
/// one Matcher for its whole lifetime, so every anchored search of one
/// shape — across calls and across both anchor kinds — replays the body
/// compiled on the first; it inherits the Matcher's rules (one thread, no
/// search after the graph mutates).
class DeltaMatcher {
 public:
  DeltaMatcher(const GraphView& graph, const Pattern& pattern);

  /// The anchors a delta induces — exposed for tests, diagnostics and
  /// callers that search several rules over one delta. Anchor extraction
  /// reads only the graph and the delta, never the pattern, so one
  /// computation serves every rule of a rule set.
  struct Anchors {
    std::vector<NodeId> nodes;  ///< touched, alive nodes
    std::vector<EdgeId> edges;  ///< added/relabeled, alive edges
  };
  Anchors ComputeAnchors(const std::vector<EditEntry>& delta) const;

  /// Enumerates every match that can be NEW after applying `delta`
  /// (journal entries). May also report surviving old matches; never misses
  /// a new one. Matches are deduplicated within one call.
  MatchStats FindDelta(const std::vector<EditEntry>& delta,
                       const MatchCallback& cb) const;

  /// Same search from precomputed anchors (they must describe the current
  /// graph state).
  MatchStats FindDelta(const Anchors& anchors, const MatchCallback& cb) const;

  /// Raw anchored enumeration through a slice of anchors, WITHOUT the
  /// cross-anchor dedup — the sharding primitive of the parallel delta
  /// path. FindDelta(delta, cb) is exactly: MatchEdgeAnchors over all
  /// anchor edges, then MatchNodeAnchors over all anchor nodes, filtered
  /// through a DeltaMatchHash dedup set. Each anchored search carries its
  /// own expansion budget, so any partition of the anchor lists into
  /// contiguous slices replays the identical searches (tested in
  /// tests/test_incremental.cc).
  MatchStats MatchEdgeAnchors(const std::vector<EdgeId>& anchor_edges,
                              const MatchCallback& cb) const;
  MatchStats MatchNodeAnchors(const std::vector<NodeId>& anchor_nodes,
                              const MatchCallback& cb) const;

 private:
  const GraphView& g_;
  const Pattern& p_;
  Matcher matcher_;
};

}  // namespace grepair

#endif  // GREPAIR_MATCH_INCREMENTAL_H_
