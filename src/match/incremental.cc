#include "match/incremental.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "util/hash.h"

namespace grepair {

namespace {

// Footprint hash that deduplicates delta-found matches: a match reachable
// through two anchors is reported once.
uint64_t DeltaMatchHash(const Match& m) {
  uint64_t h = 0;
  for (NodeId n : m.nodes) h = HashCombine(h, n);
  for (EdgeId e : m.edges) h = HashCombine(h, 0x800000000ULL + e);
  return h;
}

}  // namespace

DeltaAnchors ComputeDeltaAnchors(const GraphView& g,
                                 std::span<const EditEntry> delta) {
  DeltaAnchors a;
  std::unordered_set<NodeId> nodes;
  std::unordered_set<EdgeId> edges;
  auto touch_node = [&](NodeId n) {
    if (n != kInvalidNode && g.NodeAlive(n)) nodes.insert(n);
  };
  for (const auto& e : delta) {
    switch (e.kind) {
      case EditKind::kAddNode:
        touch_node(e.node);
        break;
      case EditKind::kRemoveNode:
        // The node itself is gone; its cascaded edge removals (journaled
        // before this entry) carry the neighborhood.
        break;
      case EditKind::kAddEdge:
        if (g.EdgeAlive(e.edge)) edges.insert(e.edge);
        touch_node(e.src);
        touch_node(e.dst);
        break;
      case EditKind::kRemoveEdge:
        // Removal can only enable NAC-blocked matches around the endpoints.
        touch_node(e.src);
        touch_node(e.dst);
        break;
      case EditKind::kSetNodeLabel:
      case EditKind::kSetNodeAttr:
        touch_node(e.node);
        break;
      case EditKind::kSetEdgeLabel:
        if (g.EdgeAlive(e.edge)) {
          edges.insert(e.edge);
          touch_node(g.Edge(e.edge).src);
          touch_node(g.Edge(e.edge).dst);
        }
        break;
      case EditKind::kSetEdgeAttr:
        if (g.EdgeAlive(e.edge)) edges.insert(e.edge);
        break;
    }
  }
  a.nodes.assign(nodes.begin(), nodes.end());
  a.edges.assign(edges.begin(), edges.end());
  std::sort(a.nodes.begin(), a.nodes.end());
  std::sort(a.edges.begin(), a.edges.end());
  return a;
}

DeltaMatcher::DeltaMatcher(const GraphView& graph, const Pattern& pattern)
    : g_(graph), p_(pattern), matcher_(graph, pattern) {}

MatchStats DeltaMatcher::FindDelta(const std::vector<EditEntry>& delta,
                                   const MatchCallback& cb) const {
  return FindDelta(ComputeDeltaAnchors(g_, delta), cb);
}

MatchStats DeltaMatcher::FindDelta(const DeltaAnchors& anchors,
                                   const MatchCallback& cb) const {
  MatchStats total;
  std::unordered_set<uint64_t> seen;
  bool stop = false;
  auto search = [&](const MatchOptions& opts) {
    MatchStats st = matcher_.FindAll(opts, [&](const Match& m) {
      if (!seen.insert(DeltaMatchHash(m)).second) return true;  // reported
      if (!cb(m)) {
        stop = true;
        return false;
      }
      return true;
    });
    total.expansions += st.expansions;
    total.exhausted |= st.exhausted;
  };

  // Edge anchors: matches that use an added/relabeled edge.
  for (size_t k = 0; k < anchors.edges.size() && !stop; ++k) {
    const EdgeId eid = anchors.edges[k];
    const SymbolId el = g_.EdgeLabel(eid);
    for (size_t i = 0; i < p_.NumEdges() && !stop; ++i) {
      const auto& pe = p_.edges()[i];
      if (pe.label != 0 && pe.label != el) continue;
      MatchOptions opts;
      opts.edge_anchors.push_back({i, eid});
      search(opts);
    }
  }
  // Node anchors: matches through touched nodes (covers added nodes,
  // relabels, attr changes, and NAC-enabling removals around endpoints).
  for (size_t k = 0; k < anchors.nodes.size() && !stop; ++k) {
    const NodeId nid = anchors.nodes[k];
    const SymbolId nl = g_.NodeLabel(nid);
    for (VarId v = 0; v < p_.NumNodes() && !stop; ++v) {
      const auto& pn = p_.nodes()[v];
      if (pn.label != 0 && pn.label != nl) continue;
      MatchOptions opts;
      opts.node_anchors.push_back({v, nid});
      search(opts);
    }
  }
  total.matches = seen.size();
  return total;
}

}  // namespace grepair
