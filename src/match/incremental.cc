#include "match/incremental.h"

#include <algorithm>
#include <unordered_set>

#include "util/hash.h"

namespace grepair {

uint64_t DeltaMatchHash(const Match& m) {
  uint64_t h = 0;
  for (NodeId n : m.nodes) h = HashCombine(h, n);
  for (EdgeId e : m.edges) h = HashCombine(h, 0x800000000ULL + e);
  return h;
}

DeltaMatcher::DeltaMatcher(const GraphView& graph, const Pattern& pattern)
    : g_(graph), p_(pattern), matcher_(graph, pattern) {}

DeltaMatcher::Anchors DeltaMatcher::ComputeAnchors(
    const std::vector<EditEntry>& delta) const {
  Anchors a;
  std::unordered_set<NodeId> nodes;
  std::unordered_set<EdgeId> edges;
  auto touch_node = [&](NodeId n) {
    if (n != kInvalidNode && g_.NodeAlive(n)) nodes.insert(n);
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
        if (g_.EdgeAlive(e.edge)) edges.insert(e.edge);
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
        if (g_.EdgeAlive(e.edge)) {
          edges.insert(e.edge);
          touch_node(g_.Edge(e.edge).src);
          touch_node(g_.Edge(e.edge).dst);
        }
        break;
      case EditKind::kSetEdgeAttr:
        if (g_.EdgeAlive(e.edge)) edges.insert(e.edge);
        break;
    }
  }
  a.nodes.assign(nodes.begin(), nodes.end());
  a.edges.assign(edges.begin(), edges.end());
  std::sort(a.nodes.begin(), a.nodes.end());
  std::sort(a.edges.begin(), a.edges.end());
  return a;
}

MatchStats DeltaMatcher::MatchEdgeAnchors(
    const std::vector<EdgeId>& anchor_edges, const MatchCallback& cb) const {
  MatchStats total;
  bool stop = false;
  auto counting_cb = [&](const Match& m) {
    if (!cb(m)) {
      stop = true;
      return false;
    }
    return true;
  };
  // Edge anchors: matches that use an added/relabeled edge.
  for (EdgeId eid : anchor_edges) {
    SymbolId el = g_.EdgeLabel(eid);
    for (size_t i = 0; i < p_.NumEdges(); ++i) {
      const auto& pe = p_.edges()[i];
      if (pe.label != 0 && pe.label != el) continue;
      MatchOptions opts;
      opts.edge_anchors.push_back({i, eid});
      MatchStats st = matcher_.FindAll(opts, counting_cb);
      total.expansions += st.expansions;
      total.matches += st.matches;
      total.exhausted |= st.exhausted;
      if (stop) return total;
    }
  }
  return total;
}

MatchStats DeltaMatcher::MatchNodeAnchors(
    const std::vector<NodeId>& anchor_nodes, const MatchCallback& cb) const {
  MatchStats total;
  bool stop = false;
  auto counting_cb = [&](const Match& m) {
    if (!cb(m)) {
      stop = true;
      return false;
    }
    return true;
  };
  // Node anchors: matches through touched nodes (covers added nodes,
  // relabels, attr changes, and NAC-enabling removals around endpoints).
  for (NodeId nid : anchor_nodes) {
    SymbolId nl = g_.NodeLabel(nid);
    for (VarId v = 0; v < p_.NumNodes(); ++v) {
      const auto& pn = p_.nodes()[v];
      if (pn.label != 0 && pn.label != nl) continue;
      MatchOptions opts;
      opts.node_anchors.push_back({v, nid});
      MatchStats st = matcher_.FindAll(opts, counting_cb);
      total.expansions += st.expansions;
      total.matches += st.matches;
      total.exhausted |= st.exhausted;
      if (stop) return total;
    }
  }
  return total;
}

MatchStats DeltaMatcher::FindDelta(const std::vector<EditEntry>& delta,
                                   const MatchCallback& cb) const {
  return FindDelta(ComputeAnchors(delta), cb);
}

MatchStats DeltaMatcher::FindDelta(const Anchors& anchors,
                                   const MatchCallback& cb) const {
  MatchStats total;

  // Dedup across anchor runs.
  std::unordered_set<uint64_t> seen;
  bool stop = false;
  auto dedup_cb = [&](const Match& m) {
    if (!seen.insert(DeltaMatchHash(m)).second) return true;  // reported
    if (!cb(m)) {
      stop = true;
      return false;
    }
    return true;
  };

  MatchStats st = MatchEdgeAnchors(anchors.edges, dedup_cb);
  total.expansions += st.expansions;
  total.exhausted |= st.exhausted;
  if (!stop) {
    st = MatchNodeAnchors(anchors.nodes, dedup_cb);
    total.expansions += st.expansions;
    total.exhausted |= st.exhausted;
  }
  total.matches = seen.size();
  return total;
}

}  // namespace grepair
