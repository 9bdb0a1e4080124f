#include "graph/snapshot.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <tuple>

#include "obs/trace.h"

namespace grepair {

namespace {

// Rough heap footprint of an unordered_map: bucket array plus one heap node
// per element. Close enough for the capacity-planning purpose of
// MemoryBytes().
template <typename Map>
size_t HashMapBytes(const Map& m) {
  return m.bucket_count() * sizeof(void*) +
         m.size() * (sizeof(typename Map::value_type) + 2 * sizeof(void*));
}

AttrMap AttrMapFromSnapshot(
    const std::vector<std::pair<SymbolId, SymbolId>>& snapshot) {
  AttrMap m;
  m.Reserve(snapshot.size());
  // Snapshot pairs are sorted by attr id, so each Set appends at the tail.
  for (const auto& [a, v] : snapshot) m.Set(a, v);
  return m;
}

void SortedInsert(std::vector<NodeId>* v, NodeId x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  assert(it == v->end() || *it != x);
  v->insert(it, x);
}

void SortedErase(std::vector<NodeId>* v, NodeId x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  assert(it != v->end() && *it == x);
  v->erase(it);
}

}  // namespace

GraphSnapshot::GraphSnapshot(const GraphView& g, SnapshotShard shard)
    : vocab_(g.vocab()), shard_(shard) {
  OBS_SPAN_ARG("snapshot.build", "shard", shard.index);
  const size_t nb = g.NodeIdBound();
  const size_t eb = g.EdgeIdBound();
  base_node_bound_ = nb;
  base_edge_bound_ = eb;

  // --- Node columns + label/attr partitions ----------------------------
  // Columns span the FULL id space even when sharded (routing stays O(1)
  // id arithmetic), but non-owned ids keep their defaults: the owner shard
  // is the only one ever read for them.
  node_alive_.resize(nb, 0);
  node_label_.resize(nb, 0);
  node_attrs_.resize(nb);
  adj_patched_.resize(nb, 0);
  // Ordered buckets so the flattened partitions are deterministic; node ids
  // are appended in ascending order, so every group comes out ascending.
  std::map<SymbolId, std::vector<NodeId>> label_buckets;
  std::map<uint64_t, std::vector<NodeId>> attr_buckets;
  for (NodeId n = 0; n < nb; ++n) {
    if (!shard_.OwnsNode(n)) continue;
    node_label_[n] = g.NodeLabel(n);
    node_attrs_[n] = g.NodeAttrs(n);  // tombstones keep attrs addressable
    if (!g.NodeAlive(n)) continue;
    node_alive_[n] = 1;
    ++num_nodes_;
    label_buckets[node_label_[n]].push_back(n);
    for (const auto& [a, v] : node_attrs_[n].entries())
      attr_buckets[AttrKey(a, v)].push_back(n);
  }
  label_nodes_.reserve(2 * num_nodes_);
  // Group 0: all alive nodes, ascending (mirrors Graph's label_index_[0]).
  {
    Range all;
    all.offset = 0;
    all.len = static_cast<uint32_t>(num_nodes_);
    label_nodes_.resize(num_nodes_);
    NodeId* out = label_nodes_.data();
    for (NodeId n = 0; n < nb; ++n)
      if (node_alive_[n]) *out++ = n;
    label_dir_[0] = all;
  }
  for (const auto& [label, nodes] : label_buckets) {
    if (label == 0) continue;  // unlabeled nodes are only in group 0
    Range r;
    r.offset = static_cast<uint32_t>(label_nodes_.size());
    r.len = static_cast<uint32_t>(nodes.size());
    label_nodes_.insert(label_nodes_.end(), nodes.begin(), nodes.end());
    label_dir_[label] = r;
  }
  size_t attr_total = 0;
  for (const auto& [key, nodes] : attr_buckets) attr_total += nodes.size();
  attr_nodes_.reserve(attr_total);
  for (const auto& [key, nodes] : attr_buckets) {
    Range r;
    r.offset = static_cast<uint32_t>(attr_nodes_.size());
    r.len = static_cast<uint32_t>(nodes.size());
    attr_nodes_.insert(attr_nodes_.end(), nodes.begin(), nodes.end());
    attr_dir_[key] = r;
  }

  // --- Edge columns ----------------------------------------------------
  // An edge belongs to its src's shard; non-owned edges (including their
  // tombstones) stay at defaults and are read through their owner.
  edge_alive_.resize(eb, 0);
  edge_src_.resize(eb, kInvalidNode);
  edge_dst_.resize(eb, kInvalidNode);
  edge_label_.resize(eb, 0);
  edge_attrs_.resize(eb);
  for (EdgeId e = 0; e < eb; ++e) {
    EdgeView v = g.Edge(e);
    if (!shard_.OwnsNode(v.src)) continue;
    edge_src_[e] = v.src;
    edge_dst_[e] = v.dst;
    edge_label_[e] = v.label;
    edge_attrs_[e] = g.EdgeAttrs(e);
    if (!g.EdgeAlive(e)) continue;
    edge_alive_[e] = 1;
    ++num_edges_;
    alive_edges_.push_back(e);
  }

  // --- CSR adjacency, source order preserved verbatim ------------------
  out_offset_.assign(nb + 1, 0);
  in_offset_.assign(nb + 1, 0);
  for (NodeId n = 0; n < nb; ++n) {
    // Dead nodes have empty adjacency (RemoveNode cascades first).
    out_offset_[n + 1] =
        out_offset_[n] +
        static_cast<uint32_t>(node_alive_[n] ? g.OutEdges(n).size() : 0);
    in_offset_[n + 1] =
        in_offset_[n] +
        static_cast<uint32_t>(node_alive_[n] ? g.InEdges(n).size() : 0);
  }
  out_edges_.resize(out_offset_[nb]);
  in_edges_.resize(in_offset_[nb]);
  for (NodeId n = 0; n < nb; ++n) {
    if (!node_alive_[n]) continue;
    IdSpan out = g.OutEdges(n);
    std::copy(out.begin(), out.end(), out_edges_.begin() + out_offset_[n]);
    IdSpan in = g.InEdges(n);
    std::copy(in.begin(), in.end(), in_edges_.begin() + in_offset_[n]);
  }

  // --- (src, dst, label, id)-sorted alive-edge index for HasEdge -------
  edge_search_ = alive_edges_;
  std::sort(edge_search_.begin(), edge_search_.end(),
            [this](EdgeId a, EdgeId b) { return EdgeSearchLess(a, b); });
}

// ------------------------------------------------------------------ reads

EdgeId GraphSnapshot::FindEdge(NodeId src, NodeId dst, SymbolId label) const {
  // Same scan (and therefore same "first edge") as Graph::FindEdge: walk
  // the smaller adjacency side in stored order.
  if (!NodeAlive(src) || !NodeAlive(dst)) return kInvalidEdge;
  if (OutDegree(src) <= InDegree(dst)) {
    for (EdgeId e : OutEdges(src))
      if (edge_dst_[e] == dst && (label == 0 || edge_label_[e] == label))
        return e;
  } else {
    for (EdgeId e : InEdges(dst))
      if (edge_src_[e] == src && (label == 0 || edge_label_[e] == label))
        return e;
  }
  return kInvalidEdge;
}

bool GraphSnapshot::SearchIndexContains(const std::vector<EdgeId>& index,
                                        NodeId src, NodeId dst,
                                        SymbolId label, bool base) const {
  // Lower bound of (src, dst, label, 0); every hit with that (src, dst) —
  // and that exact label when one was asked for — is a candidate. Base
  // entries can be stale after a patch (removed or relabeled), so scan the
  // matching run for the first still-valid entry; label==0 accepts the
  // whole (src, dst) run. The base array stays sorted under the BUILD-time
  // labels (BaseSearchLabel), which equal the current labels on every
  // still-valid entry; the added side is keyed by current labels.
  auto it = std::lower_bound(
      index.begin(), index.end(), std::make_tuple(src, dst, label),
      [this, base](EdgeId e, const auto& key) {
        if (edge_src_[e] != std::get<0>(key))
          return edge_src_[e] < std::get<0>(key);
        if (edge_dst_[e] != std::get<1>(key))
          return edge_dst_[e] < std::get<1>(key);
        SymbolId l = base ? BaseSearchLabel(e) : edge_label_[e];
        return l < std::get<2>(key);
      });
  for (; it != index.end(); ++it) {
    EdgeId e = *it;
    if (edge_src_[e] != src || edge_dst_[e] != dst) return false;
    SymbolId l = base ? BaseSearchLabel(e) : edge_label_[e];
    if (label != 0 && l != label) return false;
    if (base && has_patches_ &&
        (edge_alive_[e] == 0 || edge_search_dead_.count(e) != 0))
      continue;
    return true;
  }
  return false;
}

bool GraphSnapshot::EdgeIndexContains(NodeId src, NodeId dst,
                                      SymbolId label) const {
  if (SearchIndexContains(edge_search_, src, dst, label, /*base=*/true))
    return true;
  return has_patches_ &&
         SearchIndexContains(edge_search_added_, src, dst, label,
                             /*base=*/false);
}

bool GraphSnapshot::HasEdge(NodeId src, NodeId dst, SymbolId label) const {
  if (!NodeAlive(src) || !NodeAlive(dst)) return false;
  return EdgeIndexContains(src, dst, label);
}

std::vector<NodeId> GraphSnapshot::Nodes() const {
  IdSpan all = NodesWithLabelSorted(0);
  return std::vector<NodeId>(all.begin(), all.end());
}

std::vector<EdgeId> GraphSnapshot::Edges() const {
  if (!has_patches_) return alive_edges_;
  // Merge the still-alive base list with the patch-added ids (both
  // ascending and disjoint by construction).
  std::vector<EdgeId> out;
  out.reserve(num_edges_);
  auto add = alive_added_.begin();
  for (EdgeId e : alive_edges_) {
    if (edge_alive_[e] == 0) continue;
    while (add != alive_added_.end() && *add < e) out.push_back(*add++);
    out.push_back(e);
  }
  out.insert(out.end(), add, alive_added_.end());
  return out;
}

IdSpan GraphSnapshot::NodesWithLabelSorted(SymbolId label) const {
  if (has_patches_) {
    auto it = label_patch_.find(label);
    if (it != label_patch_.end())
      return {it->second.data(), it->second.size()};
  }
  auto it = label_dir_.find(label);
  if (it == label_dir_.end()) return {};
  return {label_nodes_.data() + it->second.offset, it->second.len};
}

IdSpan GraphSnapshot::NodesWithAttrSorted(SymbolId attr,
                                          SymbolId value) const {
  if (has_patches_) {
    auto it = attr_patch_.find(AttrKey(attr, value));
    if (it != attr_patch_.end())
      return {it->second.data(), it->second.size()};
  }
  auto it = attr_dir_.find(AttrKey(attr, value));
  if (it == attr_dir_.end()) return {};
  return {attr_nodes_.data() + it->second.offset, it->second.len};
}

bool GraphSnapshot::CollectNodesWithLabel(SymbolId label,
                                          std::vector<NodeId>* out) const {
  IdSpan range = NodesWithLabelSorted(label);
  out->assign(range.begin(), range.end());
  return true;  // partitions are ascending
}

bool GraphSnapshot::CollectNodesWithAttr(SymbolId attr, SymbolId value,
                                         std::vector<NodeId>* out) const {
  IdSpan range = NodesWithAttrSorted(attr, value);
  out->assign(range.begin(), range.end());
  return true;  // partitions are ascending
}

size_t GraphSnapshot::CountNodesWithLabel(SymbolId label) const {
  return NodesWithLabelSorted(label).size();
}

// ------------------------------------------------------------------ patch

void GraphSnapshot::Patch(const EditEntry* records, size_t n) {
  OBS_SPAN_ARG("snapshot.patch", "shard", shard_.index);
  // A sharded snapshot receives the FULL record slice and applies only the
  // records touching its slice; PatchedEdits() counts exactly those, which
  // is what the per-shard rebuild heuristics budget against. Monolithic
  // snapshots apply (and count) everything, as before.
  for (size_t i = 0; i < n; ++i) {
    if (!AppliesTo(records[i])) continue;
    has_patches_ = true;
    ++patched_edits_;
    PatchOne(records[i]);
  }
}

bool GraphSnapshot::AppliesTo(const EditEntry& rec) const {
  switch (rec.kind) {
    case EditKind::kAddNode:
    case EditKind::kRemoveNode:
    case EditKind::kSetNodeLabel:
    case EditKind::kSetNodeAttr:
      return shard_.OwnsNode(rec.node);
    case EditKind::kAddEdge:
    case EditKind::kRemoveEdge:
      // The src shard owns the edge; the dst shard owns the in-adjacency
      // side effect. Either involvement makes the record this shard's.
      return shard_.OwnsNode(rec.src) || shard_.OwnsNode(rec.dst);
    case EditKind::kSetEdgeLabel:
    case EditKind::kSetEdgeAttr:
      // These records carry no endpoints; ownership comes from the edge's
      // own (owned-only) src column.
      return OwnsEdge(rec.edge);
  }
  return false;
}

void GraphSnapshot::PatchOne(const EditEntry& rec) {
  switch (rec.kind) {
    case EditKind::kAddNode:
      PatchAddNode(rec);
      return;
    case EditKind::kRemoveNode:
      PatchRemoveNode(rec);
      return;
    case EditKind::kAddEdge:
      PatchAddEdge(rec);
      return;
    case EditKind::kRemoveEdge:
      PatchRemoveEdge(rec);
      return;
    case EditKind::kSetNodeLabel: {
      NodeId n = rec.node;
      SymbolId old = node_label_[n];
      if (old != 0) SortedErase(&TouchLabelGroup(old), n);
      node_label_[n] = rec.new_sym;
      if (rec.new_sym != 0) SortedInsert(&TouchLabelGroup(rec.new_sym), n);
      return;
    }
    case EditKind::kSetEdgeLabel: {
      EdgeId e = rec.edge;
      // Mutating edge_label_ would re-key the base edge index in place;
      // freeze its sort keys first (one-time copy, only ever paid by
      // snapshots that see a relabel).
      SnapshotBaseEdgeLabels();
      SearchIndexInvalidate(e);  // keyed by the OLD label
      edge_label_[e] = rec.new_sym;
      SearchIndexInsert(e);  // re-enter under the new label
      return;
    }
    case EditKind::kSetNodeAttr: {
      NodeId n = rec.node;
      SymbolId old = node_attrs_[n].Get(rec.attr);
      if (old != 0) SortedErase(&TouchAttrGroup(AttrKey(rec.attr, old)), n);
      node_attrs_[n].Set(rec.attr, rec.new_sym);
      if (rec.new_sym != 0)
        SortedInsert(&TouchAttrGroup(AttrKey(rec.attr, rec.new_sym)), n);
      return;
    }
    case EditKind::kSetEdgeAttr:
      edge_attrs_[rec.edge].Set(rec.attr, rec.new_sym);
      return;
  }
}

void GraphSnapshot::PatchAddNode(const EditEntry& rec) {
  NodeId n = rec.node;
  EnsureNodeColumns(n);
  node_alive_[n] = 1;
  node_label_[n] = rec.label;
  // Fresh adds carry no attributes; a revival (the inverse of kRemoveNode)
  // restores the removal's attribute snapshot — exactly what Graph::UndoTo
  // rebuilds.
  node_attrs_[n] = AttrMapFromSnapshot(rec.attr_snapshot);
  ++num_nodes_;
  FreshAdjacency(n);  // no edges yet; revived edges follow as records
  SortedInsert(&TouchLabelGroup(0), n);
  if (rec.label != 0) SortedInsert(&TouchLabelGroup(rec.label), n);
  for (const auto& [a, v] : node_attrs_[n].entries())
    SortedInsert(&TouchAttrGroup(AttrKey(a, v)), n);
}

void GraphSnapshot::PatchRemoveNode(const EditEntry& rec) {
  NodeId n = rec.node;
  // Partitions drop the node under its CURRENT label/attrs (incident edges
  // were already removed by the preceding cascade records).
  SortedErase(&TouchLabelGroup(0), n);
  if (node_label_[n] != 0) SortedErase(&TouchLabelGroup(node_label_[n]), n);
  for (const auto& [a, v] : node_attrs_[n].entries())
    SortedErase(&TouchAttrGroup(AttrKey(a, v)), n);
  node_alive_[n] = 0;
  --num_nodes_;
  // Tombstones keep label and attrs addressable. For a true removal the
  // snapshot equals the current attrs (no-op); for the inverse of kAddNode
  // it is empty, mirroring Graph::UndoEntry's reset.
  node_attrs_[n] = AttrMapFromSnapshot(rec.attr_snapshot);
}

void GraphSnapshot::PatchAddEdge(const EditEntry& rec) {
  EdgeId e = rec.edge;
  // Split by ownership: the src shard owns the edge columns, index entries
  // and out-adjacency; the dst shard owns only the in-adjacency. The
  // monolithic shard owns both and takes both branches, reproducing the
  // pre-shard behavior exactly.
  if (shard_.OwnsNode(rec.src)) {
    EnsureEdgeColumns(e);
    edge_alive_[e] = 1;
    edge_src_[e] = rec.src;
    edge_dst_[e] = rec.dst;
    edge_label_[e] = rec.label;
    edge_attrs_[e] = AttrMapFromSnapshot(rec.attr_snapshot);
    ++num_edges_;
    // Tail append: Graph::LinkEdge pushes back, and an undo-revived edge
    // lands at the tail the same way.
    TouchAdjacency(rec.src);
    out_patch_[rec.src].push_back(e);
    SearchIndexInsert(e);
    if (!InBaseAliveEdges(e)) SortedInsert(&alive_added_, e);
  }
  if (shard_.OwnsNode(rec.dst)) {
    TouchAdjacency(rec.dst);
    in_patch_[rec.dst].push_back(e);
  }
}

void GraphSnapshot::PatchRemoveEdge(const EditEntry& rec) {
  EdgeId e = rec.edge;
  // Endpoints come from the record, not the columns: a shard owning only
  // the dst side never populated this edge's columns.
  if (shard_.OwnsNode(rec.src)) {
    SearchIndexInvalidate(e);
    TouchAdjacency(rec.src);
    std::vector<EdgeId>& out = out_patch_[rec.src];
    out.erase(std::find(out.begin(), out.end(), e));
    edge_alive_[e] = 0;
    --num_edges_;
    // Keep the tombstone addressable; empty for the inverse of kAddEdge.
    edge_attrs_[e] = AttrMapFromSnapshot(rec.attr_snapshot);
    if (!InBaseAliveEdges(e)) SortedErase(&alive_added_, e);
  }
  if (shard_.OwnsNode(rec.dst)) {
    TouchAdjacency(rec.dst);
    std::vector<EdgeId>& in = in_patch_[rec.dst];
    in.erase(std::find(in.begin(), in.end(), e));
  }
}

void GraphSnapshot::EnsureNodeColumns(NodeId n) {
  if (n < node_alive_.size()) return;
  size_t need = static_cast<size_t>(n) + 1;
  node_alive_.resize(need, 0);
  node_label_.resize(need, 0);
  node_attrs_.resize(need);
  adj_patched_.resize(need, 0);
}

void GraphSnapshot::EnsureEdgeColumns(EdgeId e) {
  if (e < edge_alive_.size()) return;
  size_t need = static_cast<size_t>(e) + 1;
  edge_alive_.resize(need, 0);
  edge_src_.resize(need, kInvalidNode);
  edge_dst_.resize(need, kInvalidNode);
  edge_label_.resize(need, 0);
  edge_attrs_.resize(need);
}

void GraphSnapshot::TouchAdjacency(NodeId n) {
  if (adj_patched_[n]) return;
  adj_patched_[n] = 1;
  IdSpan out{out_edges_.data() + out_offset_[n],
             out_offset_[n + 1] - out_offset_[n]};
  out_patch_[n].assign(out.begin(), out.end());
  IdSpan in{in_edges_.data() + in_offset_[n],
            in_offset_[n + 1] - in_offset_[n]};
  in_patch_[n].assign(in.begin(), in.end());
}

void GraphSnapshot::FreshAdjacency(NodeId n) {
  adj_patched_[n] = 1;
  out_patch_[n].clear();
  in_patch_[n].clear();
}

std::vector<NodeId>& GraphSnapshot::TouchLabelGroup(SymbolId label) {
  auto [it, fresh] = label_patch_.try_emplace(label);
  if (fresh) {
    auto base = label_dir_.find(label);
    if (base != label_dir_.end())
      it->second.assign(label_nodes_.begin() + base->second.offset,
                        label_nodes_.begin() + base->second.offset +
                            base->second.len);
  }
  return it->second;
}

std::vector<NodeId>& GraphSnapshot::TouchAttrGroup(uint64_t key) {
  auto [it, fresh] = attr_patch_.try_emplace(key);
  if (fresh) {
    auto base = attr_dir_.find(key);
    if (base != attr_dir_.end())
      it->second.assign(attr_nodes_.begin() + base->second.offset,
                        attr_nodes_.begin() + base->second.offset +
                            base->second.len);
  }
  return it->second;
}

bool GraphSnapshot::EdgeSearchLess(EdgeId a, EdgeId b) const {
  if (edge_src_[a] != edge_src_[b]) return edge_src_[a] < edge_src_[b];
  if (edge_dst_[a] != edge_dst_[b]) return edge_dst_[a] < edge_dst_[b];
  if (edge_label_[a] != edge_label_[b])
    return edge_label_[a] < edge_label_[b];
  return a < b;
}

void GraphSnapshot::SearchIndexInsert(EdgeId e) {
  auto it = std::lower_bound(
      edge_search_added_.begin(), edge_search_added_.end(), e,
      [this](EdgeId a, EdgeId b) { return EdgeSearchLess(a, b); });
  assert(it == edge_search_added_.end() || *it != e);
  edge_search_added_.insert(it, e);
}

bool GraphSnapshot::SearchIndexEraseAdded(EdgeId e) {
  // Keyed search over the CURRENT columns (call before mutating them).
  auto it = std::lower_bound(
      edge_search_added_.begin(), edge_search_added_.end(), e,
      [this](EdgeId a, EdgeId b) { return EdgeSearchLess(a, b); });
  if (it == edge_search_added_.end() || *it != e) return false;
  edge_search_added_.erase(it);
  return true;
}

void GraphSnapshot::SearchIndexInvalidate(EdgeId e) {
  // Either the edge entered through the patch side (erase it there) or it
  // is a still-keyed base entry (tombstone it; revivals re-enter through
  // the added side, so a dead-set entry never becomes valid again).
  if (SearchIndexEraseAdded(e)) return;
  if (InBaseAliveEdges(e)) edge_search_dead_.insert(e);
}

void GraphSnapshot::SnapshotBaseEdgeLabels() {
  if (!base_edge_label_.empty() || base_edge_bound_ == 0) return;
  // No base edge was relabeled yet (this runs before the first such
  // record), so the current column still holds every build-time label.
  base_edge_label_.assign(edge_label_.begin(),
                          edge_label_.begin() + base_edge_bound_);
}

bool GraphSnapshot::InBaseAliveEdges(EdgeId e) const {
  auto it = std::lower_bound(alive_edges_.begin(), alive_edges_.end(), e);
  return it != alive_edges_.end() && *it == e;
}

// ----------------------------------------------------------------- memory

size_t GraphSnapshot::MemoryBytes() const {
  size_t bytes = node_alive_.capacity() + edge_alive_.capacity() +
                 adj_patched_.capacity() +
                 sizeof(SymbolId) * (node_label_.capacity() +
                                     edge_label_.capacity() +
                                     base_edge_label_.capacity()) +
                 sizeof(NodeId) * (edge_src_.capacity() +
                                   edge_dst_.capacity()) +
                 sizeof(uint32_t) * (out_offset_.capacity() +
                                     in_offset_.capacity()) +
                 sizeof(EdgeId) * (out_edges_.capacity() +
                                   in_edges_.capacity() +
                                   edge_search_.capacity() +
                                   alive_edges_.capacity() +
                                   edge_search_added_.capacity() +
                                   alive_added_.capacity()) +
                 sizeof(NodeId) * (label_nodes_.capacity() +
                                   attr_nodes_.capacity());
  // Attribute columns: the AttrMap objects live in the column vectors
  // (count their CAPACITY, not just the constructed size) and each map owns
  // a heap buffer of (attr, value) pairs.
  bytes += sizeof(AttrMap) * (node_attrs_.capacity() - node_attrs_.size() +
                              edge_attrs_.capacity() - edge_attrs_.size());
  for (const AttrMap& m : node_attrs_)
    bytes += sizeof(AttrMap) +
             m.entries().capacity() * sizeof(std::pair<SymbolId, SymbolId>);
  for (const AttrMap& m : edge_attrs_)
    bytes += sizeof(AttrMap) +
             m.entries().capacity() * sizeof(std::pair<SymbolId, SymbolId>);
  // Partition directories and patch overlay containers.
  bytes += HashMapBytes(label_dir_) + HashMapBytes(attr_dir_) +
           HashMapBytes(out_patch_) + HashMapBytes(in_patch_) +
           HashMapBytes(label_patch_) + HashMapBytes(attr_patch_) +
           HashMapBytes(edge_search_dead_);
  for (const auto& [n, v] : out_patch_)
    bytes += v.capacity() * sizeof(EdgeId);
  for (const auto& [n, v] : in_patch_) bytes += v.capacity() * sizeof(EdgeId);
  for (const auto& [l, v] : label_patch_)
    bytes += v.capacity() * sizeof(NodeId);
  for (const auto& [k, v] : attr_patch_)
    bytes += v.capacity() * sizeof(NodeId);
  return bytes;
}

}  // namespace grepair
