// GraphSnapshot: a read-optimized copy of a graph state built for repeated
// subgraph matching. Where the journaled Graph answers reads through
// per-node vectors and hash-map label/attr indexes, the snapshot packs:
//   - CSR out/in adjacency: one flat edge array per direction plus offsets,
//     preserving the source graph's per-node adjacency order EXACTLY (match
//     enumeration order — and therefore every downstream repair decision —
//     depends on that order, including revived-edge positions after undo);
//   - dense node/edge label, endpoint and attribute columns (tombstones
//     keep their data addressable, mirroring Graph's identity semantics);
//   - label- and attr-partitioned candidate indexes: alive node ids grouped
//     per label / per (attr, value), each group ascending, so a match
//     step's label scan or attr join reads a zero-copy span with no sort
//     (and Matcher::SeedCandidates is a contiguous-range copy);
//   - an alive-edge index sorted by (src, dst, label, id) that answers
//     HasEdge in O(log E) instead of an adjacency scan.
//
// INCREMENTAL MAINTENANCE. A snapshot is no longer single-use: Patch()
// advances it by a slice of the source graph's delta log (physical replay
// records, including undo inverses — see Graph::EnableDeltaLog) in
// O(delta), instead of paying the O(V + E) constructor again. Patching is
// overlay-based: dense columns mutate in place; a touched node's adjacency
// moves copy-on-write into per-node overlay vectors (untouched nodes keep
// reading the flat CSR rows); touched label/attr candidate groups move
// copy-on-write into per-group sorted overlay vectors; the sorted edge
// index gains a sorted "added" side array while invalidated base entries
// are tombstoned in a hash set. Every read remains bit-identical to the
// live Graph at the patched position — the serving layer
// (RepairService) keeps its published generations this way, patching a
// slot once per commit at publication and rebuilding only when the
// accumulated patch fraction crosses its threshold. Patch() runs on the
// writer thread before the snapshot is published; once published it is
// frozen and shared read-only by every reader (no synchronization needed).
//
// Detection never builds a snapshot of its own: a pass reads whatever view
// its caller hands it, the live Graph included. Snapshots are built only
// to be published, or by a caller that passes one in as the view.
// Equivalence — including patched snapshots against fresh builds and the
// live graph — is asserted by tests/test_snapshot.cc and
// tests/test_snapshot_patch.cc. See DESIGN.md "Storage model".
#ifndef GREPAIR_GRAPH_SNAPSHOT_H_
#define GREPAIR_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/graph_view.h"

namespace grepair {

/// Which slice of the id space a GraphSnapshot materializes: shard `index`
/// of `count` owns the nodes with StorageShardOfNode(n, count) == index and
/// the edges whose SRC it owns. The default {0, 1} owns everything — the
/// monolithic snapshot. A sharded instance leaves non-owned ids at column
/// defaults (never read: ShardedSnapshot routes every read to the owner)
/// and its counts/partitions/indexes cover owned elements only.
struct SnapshotShard {
  uint32_t index = 0;
  uint32_t count = 1;

  bool OwnsNode(NodeId n) const {
    return count <= 1 || StorageShardOfNode(n, count) == index;
  }
};

class GraphSnapshot final : public GraphView {
 public:
  /// Builds from any GraphView (in practice: the live Graph). O(V + E +
  /// sort of the edge index). The source must not be mutated during
  /// construction. A non-default `shard` materializes only that shard's
  /// slice (see SnapshotShard); the constructor reads only `g`'s plain
  /// accessors (no lazily populated indexes), so shard builds of one
  /// source may run concurrently.
  explicit GraphSnapshot(const GraphView& g, SnapshotShard shard = {});

  /// Advances the snapshot by `n` physical replay records (a slice of
  /// Graph::DeltaLogSince from the position this snapshot mirrors).
  /// O(records), with a one-time copy-on-write charge per adjacency list /
  /// candidate group first touched over the snapshot's lifetime. After the
  /// call every read is bit-identical to the live graph at the new
  /// position. A sharded snapshot applies only the records that touch its
  /// slice (AppliesTo) and skips the rest, so the same full slice can be
  /// handed to every shard — including concurrently: shards share no
  /// mutable state. NOT thread-safe per instance: patch on the writer
  /// thread (or one task per shard), between passes.
  void Patch(const EditEntry* records, size_t n);

  /// True when `rec` touches this snapshot's shard slice — the unit of the
  /// per-shard dirty accounting (PatchedEdits counts exactly the records
  /// AppliesTo accepted). Always true for the monolithic default shard.
  bool AppliesTo(const EditEntry& rec) const;

  /// The shard slice this snapshot materializes ({0, 1} = monolithic).
  const SnapshotShard& shard() const { return shard_; }

  /// Total records applied by Patch since construction — the "accumulated
  /// patch fraction" input of rebuild heuristics.
  size_t PatchedEdits() const { return patched_edits_; }

  const VocabularyPtr& vocab() const override { return vocab_; }

  bool NodeAlive(NodeId n) const override {
    return n < node_alive_.size() && node_alive_[n] != 0;
  }
  bool EdgeAlive(EdgeId e) const override {
    return e < edge_alive_.size() && edge_alive_[e] != 0;
  }
  size_t NumNodes() const override { return num_nodes_; }
  size_t NumEdges() const override { return num_edges_; }
  size_t NodeIdBound() const override { return node_alive_.size(); }
  size_t EdgeIdBound() const override { return edge_alive_.size(); }

  SymbolId NodeLabel(NodeId n) const override { return node_label_[n]; }
  SymbolId EdgeLabel(EdgeId e) const override { return edge_label_[e]; }
  EdgeView Edge(EdgeId e) const override {
    return {e, edge_src_[e], edge_dst_[e], edge_label_[e]};
  }
  SymbolId NodeAttr(NodeId n, SymbolId attr) const override {
    return node_attrs_[n].Get(attr);
  }
  SymbolId EdgeAttr(EdgeId e, SymbolId attr) const override {
    return edge_attrs_[e].Get(attr);
  }
  const AttrMap& NodeAttrs(NodeId n) const override { return node_attrs_[n]; }
  const AttrMap& EdgeAttrs(EdgeId e) const override { return edge_attrs_[e]; }

  IdSpan OutEdges(NodeId n) const override {
    if (has_patches_ && adj_patched_[n]) {
      const std::vector<EdgeId>& v = out_patch_.find(n)->second;
      return {v.data(), v.size()};
    }
    return {out_edges_.data() + out_offset_[n],
            out_offset_[n + 1] - out_offset_[n]};
  }
  IdSpan InEdges(NodeId n) const override {
    if (has_patches_ && adj_patched_[n]) {
      const std::vector<EdgeId>& v = in_patch_.find(n)->second;
      return {v.data(), v.size()};
    }
    return {in_edges_.data() + in_offset_[n],
            in_offset_[n + 1] - in_offset_[n]};
  }

  EdgeId FindEdge(NodeId src, NodeId dst, SymbolId label) const override;
  /// O(log E) binary search over the (src, dst, label)-sorted edge index
  /// (base + patch-added side array).
  bool HasEdge(NodeId src, NodeId dst, SymbolId label) const override;
  /// The index probe of HasEdge WITHOUT the endpoint-liveness prechecks —
  /// the routing hook ShardedSnapshot::HasEdge needs: the shard owning
  /// `src` holds the edge index entry, but `dst` may live (and be alive)
  /// in another shard, so the caller checks liveness globally first.
  bool EdgeIndexContains(NodeId src, NodeId dst, SymbolId label) const;

  std::vector<NodeId> Nodes() const override;
  std::vector<EdgeId> Edges() const override;
  bool CollectNodesWithLabel(SymbolId label,
                             std::vector<NodeId>* out) const override;
  bool CollectNodesWithAttr(SymbolId attr, SymbolId value,
                            std::vector<NodeId>* out) const override;
  size_t CountNodesWithLabel(SymbolId label) const override;

  const GraphSnapshot* AsSnapshot() const override { return this; }

  /// The label-partitioned candidate index as a raw range: alive nodes
  /// carrying `label` (0 = all alive), ascending, contiguous.
  IdSpan NodesWithLabelSorted(SymbolId label) const;
  /// Same for the (attr, value) partitions.
  IdSpan NodesWithAttrSorted(SymbolId attr, SymbolId value) const;

  /// Approximate heap footprint: packed columns and indexes, the attribute
  /// maps' heap payload, the partition directories, and any patch overlay
  /// state (documented in DESIGN.md "Storage model").
  size_t MemoryBytes() const;

 private:
  struct Range {
    uint32_t offset = 0;
    uint32_t len = 0;
  };

  static uint64_t AttrKey(SymbolId attr, SymbolId value) {
    return (static_cast<uint64_t>(attr) << 32) | value;
  }

  /// Edge ownership = ownership of its src. Only owned edges ever get
  /// their src column populated, so a default (kInvalidNode) src means
  /// "not this shard's edge" (always false under the monolithic shard
  /// only for ids beyond the columns).
  bool OwnsEdge(EdgeId e) const {
    return e < edge_src_.size() && edge_src_[e] != kInvalidNode &&
           shard_.OwnsNode(edge_src_[e]);
  }

  // --- Patch plumbing ---------------------------------------------------
  void PatchOne(const EditEntry& rec);
  void PatchAddNode(const EditEntry& rec);
  void PatchRemoveNode(const EditEntry& rec);
  void PatchAddEdge(const EditEntry& rec);
  void PatchRemoveEdge(const EditEntry& rec);
  /// Grows the node/edge columns (defaults) so `id` is addressable.
  void EnsureNodeColumns(NodeId n);
  void EnsureEdgeColumns(EdgeId e);
  /// Copy-on-write adjacency overlay for node n (materializes BOTH
  /// directions from the base CSR rows on first touch).
  void TouchAdjacency(NodeId n);
  /// Fresh empty overlay for a node added/revived by a patch.
  void FreshAdjacency(NodeId n);
  /// Copy-on-write candidate-group overlays (each stays ascending).
  std::vector<NodeId>& TouchLabelGroup(SymbolId label);
  std::vector<NodeId>& TouchAttrGroup(uint64_t key);
  /// True when (src, dst, label) of a < that of b (id tie-break), over the
  /// CURRENT columns.
  bool EdgeSearchLess(EdgeId a, EdgeId b) const;
  /// The label a base edge_search_ entry was SORTED under. Relabeling an
  /// edge in place would silently re-key the base array and break its
  /// binary search for unrelated edges, so the first kSetEdgeLabel record
  /// snapshots the build-time labels and base searches keep comparing
  /// against those (a non-tombstoned base entry always has current label
  /// == build label, so accepts are unaffected).
  SymbolId BaseSearchLabel(EdgeId e) const {
    return base_edge_label_.empty() ? edge_label_[e] : base_edge_label_[e];
  }
  void SnapshotBaseEdgeLabels();
  /// Maintains the patched side of the sorted edge index.
  void SearchIndexInsert(EdgeId e);
  bool SearchIndexEraseAdded(EdgeId e);
  void SearchIndexInvalidate(EdgeId e);
  /// Scan of one sorted edge array for (src, dst, label); label==0 accepts
  /// any label. `base` entries must additionally be alive and not
  /// invalidated by a patch.
  bool SearchIndexContains(const std::vector<EdgeId>& index, NodeId src,
                           NodeId dst, SymbolId label, bool base) const;
  /// Membership of e in the BASE alive-edge list (alive at build time).
  bool InBaseAliveEdges(EdgeId e) const;

  VocabularyPtr vocab_;
  SnapshotShard shard_;
  size_t num_nodes_ = 0;  ///< owned alive nodes (all alive when monolithic)
  size_t num_edges_ = 0;  ///< owned alive edges

  // Dense columns over the full id space (tombstones included).
  std::vector<uint8_t> node_alive_;
  std::vector<SymbolId> node_label_;
  std::vector<AttrMap> node_attrs_;
  std::vector<uint8_t> edge_alive_;
  std::vector<NodeId> edge_src_;
  std::vector<NodeId> edge_dst_;
  std::vector<SymbolId> edge_label_;
  std::vector<AttrMap> edge_attrs_;

  // CSR adjacency, per-node order copied verbatim from the source view.
  // Rows cover ids < base_node_bound_ only; patched or later-added nodes
  // read their overlay vectors instead (adj_patched_ flags them).
  std::vector<uint32_t> out_offset_;  // base_node_bound_+1 entries
  std::vector<uint32_t> in_offset_;
  std::vector<EdgeId> out_edges_;
  std::vector<EdgeId> in_edges_;

  // Label-partitioned candidate index: groups of ascending alive node ids.
  // label_dir_[0] covers ALL alive nodes (mirrors Graph's label_index_[0]).
  std::vector<NodeId> label_nodes_;
  std::unordered_map<SymbolId, Range> label_dir_;
  std::vector<NodeId> attr_nodes_;
  std::unordered_map<uint64_t, Range> attr_dir_;

  // Alive edges sorted by (src, dst, label, id) for HasEdge; and ascending
  // alive edge ids for Edges(). Both are BASE (build-time) state once a
  // patch lands: edge_alive_ / edge_search_dead_ filter stale entries and
  // the *_added_ side arrays carry additions.
  std::vector<EdgeId> edge_search_;
  std::vector<EdgeId> alive_edges_;

  // --- Patch overlay state ---------------------------------------------
  size_t base_node_bound_ = 0;  ///< node ids with valid base CSR rows
  size_t base_edge_bound_ = 0;
  size_t patched_edits_ = 0;
  bool has_patches_ = false;
  /// Per node: nonzero when its adjacency lives in out_patch_/in_patch_.
  /// Sized with the node columns; every id >= base_node_bound_ is flagged.
  std::vector<uint8_t> adj_patched_;
  std::unordered_map<NodeId, std::vector<EdgeId>> out_patch_;
  std::unordered_map<NodeId, std::vector<EdgeId>> in_patch_;
  /// Copy-on-write candidate groups; presence overrides label_dir_ /
  /// attr_dir_ for that key.
  std::unordered_map<SymbolId, std::vector<NodeId>> label_patch_;
  std::unordered_map<uint64_t, std::vector<NodeId>> attr_patch_;
  /// Sorted (src, dst, label, id) ids added since build; always alive with
  /// current columns.
  std::vector<EdgeId> edge_search_added_;
  /// Base edge_search_ entries invalidated by a patch (removed or
  /// relabeled; a revived edge re-enters through edge_search_added_).
  std::unordered_set<EdgeId> edge_search_dead_;
  /// Build-time labels of ids < base_edge_bound_, captured lazily by the
  /// first relabel patch so the base edge index keeps its sort key.
  std::vector<SymbolId> base_edge_label_;
  /// Ascending alive edge ids NOT covered by the base alive_edges_ list.
  std::vector<EdgeId> alive_added_;
};

}  // namespace grepair

#endif  // GREPAIR_GRAPH_SNAPSHOT_H_
