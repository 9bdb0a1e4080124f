// The read seam between graph storage and everything that matches over it.
// GraphView is the abstract read-only interface all detection/matching/
// mining/baseline layers code against; the journaled mutable Graph is one
// implementation (the sole writer), the immutable read-optimized
// GraphSnapshot (snapshot.h) is another. Keeping readers on this seam is
// what lets a detection pass run over a CSR-packed snapshot while the write
// path keeps its journal — and what future sharded/multi-backend stores
// plug into.
#ifndef GREPAIR_GRAPH_GRAPH_VIEW_H_
#define GREPAIR_GRAPH_GRAPH_VIEW_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/edit_log.h"
#include "graph/vocabulary.h"

namespace grepair {

class GraphSnapshot;

/// THE storage partition function of the read seam: node `n` of a store
/// with `num_shards` storage shards lives in shard `n % num_shards`, and an
/// edge lives in its src's shard. ShardedSnapshot and the shard slices it
/// builds (SnapshotShard) both place data by it. Dense ids make the modulo
/// an even hash partition.
inline size_t StorageShardOfNode(NodeId n, size_t num_shards) {
  return num_shards <= 1 ? 0 : n % num_shards;
}

/// Sorted small-vector attribute map (symbol -> symbol). Value id 0 means
/// "absent"; setting an attribute to 0 erases it.
class AttrMap {
 public:
  /// Returns the value id, or 0 when absent.
  SymbolId Get(SymbolId attr) const;
  /// Sets (value != 0) or erases (value == 0); returns the previous value.
  /// Erasing the last entry releases the map's capacity (tombstoned
  /// elements keep their AttrMap alive indefinitely, so an emptied map must
  /// not pin its old allocation).
  SymbolId Set(SymbolId attr, SymbolId value);
  /// Pre-sizes for `n` entries (used when bulk-building attribute columns).
  void Reserve(size_t n) { entries_.reserve(n); }
  /// All present (attr, value) pairs, sorted by attr id.
  const std::vector<std::pair<SymbolId, SymbolId>>& entries() const {
    return entries_;
  }
  bool empty() const { return entries_.empty(); }
  bool operator==(const AttrMap& other) const = default;

 private:
  std::vector<std::pair<SymbolId, SymbolId>> entries_;
};

/// Immutable view of one edge.
struct EdgeView {
  EdgeId id;
  NodeId src;
  NodeId dst;
  SymbolId label;
};

/// Non-owning contiguous range of element ids (NodeId and EdgeId share one
/// underlying type). What adjacency lists and index partitions hand out:
/// cheap to copy, range-for friendly.
struct IdSpan {
  const uint32_t* ptr = nullptr;
  size_t len = 0;

  const uint32_t* begin() const { return ptr; }
  const uint32_t* end() const { return ptr + len; }
  size_t size() const { return len; }
  bool empty() const { return len == 0; }
  uint32_t operator[](size_t i) const { return ptr[i]; }
};

/// Abstract read-only graph interface. Semantics (shared by every
/// implementation, asserted by tests/test_snapshot.cc):
///  - ids are stable names; dead (tombstoned) elements keep their label,
///    attributes and endpoints addressable;
///  - OutEdges/InEdges enumerate alive incident edges in the store's
///    insertion order — implementations must preserve that order exactly,
///    because match enumeration order (and thus every downstream repair
///    decision) depends on it;
///  - label/attr candidate lookups may come back in any order unless the
///    implementation says otherwise via the Collect* return value.
class GraphView {
 public:
  virtual ~GraphView() = default;

  virtual const VocabularyPtr& vocab() const = 0;

  // --- Element liveness and counts -------------------------------------
  virtual bool NodeAlive(NodeId n) const = 0;
  virtual bool EdgeAlive(EdgeId e) const = 0;
  virtual size_t NumNodes() const = 0;
  virtual size_t NumEdges() const = 0;
  /// Id-space upper bounds (alive or dead ids are all < these).
  virtual size_t NodeIdBound() const = 0;
  virtual size_t EdgeIdBound() const = 0;

  // --- Labels and attributes -------------------------------------------
  virtual SymbolId NodeLabel(NodeId n) const = 0;
  virtual SymbolId EdgeLabel(EdgeId e) const = 0;
  virtual EdgeView Edge(EdgeId e) const = 0;
  virtual SymbolId NodeAttr(NodeId n, SymbolId attr) const = 0;
  virtual SymbolId EdgeAttr(EdgeId e, SymbolId attr) const = 0;
  virtual const AttrMap& NodeAttrs(NodeId n) const = 0;
  virtual const AttrMap& EdgeAttrs(EdgeId e) const = 0;

  // --- Adjacency --------------------------------------------------------
  /// Alive incident edge ids of an alive node, in insertion order.
  virtual IdSpan OutEdges(NodeId n) const = 0;
  virtual IdSpan InEdges(NodeId n) const = 0;
  size_t OutDegree(NodeId n) const { return OutEdges(n).size(); }
  size_t InDegree(NodeId n) const { return InEdges(n).size(); }
  size_t Degree(NodeId n) const { return OutDegree(n) + InDegree(n); }

  /// First alive edge src-[label]->dst in adjacency-scan order, or
  /// kInvalidEdge. label==0 matches any label.
  virtual EdgeId FindEdge(NodeId src, NodeId dst, SymbolId label) const = 0;
  /// Existence-only variant; implementations may answer faster than
  /// FindEdge (GraphSnapshot binary-searches its sorted edge index).
  virtual bool HasEdge(NodeId src, NodeId dst, SymbolId label) const {
    return FindEdge(src, dst, label) != kInvalidEdge;
  }

  // --- Whole-graph and index enumeration --------------------------------
  /// All alive node / edge ids (ascending).
  virtual std::vector<NodeId> Nodes() const = 0;
  virtual std::vector<EdgeId> Edges() const = 0;

  /// Fills *out (replacing its contents) with alive nodes carrying `label`
  /// (label==0 -> all alive nodes). Returns true when *out is already in
  /// ascending id order — callers needing sorted candidates skip their own
  /// sort, which is how the snapshot's label-partitioned index makes
  /// seeding a contiguous-range copy instead of a hash-set scan + sort.
  virtual bool CollectNodesWithLabel(SymbolId label,
                                     std::vector<NodeId>* out) const = 0;
  /// Same contract for alive nodes whose attribute `attr` equals `value`
  /// (value != 0).
  virtual bool CollectNodesWithAttr(SymbolId attr, SymbolId value,
                                    std::vector<NodeId>* out) const = 0;
  virtual size_t CountNodesWithLabel(SymbolId label) const = 0;

  /// Non-null when this view IS an immutable GraphSnapshot, so the matcher
  /// can read its sorted candidate partitions as zero-copy spans.
  virtual const GraphSnapshot* AsSnapshot() const { return nullptr; }
};

}  // namespace grepair

#endif  // GREPAIR_GRAPH_GRAPH_VIEW_H_
