// The property-graph store: a directed, labeled multigraph with symbolic
// attributes on nodes and edges, adjacency and label indexes, and a full
// mutation journal with undo. This is the substrate every other module
// (matcher, repair engine, baselines, benchmarks) runs on.
//
// Graph is the WRITE path. It also implements the GraphView read seam
// (graph_view.h) as a thin adapter over its live indexes, so read-only
// layers can run over either the live graph or an immutable GraphSnapshot
// (snapshot.h) interchangeably.
//
// Identity semantics: ids are never reused. Removing an element tombstones
// it; undoing the removal revives the same id. This keeps ground-truth
// bookkeeping and incremental match maintenance simple and exact.
#ifndef GREPAIR_GRAPH_GRAPH_H_
#define GREPAIR_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/edit_log.h"
#include "graph/graph_view.h"
#include "graph/vocabulary.h"
#include "util/status.h"

namespace grepair {

/// Directed labeled multigraph with journaled mutations.
class Graph : public GraphView {
 public:
  /// Creates an empty graph over the given shared vocabulary.
  explicit Graph(VocabularyPtr vocab);

  /// Copies duplicate everything INCLUDING the journal but start with the
  /// delta log disabled — a delta-log consumer watches one specific graph
  /// instance, never a copy.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Deep copy (shares the vocabulary, copies all elements and the journal
  /// boundary: the copy starts with an EMPTY journal so that repairs on the
  /// copy are costed relative to the copied state).
  Graph Clone() const;

  const VocabularyPtr& vocab() const override { return vocab_; }

  // --- Mutations (all journaled) --------------------------------------

  /// Adds a node with the given label; returns its id.
  NodeId AddNode(SymbolId label);
  /// Adds an edge; endpoints must be alive. Parallel edges are allowed.
  Result<EdgeId> AddEdge(NodeId src, NodeId dst, SymbolId label);
  /// Removes one edge.
  Status RemoveEdge(EdgeId e);
  /// Removes a node and (first) all incident edges, each journaled.
  Status RemoveNode(NodeId n);
  /// Relabels a node/edge. No-op (and no journal entry) if unchanged.
  Status SetNodeLabel(NodeId n, SymbolId label);
  Status SetEdgeLabel(EdgeId e, SymbolId label);
  /// Sets or erases (value==0) an attribute. No-op journal-wise if unchanged.
  Status SetNodeAttr(NodeId n, SymbolId attr, SymbolId value);
  Status SetEdgeAttr(EdgeId e, SymbolId attr, SymbolId value);

  /// Merges `gone` into `keep`: every edge incident to `gone` is re-created
  /// with the endpoint replaced by `keep` (skipping exact duplicates of
  /// existing `keep` edges and would-be self-loops that arise only from the
  /// merge), attributes of `gone` fill gaps in `keep`, then `gone` is
  /// removed. Journaled entirely via primitives, so undo works.
  Status MergeNodes(NodeId keep, NodeId gone);

  // --- Inspection (the GraphView read surface) -------------------------

  bool NodeAlive(NodeId n) const override {
    return n < nodes_.size() && nodes_[n].alive;
  }
  bool EdgeAlive(EdgeId e) const override {
    return e < edges_.size() && edges_[e].alive;
  }
  /// Number of alive nodes / edges.
  size_t NumNodes() const override { return num_alive_nodes_; }
  size_t NumEdges() const override { return num_alive_edges_; }
  /// Id-space upper bounds (alive or dead ids are all < these).
  size_t NodeIdBound() const override { return nodes_.size(); }
  size_t EdgeIdBound() const override { return edges_.size(); }

  SymbolId NodeLabel(NodeId n) const override { return nodes_[n].label; }
  SymbolId EdgeLabel(EdgeId e) const override { return edges_[e].label; }
  EdgeView Edge(EdgeId e) const override {
    return {e, edges_[e].src, edges_[e].dst, edges_[e].label};
  }
  SymbolId NodeAttr(NodeId n, SymbolId attr) const override {
    return nodes_[n].attrs.Get(attr);
  }
  SymbolId EdgeAttr(EdgeId e, SymbolId attr) const override {
    return edges_[e].attrs.Get(attr);
  }
  const AttrMap& NodeAttrs(NodeId n) const override {
    return nodes_[n].attrs;
  }
  const AttrMap& EdgeAttrs(EdgeId e) const override {
    return edges_[e].attrs;
  }

  /// Outgoing / incoming alive edge ids of an alive node.
  IdSpan OutEdges(NodeId n) const override {
    return {nodes_[n].out.data(), nodes_[n].out.size()};
  }
  IdSpan InEdges(NodeId n) const override {
    return {nodes_[n].in.data(), nodes_[n].in.size()};
  }

  /// First alive edge src-[label]->dst, or kInvalidEdge. label==0 matches
  /// any label.
  EdgeId FindEdge(NodeId src, NodeId dst, SymbolId label) const override;

  /// All alive node ids (ascending).
  std::vector<NodeId> Nodes() const override;
  /// All alive edge ids (ascending).
  std::vector<EdgeId> Edges() const override;
  /// Alive nodes carrying `label` (unordered). label==0 → all alive nodes.
  const std::unordered_set<NodeId>& NodesWithLabel(SymbolId label) const;
  /// Alive nodes whose attribute `attr` currently equals `value` (value!=0).
  /// Backed by an eagerly maintained index; used for attribute joins in
  /// duplicate-detection patterns.
  const std::unordered_set<NodeId>& NodesWithAttr(SymbolId attr,
                                                  SymbolId value) const;
  /// GraphView candidate collection: copies the hash indexes above into
  /// *out; returns false (unsorted).
  bool CollectNodesWithLabel(SymbolId label,
                             std::vector<NodeId>* out) const override;
  bool CollectNodesWithAttr(SymbolId attr, SymbolId value,
                            std::vector<NodeId>* out) const override;
  /// Count of alive nodes carrying `label`.
  size_t CountNodesWithLabel(SymbolId label) const override;

  // --- Journal ---------------------------------------------------------

  /// Journal length; use as a mark for UndoTo/CostSince.
  size_t JournalSize() const { return log_.size(); }
  const std::vector<EditEntry>& Journal() const { return log_; }
  /// Reverts all mutations after `mark` (most recent first). `mark` must not
  /// exceed the current journal size.
  Status UndoTo(size_t mark);
  /// Weighted cost of journal entries since `mark`.
  double CostSince(size_t mark, const CostModel& model) const {
    return JournalCost(log_, mark, log_.size(), model);
  }
  /// Drops journal history (keeps the graph): future costs are relative to
  /// the current state. Used after error injection so repair cost doesn't
  /// include the injected corruption. The delta log (below) is untouched —
  /// no physical state changed.
  void ResetJournal() { log_.clear(); }

  // --- Delta log (incremental snapshot maintenance) ---------------------
  //
  // An opt-in, append-only stream of PHYSICAL mutation records: every
  // applied mutation appends its journal entry, and every mutation popped
  // by UndoTo appends the inverse record (InverseEntry), so replaying the
  // stream forward mirrors the live graph exactly — including the
  // adjacency-tail position of undo-revived edges, which the journal stack
  // alone cannot express (undo POPS entries; the order side effect of the
  // revival would be invisible to a journal-slice consumer).
  //
  // GraphSnapshot::Patch consumes slices of this stream to advance a
  // cached snapshot in O(delta) instead of an O(V+E) rebuild (the serving
  // commit path). Disabled by default: non-serving workloads (eval loops,
  // repair search with heavy undo) would pay the copy for nothing.

  /// Starts recording (idempotent). Records accumulate until trimmed.
  void EnableDeltaLog();
  bool DeltaLogEnabled() const { return delta_log_ != nullptr; }
  /// Sequence bounds of the retained records: [DeltaLogBegin, DeltaLogEnd).
  /// Sequences are monotone over the graph's lifetime; Trim only advances
  /// Begin. Both are 0 while disabled.
  uint64_t DeltaLogBegin() const;
  uint64_t DeltaLogEnd() const;
  /// The retained records with sequence >= `from` (caller must keep
  /// `from` within [Begin, End]), as a contiguous (pointer, count) pair
  /// valid until the next mutation or Trim.
  std::pair<const EditEntry*, size_t> DeltaLogSince(uint64_t from) const;
  /// Drops records with sequence < `upto` (consumer watermark).
  void TrimDeltaLog(uint64_t upto);

  // --- Whole-graph utilities -------------------------------------------

  /// Order-independent content hash: equal graphs (same alive ids, labels,
  /// attrs, edges) hash equal. Used by tests and the oscillation guard.
  uint64_t Fingerprint() const;

  /// Structural equality on alive content (ids must match; this is identity
  /// equality, which is what undo/clone tests need).
  bool ContentEquals(const Graph& other) const;

  /// Human-readable one-line summary.
  std::string DebugSummary() const;

 private:
  struct NodeRec {
    SymbolId label = 0;
    bool alive = false;
    AttrMap attrs;
    std::vector<EdgeId> out;
    std::vector<EdgeId> in;
  };
  struct EdgeRec {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    SymbolId label = 0;
    bool alive = false;
    AttrMap attrs;
  };

  // Appends to the journal (and mirrors into the delta log when enabled).
  // Every mutation routes its EditEntry through here.
  void Journal(EditEntry entry);

  // Raw (non-journaling) helpers shared by mutations and undo.
  void LinkEdge(EdgeId e);
  void UnlinkEdge(EdgeId e);
  void IndexNode(NodeId n);
  void UnindexNode(NodeId n);
  void IndexNodeAttr(NodeId n, SymbolId attr, SymbolId value);
  void UnindexNodeAttr(NodeId n, SymbolId attr, SymbolId value);
  Status UndoEntry(const EditEntry& e);

  static uint64_t AttrKey(SymbolId attr, SymbolId value) {
    return (static_cast<uint64_t>(attr) << 32) | value;
  }

  // Retained delta-log records plus the sequence of the first one. Heap
  // allocated so an (uncommon) enabled log doesn't grow every Graph, and so
  // Clone() naturally starts clones with the log disabled.
  struct DeltaLog {
    uint64_t base = 0;
    std::vector<EditEntry> records;
  };

  VocabularyPtr vocab_;
  std::vector<NodeRec> nodes_;
  std::vector<EdgeRec> edges_;
  std::vector<EditEntry> log_;
  std::unique_ptr<DeltaLog> delta_log_;
  size_t num_alive_nodes_ = 0;
  size_t num_alive_edges_ = 0;
  // label -> alive nodes with that label; key 0 holds ALL alive nodes.
  // Not mutable: const reads only find(), so concurrent readers (pool
  // workers of a detection pass) never write.
  std::unordered_map<SymbolId, std::unordered_set<NodeId>> label_index_;
  // (attr<<32|value) -> alive nodes with that attribute value.
  std::unordered_map<uint64_t, std::unordered_set<NodeId>> attr_index_;
};

}  // namespace grepair

#endif  // GREPAIR_GRAPH_GRAPH_H_
