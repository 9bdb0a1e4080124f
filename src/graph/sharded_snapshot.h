// ShardedSnapshot: a read-optimized GraphView that hash-partitions the
// graph into S independent GraphSnapshot shards (shard(n) =
// StorageShardOfNode(n, S); an edge follows its src). Each shard is a full
// GraphSnapshot instance materializing only its slice — CSR adjacency,
// candidate partitions and the sorted edge index all reuse the monolithic
// machinery — so:
//   - BUILD is shard-parallel: the S shard constructors only read the
//     source view and can run one-per-pool-task;
//   - PATCH routes each delta-log record to the shard(s) it touches
//     (GraphSnapshot::AppliesTo), making dirty-fraction accounting
//     per-shard: a hot shard crosses its rebuild threshold and is rebuilt
//     ALONE in ~1/S the monolithic rebuild time while clean shards keep
//     patching (Advance implements the policy);
//   - DETECTION reads it like any other view: the parallel detectors split
//     their seed/anchor lists into contiguous blocks whatever the store, so
//     sharding changes where data lives, never how a pass fans out.
//
// Reads route by id arithmetic: node reads to shard(n), edge reads through
// a per-edge owner byte (the src's shard, O(1)); candidate collection and
// whole-graph enumeration k-way-merge the shards' ascending groups, so
// every read — order included — is bit-identical to a monolithic snapshot
// and to the live graph (tests/test_sharded_snapshot.cc).
//
// Concurrency contract: Advance/construction happen on the writer thread
// (shard tasks may fan out over a caller-supplied runner — each task
// touches exactly one shard); during a pass the whole store is frozen and
// shared read-only. See DESIGN.md "Storage model".
#ifndef GREPAIR_GRAPH_SHARDED_SNAPSHOT_H_
#define GREPAIR_GRAPH_SHARDED_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/graph_view.h"
#include "graph/snapshot.h"

namespace grepair {

/// Runs fn(0) .. fn(n-1) and returns when all completed — the shape of
/// ThreadPool::ParallelFor, taken as a callback so the graph layer stays
/// below the parallel module in the dependency order. Null = sequential.
using ParallelRunner =
    std::function<void(size_t, const std::function<void(size_t)>&)>;

class ShardedSnapshot final : public GraphView {
 public:
  /// Shard count ceiling: the per-edge owner table stores shard indexes in
  /// one byte. Requested counts are clamped into [1, kMaxShards].
  static constexpr size_t kMaxShards = 256;

  /// Builds all shards from `g` (the live Graph in practice), one
  /// GraphSnapshot per shard, via `runner` when given (shard builds only
  /// read `g`, so they are safe to run concurrently).
  ShardedSnapshot(const GraphView& g, size_t num_shards,
                  const ParallelRunner& runner = {});

  /// Outcome of one Advance: how many shards took the O(delta) patch path
  /// vs a 1/S rebuild. Untouched shards count in neither.
  struct AdvanceStats {
    size_t shards_patched = 0;
    size_t shards_rebuilt = 0;
  };

  /// Advances the store by `n` delta-log records to mirror `g`'s current
  /// state: routes the records, then PER SHARD either patches (records
  /// pending for the shard plus its accumulated PatchedEdits stay within
  /// `rebuild_fraction` of the shard's edge count, floored at 64) or
  /// rebuilds that shard alone from `g`. Shard work fans out over `runner`.
  /// NOT thread-safe with concurrent reads: call between passes.
  AdvanceStats Advance(const GraphView& g, const EditEntry* records, size_t n,
                       double rebuild_fraction,
                       const ParallelRunner& runner = {});

  size_t NumShards() const { return shards_.size(); }
  const GraphSnapshot& shard(size_t s) const { return *shards_[s]; }
  /// Total records applied across all shards since each shard's last
  /// (re)build — the aggregate dirtiness.
  size_t PatchedEdits() const;
  /// Heap footprint rolled up across shards plus the routing table, so
  /// serving stats stay truthful under sharding.
  size_t MemoryBytes() const;

  // --- GraphView --------------------------------------------------------
  const VocabularyPtr& vocab() const override { return shards_[0]->vocab(); }

  bool NodeAlive(NodeId n) const override {
    return NodeShard(n).NodeAlive(n);
  }
  bool EdgeAlive(EdgeId e) const override {
    return e < edge_owner_.size() && EdgeShard(e).EdgeAlive(e);
  }
  size_t NumNodes() const override { return num_nodes_; }
  size_t NumEdges() const override { return num_edges_; }
  size_t NodeIdBound() const override { return node_bound_; }
  size_t EdgeIdBound() const override { return edge_bound_; }

  SymbolId NodeLabel(NodeId n) const override {
    return NodeShard(n).NodeLabel(n);
  }
  SymbolId EdgeLabel(EdgeId e) const override {
    return EdgeShard(e).EdgeLabel(e);
  }
  EdgeView Edge(EdgeId e) const override { return EdgeShard(e).Edge(e); }
  SymbolId NodeAttr(NodeId n, SymbolId attr) const override {
    return NodeShard(n).NodeAttr(n, attr);
  }
  SymbolId EdgeAttr(EdgeId e, SymbolId attr) const override {
    return EdgeShard(e).EdgeAttr(e, attr);
  }
  const AttrMap& NodeAttrs(NodeId n) const override {
    return NodeShard(n).NodeAttrs(n);
  }
  const AttrMap& EdgeAttrs(EdgeId e) const override {
    return EdgeShard(e).EdgeAttrs(e);
  }

  IdSpan OutEdges(NodeId n) const override {
    return NodeShard(n).OutEdges(n);
  }
  IdSpan InEdges(NodeId n) const override { return NodeShard(n).InEdges(n); }

  EdgeId FindEdge(NodeId src, NodeId dst, SymbolId label) const override;
  /// Routed O(log E_s) probe of the src shard's sorted edge index.
  bool HasEdge(NodeId src, NodeId dst, SymbolId label) const override;

  std::vector<NodeId> Nodes() const override;
  std::vector<EdgeId> Edges() const override;
  bool CollectNodesWithLabel(SymbolId label,
                             std::vector<NodeId>* out) const override;
  bool CollectNodesWithAttr(SymbolId attr, SymbolId value,
                            std::vector<NodeId>* out) const override;
  size_t CountNodesWithLabel(SymbolId label) const override;

 private:
  const GraphSnapshot& NodeShard(NodeId n) const {
    return *shards_[StorageShardOfNode(n, shards_.size())];
  }
  const GraphSnapshot& EdgeShard(EdgeId e) const {
    return *shards_[edge_owner_[e]];
  }
  /// Re-derives the cached alive totals after construction or Advance.
  void RefreshCounts();
  /// Applies `fn` over shard indexes through `runner` (or inline).
  static void RunShards(size_t n, const ParallelRunner& runner,
                        const std::function<void(size_t)>& fn);

  std::vector<std::unique_ptr<GraphSnapshot>> shards_;
  /// e -> owning shard (= its src's shard), for O(1) edge-read routing;
  /// covers every id < edge_bound_, tombstones included.
  std::vector<uint8_t> edge_owner_;
  size_t node_bound_ = 0;
  size_t edge_bound_ = 0;
  size_t num_nodes_ = 0;
  size_t num_edges_ = 0;
};

}  // namespace grepair

#endif  // GREPAIR_GRAPH_SHARDED_SNAPSHOT_H_
