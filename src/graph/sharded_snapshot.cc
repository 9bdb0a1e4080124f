#include "graph/sharded_snapshot.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/ordered_merge.h"

namespace grepair {

namespace {

size_t ClampShards(size_t requested) {
  return std::min(std::max<size_t>(requested, 1),
                  ShardedSnapshot::kMaxShards);
}

// K-way merge of per-shard ascending id lists into one ascending list. The
// lists are disjoint (ownership partitions the id space), so the min-pick
// walk reproduces the exact monolithic ascending order.
std::vector<uint32_t> MergeAscending(std::vector<IdSpan> spans) {
  size_t total = 0;
  for (const IdSpan& s : spans) total += s.size();
  std::vector<uint32_t> out;
  out.reserve(total);
  MergeByAscendingKey(
      spans.size(), [&](size_t s) { return spans[s].size(); },
      [&](size_t s, size_t i) { return spans[s][i]; },
      [&](size_t s, size_t i) { out.push_back(spans[s][i]); });
  return out;
}

}  // namespace

void ShardedSnapshot::RunShards(size_t n, const ParallelRunner& runner,
                                const std::function<void(size_t)>& fn) {
  if (runner && n > 1) {
    runner(n, fn);
    return;
  }
  for (size_t s = 0; s < n; ++s) fn(s);
}

ShardedSnapshot::ShardedSnapshot(const GraphView& g, size_t num_shards,
                                 const ParallelRunner& runner) {
  const size_t S = ClampShards(num_shards);
  node_bound_ = g.NodeIdBound();
  edge_bound_ = g.EdgeIdBound();
  // Owner routing for every edge id ever allocated — tombstones keep their
  // endpoints addressable, so the owner of a dead edge is well defined.
  edge_owner_.resize(edge_bound_);
  for (EdgeId e = 0; e < edge_bound_; ++e)
    edge_owner_[e] = static_cast<uint8_t>(StorageShardOfNode(g.Edge(e).src, S));

  shards_.resize(S);
  RunShards(S, runner, [&](size_t s) {
    shards_[s] = std::make_unique<GraphSnapshot>(
        g, SnapshotShard{static_cast<uint32_t>(s), static_cast<uint32_t>(S)});
  });
  RefreshCounts();
}

ShardedSnapshot::AdvanceStats ShardedSnapshot::Advance(
    const GraphView& g, const EditEntry* records, size_t n,
    double rebuild_fraction, const ParallelRunner& runner) {
  const size_t S = shards_.size();
  // Route: count, per shard, the records that touch it (the same predicate
  // GraphSnapshot::AppliesTo uses), keeping bounds and the edge-owner table
  // current as adds stream past.
  std::vector<size_t> pending(S, 0);
  for (size_t i = 0; i < n; ++i) {
    const EditEntry& rec = records[i];
    switch (rec.kind) {
      case EditKind::kAddNode:
        node_bound_ = std::max(node_bound_, static_cast<size_t>(rec.node) + 1);
        ++pending[StorageShardOfNode(rec.node, S)];
        break;
      case EditKind::kRemoveNode:
      case EditKind::kSetNodeLabel:
      case EditKind::kSetNodeAttr:
        ++pending[StorageShardOfNode(rec.node, S)];
        break;
      case EditKind::kAddEdge: {
        edge_bound_ = std::max(edge_bound_, static_cast<size_t>(rec.edge) + 1);
        if (edge_owner_.size() < edge_bound_)
          edge_owner_.resize(edge_bound_, 0);
        const size_t src_s = StorageShardOfNode(rec.src, S);
        const size_t dst_s = StorageShardOfNode(rec.dst, S);
        edge_owner_[rec.edge] = static_cast<uint8_t>(src_s);
        ++pending[src_s];
        if (dst_s != src_s) ++pending[dst_s];
        break;
      }
      case EditKind::kRemoveEdge: {
        const size_t src_s = StorageShardOfNode(rec.src, S);
        const size_t dst_s = StorageShardOfNode(rec.dst, S);
        ++pending[src_s];
        if (dst_s != src_s) ++pending[dst_s];
        break;
      }
      case EditKind::kSetEdgeLabel:
      case EditKind::kSetEdgeAttr:
        ++pending[edge_owner_[rec.edge]];
        break;
    }
  }

  // Decide per shard: clean shards are untouched, lightly dirty shards
  // patch, and a shard whose pending records plus accumulated patches
  // cross its own rebuild fraction rebuilds ALONE — the dirty-shard-only
  // rebuild that keeps a hot region from forcing an O(V+E) whole-store
  // rebuild.
  AdvanceStats out;
  std::vector<uint8_t> rebuild(S, 0);
  for (size_t s = 0; s < S; ++s) {
    if (pending[s] == 0) continue;
    const double budget =
        rebuild_fraction *
        static_cast<double>(std::max<size_t>(shards_[s]->NumEdges(), 64));
    if (static_cast<double>(pending[s] + shards_[s]->PatchedEdits()) >
        budget) {
      rebuild[s] = 1;
      ++out.shards_rebuilt;
    } else {
      ++out.shards_patched;
    }
  }

  // Apply, one task per dirty shard; every task touches exactly one
  // shard's state (shards share nothing mutable) and only reads `g` and
  // the record slice, so the fan-out is race-free.
  RunShards(S, runner, [&](size_t s) {
    if (pending[s] == 0) return;
    if (rebuild[s]) {
      OBS_SPAN_ARG("shard.advance.rebuild", "shard", s);
      shards_[s] = std::make_unique<GraphSnapshot>(
          g,
          SnapshotShard{static_cast<uint32_t>(s), static_cast<uint32_t>(S)});
    } else {
      OBS_SPAN_ARG("shard.advance.patch", "shard", s);
      shards_[s]->Patch(records, n);
    }
  });
  RefreshCounts();
  return out;
}

void ShardedSnapshot::RefreshCounts() {
  num_nodes_ = 0;
  num_edges_ = 0;
  for (const auto& s : shards_) {
    num_nodes_ += s->NumNodes();
    num_edges_ += s->NumEdges();
  }
}

size_t ShardedSnapshot::PatchedEdits() const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->PatchedEdits();
  return total;
}

size_t ShardedSnapshot::MemoryBytes() const {
  size_t bytes = edge_owner_.capacity() +
                 shards_.capacity() * sizeof(shards_[0]);
  for (const auto& s : shards_) bytes += sizeof(GraphSnapshot) +
                                         s->MemoryBytes();
  return bytes;
}

// ------------------------------------------------------------------ reads

EdgeId ShardedSnapshot::FindEdge(NodeId src, NodeId dst,
                                 SymbolId label) const {
  // Same scan (and therefore same "first edge") as Graph::FindEdge: walk
  // the smaller adjacency side in stored order. Degrees are global (each
  // endpoint's own shard), and edge columns route through the owner.
  if (!NodeAlive(src) || !NodeAlive(dst)) return kInvalidEdge;
  if (OutDegree(src) <= InDegree(dst)) {
    // Out-edges of src are owned by src's shard: read columns there.
    const GraphSnapshot& s = NodeShard(src);
    for (EdgeId e : s.OutEdges(src)) {
      EdgeView v = s.Edge(e);
      if (v.dst == dst && (label == 0 || v.label == label)) return e;
    }
  } else {
    // In-edges of dst are owned by their srcs' shards: route per edge.
    for (EdgeId e : NodeShard(dst).InEdges(dst)) {
      EdgeView v = Edge(e);
      if (v.src == src && (label == 0 || v.label == label)) return e;
    }
  }
  return kInvalidEdge;
}

bool ShardedSnapshot::HasEdge(NodeId src, NodeId dst, SymbolId label) const {
  // Liveness is global (dst may live in another shard); the index entry
  // lives with the src's shard.
  if (!NodeAlive(src) || !NodeAlive(dst)) return false;
  return NodeShard(src).EdgeIndexContains(src, dst, label);
}

std::vector<NodeId> ShardedSnapshot::Nodes() const {
  std::vector<IdSpan> spans;
  spans.reserve(shards_.size());
  for (const auto& s : shards_) spans.push_back(s->NodesWithLabelSorted(0));
  return MergeAscending(std::move(spans));
}

std::vector<EdgeId> ShardedSnapshot::Edges() const {
  std::vector<std::vector<EdgeId>> lists;
  lists.reserve(shards_.size());
  std::vector<IdSpan> spans;
  spans.reserve(shards_.size());
  for (const auto& s : shards_) {
    lists.push_back(s->Edges());
    spans.push_back({lists.back().data(), lists.back().size()});
  }
  return MergeAscending(std::move(spans));
}

bool ShardedSnapshot::CollectNodesWithLabel(SymbolId label,
                                            std::vector<NodeId>* out) const {
  std::vector<IdSpan> spans;
  spans.reserve(shards_.size());
  for (const auto& s : shards_)
    spans.push_back(s->NodesWithLabelSorted(label));
  *out = MergeAscending(std::move(spans));
  return true;  // merged partitions are ascending
}

bool ShardedSnapshot::CollectNodesWithAttr(SymbolId attr, SymbolId value,
                                           std::vector<NodeId>* out) const {
  std::vector<IdSpan> spans;
  spans.reserve(shards_.size());
  for (const auto& s : shards_)
    spans.push_back(s->NodesWithAttrSorted(attr, value));
  *out = MergeAscending(std::move(spans));
  return true;  // merged partitions are ascending
}

size_t ShardedSnapshot::CountNodesWithLabel(SymbolId label) const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->CountNodesWithLabel(label);
  return total;
}

}  // namespace grepair
