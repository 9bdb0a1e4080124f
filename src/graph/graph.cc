#include "graph/graph.h"

#include <algorithm>
#include <cassert>

#include "util/hash.h"
#include "util/strings.h"

namespace grepair {

// ---------------------------------------------------------------- AttrMap

SymbolId AttrMap::Get(SymbolId attr) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), attr,
      [](const auto& p, SymbolId a) { return p.first < a; });
  if (it != entries_.end() && it->first == attr) return it->second;
  return 0;
}

SymbolId AttrMap::Set(SymbolId attr, SymbolId value) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), attr,
      [](const auto& p, SymbolId a) { return p.first < a; });
  SymbolId old = 0;
  if (it != entries_.end() && it->first == attr) {
    old = it->second;
    if (value == 0) {
      entries_.erase(it);
      // Capacity story: an emptied map releases its buffer — tombstoned
      // elements keep their AttrMap forever, and a graph that strips
      // attributes at scale must not pin one allocation per element.
      if (entries_.empty()) entries_.shrink_to_fit();
    } else {
      it->second = value;
    }
  } else if (value != 0) {
    entries_.insert(it, {attr, value});
  }
  return old;
}

// ------------------------------------------------------------------ Graph

Graph::Graph(VocabularyPtr vocab) : vocab_(std::move(vocab)) {
  assert(vocab_ != nullptr);
  label_index_[0];  // ensure the all-nodes bucket exists
}

Graph::Graph(const Graph& other)
    : vocab_(other.vocab_),
      nodes_(other.nodes_),
      edges_(other.edges_),
      log_(other.log_),
      num_alive_nodes_(other.num_alive_nodes_),
      num_alive_edges_(other.num_alive_edges_),
      label_index_(other.label_index_),
      attr_index_(other.attr_index_) {}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  vocab_ = other.vocab_;
  nodes_ = other.nodes_;
  edges_ = other.edges_;
  log_ = other.log_;
  num_alive_nodes_ = other.num_alive_nodes_;
  num_alive_edges_ = other.num_alive_edges_;
  label_index_ = other.label_index_;
  attr_index_ = other.attr_index_;
  delta_log_.reset();
  return *this;
}

Graph Graph::Clone() const {
  Graph copy(vocab_);
  copy.nodes_ = nodes_;
  copy.edges_ = edges_;
  copy.num_alive_nodes_ = num_alive_nodes_;
  copy.num_alive_edges_ = num_alive_edges_;
  copy.label_index_ = label_index_;
  copy.attr_index_ = attr_index_;
  copy.log_.clear();
  return copy;
}

void Graph::Journal(EditEntry entry) {
  if (delta_log_ != nullptr) delta_log_->records.push_back(entry);
  log_.push_back(std::move(entry));
}

void Graph::EnableDeltaLog() {
  if (delta_log_ == nullptr) delta_log_ = std::make_unique<DeltaLog>();
}

uint64_t Graph::DeltaLogBegin() const {
  return delta_log_ == nullptr ? 0 : delta_log_->base;
}

uint64_t Graph::DeltaLogEnd() const {
  return delta_log_ == nullptr ? 0
                               : delta_log_->base + delta_log_->records.size();
}

std::pair<const EditEntry*, size_t> Graph::DeltaLogSince(
    uint64_t from) const {
  if (delta_log_ == nullptr) return {nullptr, 0};
  assert(from >= delta_log_->base && from <= DeltaLogEnd());
  size_t offset = static_cast<size_t>(from - delta_log_->base);
  return {delta_log_->records.data() + offset,
          delta_log_->records.size() - offset};
}

void Graph::TrimDeltaLog(uint64_t upto) {
  if (delta_log_ == nullptr || upto <= delta_log_->base) return;
  assert(upto <= DeltaLogEnd());
  size_t drop = static_cast<size_t>(upto - delta_log_->base);
  delta_log_->records.erase(delta_log_->records.begin(),
                            delta_log_->records.begin() + drop);
  delta_log_->base = upto;
}

void Graph::IndexNode(NodeId n) {
  label_index_[nodes_[n].label].insert(n);
  label_index_[0].insert(n);
  for (const auto& [a, v] : nodes_[n].attrs.entries()) IndexNodeAttr(n, a, v);
}

void Graph::UnindexNode(NodeId n) {
  auto it = label_index_.find(nodes_[n].label);
  if (it != label_index_.end()) it->second.erase(n);
  label_index_[0].erase(n);
  for (const auto& [a, v] : nodes_[n].attrs.entries())
    UnindexNodeAttr(n, a, v);
}

void Graph::IndexNodeAttr(NodeId n, SymbolId attr, SymbolId value) {
  if (value != 0) attr_index_[AttrKey(attr, value)].insert(n);
}

void Graph::UnindexNodeAttr(NodeId n, SymbolId attr, SymbolId value) {
  if (value == 0) return;
  auto it = attr_index_.find(AttrKey(attr, value));
  if (it != attr_index_.end()) it->second.erase(n);
}

void Graph::LinkEdge(EdgeId e) {
  EdgeRec& rec = edges_[e];
  nodes_[rec.src].out.push_back(e);
  nodes_[rec.dst].in.push_back(e);
}

void Graph::UnlinkEdge(EdgeId e) {
  EdgeRec& rec = edges_[e];
  auto& out = nodes_[rec.src].out;
  out.erase(std::find(out.begin(), out.end(), e));
  auto& in = nodes_[rec.dst].in;
  in.erase(std::find(in.begin(), in.end(), e));
}

NodeId Graph::AddNode(SymbolId label) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  NodeRec rec;
  rec.label = label;
  rec.alive = true;
  nodes_.push_back(std::move(rec));
  ++num_alive_nodes_;
  IndexNode(id);
  EditEntry entry;
  entry.kind = EditKind::kAddNode;
  entry.node = id;
  entry.label = label;
  Journal(std::move(entry));
  return id;
}

Result<EdgeId> Graph::AddEdge(NodeId src, NodeId dst, SymbolId label) {
  if (!NodeAlive(src))
    return Status::NotFound(StrFormat("AddEdge: src n%u not alive", src));
  if (!NodeAlive(dst))
    return Status::NotFound(StrFormat("AddEdge: dst n%u not alive", dst));
  EdgeId id = static_cast<EdgeId>(edges_.size());
  EdgeRec rec;
  rec.src = src;
  rec.dst = dst;
  rec.label = label;
  rec.alive = true;
  edges_.push_back(std::move(rec));
  ++num_alive_edges_;
  LinkEdge(id);
  EditEntry entry;
  entry.kind = EditKind::kAddEdge;
  entry.edge = id;
  entry.src = src;
  entry.dst = dst;
  entry.label = label;
  Journal(std::move(entry));
  return id;
}

Status Graph::RemoveEdge(EdgeId e) {
  if (!EdgeAlive(e))
    return Status::NotFound(StrFormat("RemoveEdge: e%u not alive", e));
  UnlinkEdge(e);
  EdgeRec& rec = edges_[e];
  rec.alive = false;
  --num_alive_edges_;
  EditEntry entry;
  entry.kind = EditKind::kRemoveEdge;
  entry.edge = e;
  entry.src = rec.src;
  entry.dst = rec.dst;
  entry.label = rec.label;
  entry.attr_snapshot = rec.attrs.entries();
  Journal(std::move(entry));
  return Status::Ok();
}

Status Graph::RemoveNode(NodeId n) {
  if (!NodeAlive(n))
    return Status::NotFound(StrFormat("RemoveNode: n%u not alive", n));
  // Cascade incident edges first (copy: RemoveEdge mutates the vectors).
  std::vector<EdgeId> incident = nodes_[n].out;
  incident.insert(incident.end(), nodes_[n].in.begin(), nodes_[n].in.end());
  // A self-loop appears in both lists; dedupe.
  std::sort(incident.begin(), incident.end());
  incident.erase(std::unique(incident.begin(), incident.end()),
                 incident.end());
  for (EdgeId e : incident) GREPAIR_RETURN_IF_ERROR(RemoveEdge(e));
  UnindexNode(n);
  NodeRec& rec = nodes_[n];
  rec.alive = false;
  --num_alive_nodes_;
  EditEntry entry;
  entry.kind = EditKind::kRemoveNode;
  entry.node = n;
  entry.label = rec.label;
  entry.attr_snapshot = rec.attrs.entries();
  Journal(std::move(entry));
  return Status::Ok();
}

Status Graph::SetNodeLabel(NodeId n, SymbolId label) {
  if (!NodeAlive(n))
    return Status::NotFound(StrFormat("SetNodeLabel: n%u not alive", n));
  SymbolId old = nodes_[n].label;
  if (old == label) return Status::Ok();
  UnindexNode(n);
  nodes_[n].label = label;
  IndexNode(n);
  EditEntry entry;
  entry.kind = EditKind::kSetNodeLabel;
  entry.node = n;
  entry.old_sym = old;
  entry.new_sym = label;
  Journal(std::move(entry));
  return Status::Ok();
}

Status Graph::SetEdgeLabel(EdgeId e, SymbolId label) {
  if (!EdgeAlive(e))
    return Status::NotFound(StrFormat("SetEdgeLabel: e%u not alive", e));
  SymbolId old = edges_[e].label;
  if (old == label) return Status::Ok();
  edges_[e].label = label;
  EditEntry entry;
  entry.kind = EditKind::kSetEdgeLabel;
  entry.edge = e;
  entry.old_sym = old;
  entry.new_sym = label;
  Journal(std::move(entry));
  return Status::Ok();
}

Status Graph::SetNodeAttr(NodeId n, SymbolId attr, SymbolId value) {
  if (!NodeAlive(n))
    return Status::NotFound(StrFormat("SetNodeAttr: n%u not alive", n));
  SymbolId old = nodes_[n].attrs.Get(attr);
  if (old == value) return Status::Ok();
  UnindexNodeAttr(n, attr, old);
  nodes_[n].attrs.Set(attr, value);
  IndexNodeAttr(n, attr, value);
  EditEntry entry;
  entry.kind = EditKind::kSetNodeAttr;
  entry.node = n;
  entry.attr = attr;
  entry.old_sym = old;
  entry.new_sym = value;
  Journal(std::move(entry));
  return Status::Ok();
}

Status Graph::SetEdgeAttr(EdgeId e, SymbolId attr, SymbolId value) {
  if (!EdgeAlive(e))
    return Status::NotFound(StrFormat("SetEdgeAttr: e%u not alive", e));
  SymbolId old = edges_[e].attrs.Get(attr);
  if (old == value) return Status::Ok();
  edges_[e].attrs.Set(attr, value);
  EditEntry entry;
  entry.kind = EditKind::kSetEdgeAttr;
  entry.edge = e;
  entry.attr = attr;
  entry.old_sym = old;
  entry.new_sym = value;
  Journal(std::move(entry));
  return Status::Ok();
}

Status Graph::MergeNodes(NodeId keep, NodeId gone) {
  if (!NodeAlive(keep))
    return Status::NotFound(StrFormat("MergeNodes: keep n%u not alive", keep));
  if (!NodeAlive(gone))
    return Status::NotFound(StrFormat("MergeNodes: gone n%u not alive", gone));
  if (keep == gone)
    return Status::InvalidArgument("MergeNodes: keep == gone");

  // Re-home gone's edges onto keep, skipping duplicates keep already has and
  // self-loops that exist only because of the merge (an edge between keep
  // and gone collapses away, mirroring entity-resolution semantics).
  std::vector<EdgeId> out = nodes_[gone].out;
  for (EdgeId e : out) {
    EdgeView v = Edge(e);
    NodeId new_dst = (v.dst == gone) ? keep : v.dst;
    if (new_dst == keep && v.src == gone && v.dst == gone) {
      // true self-loop on gone: becomes self-loop on keep
      if (FindEdge(keep, keep, v.label) == kInvalidEdge) {
        auto r = AddEdge(keep, keep, v.label);
        if (!r.ok()) return r.status();
      }
      continue;
    }
    if (v.dst == keep) continue;  // gone->keep collapses
    if (FindEdge(keep, new_dst, v.label) == kInvalidEdge) {
      auto r = AddEdge(keep, new_dst, v.label);
      if (!r.ok()) return r.status();
      // carry edge attributes over
      for (const auto& [a, val] : EdgeAttrs(e).entries())
        GREPAIR_RETURN_IF_ERROR(SetEdgeAttr(r.value(), a, val));
    }
  }
  std::vector<EdgeId> in = nodes_[gone].in;
  for (EdgeId e : in) {
    EdgeView v = Edge(e);
    if (v.src == gone) continue;  // handled above (self-loop)
    if (v.src == keep) continue;  // keep->gone collapses
    if (FindEdge(v.src, keep, v.label) == kInvalidEdge) {
      auto r = AddEdge(v.src, keep, v.label);
      if (!r.ok()) return r.status();
      for (const auto& [a, val] : EdgeAttrs(e).entries())
        GREPAIR_RETURN_IF_ERROR(SetEdgeAttr(r.value(), a, val));
    }
  }
  // Fill attribute gaps on keep from gone.
  for (const auto& [a, val] : nodes_[gone].attrs.entries()) {
    if (nodes_[keep].attrs.Get(a) == 0)
      GREPAIR_RETURN_IF_ERROR(SetNodeAttr(keep, a, val));
  }
  return RemoveNode(gone);
}

EdgeId Graph::FindEdge(NodeId src, NodeId dst, SymbolId label) const {
  if (!NodeAlive(src) || !NodeAlive(dst)) return kInvalidEdge;
  // Scan the smaller adjacency list.
  if (nodes_[src].out.size() <= nodes_[dst].in.size()) {
    for (EdgeId e : nodes_[src].out) {
      const EdgeRec& rec = edges_[e];
      if (rec.dst == dst && (label == 0 || rec.label == label)) return e;
    }
  } else {
    for (EdgeId e : nodes_[dst].in) {
      const EdgeRec& rec = edges_[e];
      if (rec.src == src && (label == 0 || rec.label == label)) return e;
    }
  }
  return kInvalidEdge;
}

std::vector<NodeId> Graph::Nodes() const {
  std::vector<NodeId> out;
  out.reserve(num_alive_nodes_);
  for (NodeId n = 0; n < nodes_.size(); ++n)
    if (nodes_[n].alive) out.push_back(n);
  return out;
}

std::vector<EdgeId> Graph::Edges() const {
  std::vector<EdgeId> out;
  out.reserve(num_alive_edges_);
  for (EdgeId e = 0; e < edges_.size(); ++e)
    if (edges_[e].alive) out.push_back(e);
  return out;
}

const std::unordered_set<NodeId>& Graph::NodesWithLabel(SymbolId label) const {
  static const std::unordered_set<NodeId> kEmpty;
  auto it = label_index_.find(label);
  return it == label_index_.end() ? kEmpty : it->second;
}

const std::unordered_set<NodeId>& Graph::NodesWithAttr(SymbolId attr,
                                                       SymbolId value) const {
  static const std::unordered_set<NodeId> kEmpty;
  auto it = attr_index_.find(AttrKey(attr, value));
  return it == attr_index_.end() ? kEmpty : it->second;
}

bool Graph::CollectNodesWithLabel(SymbolId label,
                                  std::vector<NodeId>* out) const {
  const auto& set = NodesWithLabel(label);
  out->assign(set.begin(), set.end());
  return false;  // hash-set order
}

bool Graph::CollectNodesWithAttr(SymbolId attr, SymbolId value,
                                 std::vector<NodeId>* out) const {
  const auto& set = NodesWithAttr(attr, value);
  out->assign(set.begin(), set.end());
  return false;  // hash-set order
}

size_t Graph::CountNodesWithLabel(SymbolId label) const {
  return NodesWithLabel(label).size();
}

Status Graph::UndoEntry(const EditEntry& e) {
  switch (e.kind) {
    case EditKind::kAddNode: {
      if (!NodeAlive(e.node))
        return Status::Internal("undo AddNode: node not alive");
      if (!nodes_[e.node].out.empty() || !nodes_[e.node].in.empty())
        return Status::Internal("undo AddNode: node still has edges");
      UnindexNode(e.node);
      nodes_[e.node].alive = false;
      nodes_[e.node].attrs = AttrMap();
      --num_alive_nodes_;
      return Status::Ok();
    }
    case EditKind::kRemoveNode: {
      NodeRec& rec = nodes_[e.node];
      if (rec.alive) return Status::Internal("undo RemoveNode: node alive");
      rec.alive = true;
      rec.label = e.label;
      rec.attrs = AttrMap();
      rec.attrs.Reserve(e.attr_snapshot.size());
      for (const auto& [a, v] : e.attr_snapshot) rec.attrs.Set(a, v);
      ++num_alive_nodes_;
      IndexNode(e.node);
      return Status::Ok();
    }
    case EditKind::kAddEdge: {
      if (!EdgeAlive(e.edge))
        return Status::Internal("undo AddEdge: edge not alive");
      UnlinkEdge(e.edge);
      edges_[e.edge].alive = false;
      edges_[e.edge].attrs = AttrMap();
      --num_alive_edges_;
      return Status::Ok();
    }
    case EditKind::kRemoveEdge: {
      EdgeRec& rec = edges_[e.edge];
      if (rec.alive) return Status::Internal("undo RemoveEdge: edge alive");
      rec.alive = true;
      rec.src = e.src;
      rec.dst = e.dst;
      rec.label = e.label;
      rec.attrs = AttrMap();
      rec.attrs.Reserve(e.attr_snapshot.size());
      for (const auto& [a, v] : e.attr_snapshot) rec.attrs.Set(a, v);
      ++num_alive_edges_;
      LinkEdge(e.edge);
      return Status::Ok();
    }
    case EditKind::kSetNodeLabel: {
      UnindexNode(e.node);
      nodes_[e.node].label = e.old_sym;
      IndexNode(e.node);
      return Status::Ok();
    }
    case EditKind::kSetEdgeLabel: {
      edges_[e.edge].label = e.old_sym;
      return Status::Ok();
    }
    case EditKind::kSetNodeAttr: {
      UnindexNodeAttr(e.node, e.attr, e.new_sym);
      nodes_[e.node].attrs.Set(e.attr, e.old_sym);
      IndexNodeAttr(e.node, e.attr, e.old_sym);
      return Status::Ok();
    }
    case EditKind::kSetEdgeAttr: {
      edges_[e.edge].attrs.Set(e.attr, e.old_sym);
      return Status::Ok();
    }
  }
  return Status::Internal("undo: unknown edit kind");
}

Status Graph::UndoTo(size_t mark) {
  if (mark > log_.size())
    return Status::OutOfRange("UndoTo: mark beyond journal");
  while (log_.size() > mark) {
    EditEntry entry = std::move(log_.back());
    log_.pop_back();
    GREPAIR_RETURN_IF_ERROR(UndoEntry(entry));
    // The journal pops silently, but the PHYSICAL state change (including
    // the adjacency-tail position of a revived edge) must stay visible to
    // delta-log consumers: record the undo as its forward inverse.
    if (delta_log_ != nullptr)
      delta_log_->records.push_back(InverseEntry(entry));
  }
  return Status::Ok();
}

uint64_t Graph::Fingerprint() const {
  uint64_t h = 0;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const NodeRec& rec = nodes_[n];
    if (!rec.alive) continue;
    uint64_t nh = HashCombine(Mix64(n + 1), rec.label);
    for (const auto& [a, v] : rec.attrs.entries())
      nh = HashCombine(nh, (uint64_t(a) << 32) | v);
    h ^= Mix64(nh);
  }
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const EdgeRec& rec = edges_[e];
    if (!rec.alive) continue;
    uint64_t eh = HashCombine(
        HashCombine(Mix64(uint64_t(rec.src) + 0x51ULL), rec.dst), rec.label);
    for (const auto& [a, v] : rec.attrs.entries())
      eh = HashCombine(eh, (uint64_t(a) << 32) | v);
    h ^= Mix64(eh ^ 0xABCDEF12345ULL);
  }
  return h;
}

bool Graph::ContentEquals(const Graph& other) const {
  if (NumNodes() != other.NumNodes() || NumEdges() != other.NumEdges())
    return false;
  size_t nb = std::max(nodes_.size(), other.nodes_.size());
  for (NodeId n = 0; n < nb; ++n) {
    bool a = NodeAlive(n), b = other.NodeAlive(n);
    if (a != b) return false;
    if (!a) continue;
    if (nodes_[n].label != other.nodes_[n].label) return false;
    if (!(nodes_[n].attrs == other.nodes_[n].attrs)) return false;
  }
  size_t eb = std::max(edges_.size(), other.edges_.size());
  for (EdgeId e = 0; e < eb; ++e) {
    bool a = EdgeAlive(e), b = other.EdgeAlive(e);
    if (a != b) return false;
    if (!a) continue;
    if (edges_[e].src != other.edges_[e].src ||
        edges_[e].dst != other.edges_[e].dst ||
        edges_[e].label != other.edges_[e].label)
      return false;
    if (!(edges_[e].attrs == other.edges_[e].attrs)) return false;
  }
  return true;
}

std::string Graph::DebugSummary() const {
  return StrFormat("Graph{|V|=%zu,|E|=%zu,journal=%zu}", NumNodes(),
                   NumEdges(), log_.size());
}

}  // namespace grepair
