#include "stream.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common.h"

namespace perfbench {

using grepair::EdgeId;
using grepair::EdgeView;
using grepair::Graph;
using grepair::kInvalidEdge;
using grepair::NodeId;
using grepair::SymbolId;

namespace {

// Batch mix: 6 + 2 one-way adds, 6 + 2 pair removals (two lines each),
// 4 second born_in, 4 cleared is_capital = 32 lines, 16 corruptions.
constexpr int kKnowsAdds = 6;
constexpr int kSpouseAdds = 2;
constexpr int kBornIn = 4;
constexpr int kCapitalClears = 4;
constexpr int kMaxTries = 10000;

std::vector<NodeId> SortedWithLabel(const Graph& g, SymbolId label) {
  const auto& set = g.NodesWithLabel(label);
  std::vector<NodeId> v(set.begin(), set.end());
  std::sort(v.begin(), v.end());
  return v;
}

std::pair<NodeId, NodeId> PairKey(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

}  // namespace

void EditStream::Refresh(const Graph& g) {
  persons_ = SortedWithLabel(g, s_.person);
  cities_ = SortedWithLabel(g, s_.city);
  seen_nodes_ = g.NumNodes();
  if (persons_.size() < 2 || cities_.size() < 2)
    Fail("served graph has too few persons or cities for the edit stream");
}

NodeId EditStream::PickPerson() {
  return persons_[rng_.PickIndex(persons_)];
}

StreamBatch EditStream::Next(const Graph& g) {
  if (g.NumNodes() != seen_nodes_) Refresh(g);
  std::vector<NodeId> capitals;
  for (NodeId country : SortedWithLabel(g, s_.country))
    for (EdgeId e : g.InEdges(country))
      if (g.EdgeLabel(e) == s_.capital_of) capitals.push_back(g.Edge(e).src);
  std::sort(capitals.begin(), capitals.end());
  capitals.erase(std::unique(capitals.begin(), capitals.end()), capitals.end());
  if (capitals.size() < kCapitalClears)
    Fail("served graph has too few capitals for the edit stream");

  StreamBatch batch;
  std::set<std::pair<NodeId, NodeId>> touched;  // unordered person pairs
  auto label_name = [&](SymbolId l) { return g.vocab()->LabelName(l); };

  // One-way adds: a pair with no edge of `label` in either direction.
  auto add_one_way = [&](SymbolId label) {
    for (int t = 0; t < kMaxTries; ++t) {
      NodeId a = PickPerson(), b = PickPerson();
      if (a == b || touched.count(PairKey(a, b)) ||
          g.FindEdge(a, b, label) != kInvalidEdge ||
          g.FindEdge(b, a, label) != kInvalidEdge)
        continue;
      touched.insert(PairKey(a, b));
      batch.lines.push_back("add_edge " + std::to_string(a) + " " +
                            std::to_string(b) + " " + label_name(label));
      Fact f;
      f.kind = Fact::Kind::kEdgePresent;
      f.a = b;
      f.b = a;
      f.label = label;
      batch.facts.push_back(f);
      return;
    }
    Fail("edit stream found no person pair to link");
  };
  // Benign removal of a whole pair a<->b of `label`.
  auto remove_pair = [&](SymbolId label) {
    for (int t = 0; t < kMaxTries; ++t) {
      NodeId a = PickPerson();
      std::vector<EdgeView> out;
      for (EdgeId e : g.OutEdges(a)) {
        EdgeView v = g.Edge(e);
        if (v.label == label && !touched.count(PairKey(a, v.dst)))
          out.push_back(v);
      }
      if (out.empty()) continue;
      const EdgeView ab = out[rng_.PickIndex(out)];
      const EdgeId ba = g.FindEdge(ab.dst, a, label);
      if (ba == kInvalidEdge)
        Fail("served graph holds a one-way " + label_name(label) + " edge " +
             std::to_string(a) + "->" + std::to_string(ab.dst));
      touched.insert(PairKey(a, ab.dst));
      batch.lines.push_back("remove_edge " + std::to_string(ab.id));
      batch.lines.push_back("remove_edge " + std::to_string(ba));
      return;
    }
    Fail("edit stream found no pair to remove");
  };

  for (int i = 0; i < kKnowsAdds; ++i) add_one_way(s_.knows);
  for (int i = 0; i < kSpouseAdds; ++i) add_one_way(s_.spouse);
  for (int i = 0; i < kKnowsAdds; ++i) remove_pair(s_.knows);
  for (int i = 0; i < kSpouseAdds; ++i) remove_pair(s_.spouse);

  std::set<NodeId> born_touched;
  for (int i = 0; i < kBornIn; ++i) {
    bool done = false;
    for (int t = 0; t < kMaxTries && !done; ++t) {
      NodeId p = PickPerson();
      if (born_touched.count(p)) continue;
      NodeId current = grepair::kInvalidNode;
      int born = 0;
      for (EdgeId e : g.OutEdges(p)) {
        if (g.EdgeLabel(e) != s_.born_in) continue;
        current = g.Edge(e).dst;
        ++born;
      }
      if (born != 1) continue;
      NodeId c = cities_[rng_.PickIndex(cities_)];
      if (c == current) continue;
      born_touched.insert(p);
      batch.lines.push_back("add_edge " + std::to_string(p) + " " +
                            std::to_string(c) + " born_in");
      Fact f;
      f.kind = Fact::Kind::kEdgeReverted;
      f.a = p;
      f.b = c;
      f.c = current;
      f.label = s_.born_in;
      batch.facts.push_back(f);
      done = true;
    }
    if (!done) Fail("edit stream found no person with one born_in");
  }

  rng_.Shuffle(&capitals);
  for (int i = 0; i < kCapitalClears; ++i) {
    batch.lines.push_back("set_node_attr " + std::to_string(capitals[i]) +
                          " is_capital -");
    Fact f;
    f.kind = Fact::Kind::kAttrEquals;
    f.a = capitals[i];
    f.label = s_.is_capital;
    f.value = s_.yes;
    batch.facts.push_back(f);
  }
  return batch;
}

bool EditStream::Holds(const Graph& g, const Fact& f) const {
  switch (f.kind) {
    case Fact::Kind::kEdgePresent:
      return g.FindEdge(f.a, f.b, f.label) != kInvalidEdge;
    case Fact::Kind::kEdgeReverted:
      return g.FindEdge(f.a, f.b, f.label) == kInvalidEdge &&
             g.FindEdge(f.a, f.c, f.label) != kInvalidEdge;
    case Fact::Kind::kAttrEquals:
      return g.NodeAttr(f.a, f.label) == f.value;
  }
  return false;
}

}  // namespace perfbench
