// Shared read-for-read equivalence assertion between a live Graph and any
// snapshot view — a GraphSnapshot (fresh-built or delta-patched) or a
// ShardedSnapshot at any shard count: accessors, tombstones, adjacency
// ORDER, Find/HasEdge, counts, and candidate collection with the snapshot
// ascending contract. Used by test_snapshot.cc, test_snapshot_patch.cc and
// test_sharded_snapshot.cc.
#ifndef GREPAIR_TESTS_SNAPSHOT_EQUIVALENCE_H_
#define GREPAIR_TESTS_SNAPSHOT_EQUIVALENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/graph.h"
#include "graph/snapshot.h"

namespace grepair {

inline std::vector<EdgeId> ToVector(IdSpan span) {
  return std::vector<EdgeId>(span.begin(), span.end());
}

// Element-by-element read equivalence, including tombstones and adjacency
// order. `s` must honor the snapshot contract (ascending Collect* with a
// true sorted flag) — GraphSnapshot and ShardedSnapshot both do.
inline void ExpectViewEquivalent(const Graph& g, const GraphView& s) {
  ASSERT_EQ(g.NumNodes(), s.NumNodes());
  ASSERT_EQ(g.NumEdges(), s.NumEdges());
  ASSERT_EQ(g.NodeIdBound(), s.NodeIdBound());
  ASSERT_EQ(g.EdgeIdBound(), s.EdgeIdBound());
  EXPECT_EQ(g.Nodes(), s.Nodes());
  EXPECT_EQ(g.Edges(), s.Edges());

  for (NodeId n = 0; n < g.NodeIdBound(); ++n) {
    ASSERT_EQ(g.NodeAlive(n), s.NodeAlive(n)) << "n" << n;
    EXPECT_EQ(g.NodeLabel(n), s.NodeLabel(n)) << "n" << n;
    EXPECT_TRUE(g.NodeAttrs(n) == s.NodeAttrs(n)) << "n" << n;
    if (!g.NodeAlive(n)) continue;
    // Adjacency: same edges in the SAME order (enumeration order is
    // load-bearing for match emission).
    EXPECT_EQ(ToVector(g.OutEdges(n)), ToVector(s.OutEdges(n))) << "n" << n;
    EXPECT_EQ(ToVector(g.InEdges(n)), ToVector(s.InEdges(n))) << "n" << n;
    EXPECT_EQ(g.CountNodesWithLabel(g.NodeLabel(n)),
              s.CountNodesWithLabel(g.NodeLabel(n)));
  }
  for (EdgeId e = 0; e < g.EdgeIdBound(); ++e) {
    ASSERT_EQ(g.EdgeAlive(e), s.EdgeAlive(e)) << "e" << e;
    EdgeView a = g.Edge(e), b = s.Edge(e);
    EXPECT_EQ(a.src, b.src) << "e" << e;
    EXPECT_EQ(a.dst, b.dst) << "e" << e;
    EXPECT_EQ(a.label, b.label) << "e" << e;
    EXPECT_TRUE(g.EdgeAttrs(e) == s.EdgeAttrs(e)) << "e" << e;
    if (!g.EdgeAlive(e)) continue;
    // FindEdge/HasEdge agree on every alive edge's endpoints, both with the
    // exact label and with the wildcard.
    EXPECT_EQ(g.FindEdge(a.src, a.dst, a.label),
              s.FindEdge(a.src, a.dst, a.label));
    EXPECT_EQ(g.FindEdge(a.src, a.dst, 0), s.FindEdge(a.src, a.dst, 0));
    EXPECT_TRUE(s.HasEdge(a.src, a.dst, a.label));
    EXPECT_EQ(g.HasEdge(a.dst, a.src, a.label),
              s.HasEdge(a.dst, a.src, a.label));
  }

  // Candidate collection: same SET of nodes; the snapshot's must come back
  // ascending (that is the contiguous-range seeding contract).
  std::vector<NodeId> from_g, from_s;
  for (NodeId n : g.Nodes()) {
    SymbolId label = g.NodeLabel(n);
    EXPECT_FALSE(g.CollectNodesWithLabel(label, &from_g));
    EXPECT_TRUE(s.CollectNodesWithLabel(label, &from_s));
    EXPECT_TRUE(std::is_sorted(from_s.begin(), from_s.end()));
    std::sort(from_g.begin(), from_g.end());
    EXPECT_EQ(from_g, from_s) << "label of n" << n;
    for (const auto& [attr, value] : g.NodeAttrs(n).entries()) {
      EXPECT_FALSE(g.CollectNodesWithAttr(attr, value, &from_g));
      EXPECT_TRUE(s.CollectNodesWithAttr(attr, value, &from_s));
      EXPECT_TRUE(std::is_sorted(from_s.begin(), from_s.end()));
      std::sort(from_g.begin(), from_g.end());
      EXPECT_EQ(from_g, from_s) << "attr " << attr << "=" << value;
    }
  }
}

}  // namespace grepair

#endif  // GREPAIR_TESTS_SNAPSHOT_EQUIVALENCE_H_
