#include "mining/rule_miner.h"

#include <algorithm>
#include <map>
#include <set>

#include "grr/rule_builder.h"
#include "grr/rule_validator.h"
#include "parallel/thread_pool.h"
#include "util/strings.h"

namespace grepair {
namespace {

// Per-edge-label endpoint statistics.
struct LabelStats {
  size_t count = 0;
  size_t symmetric = 0;  // edges whose reverse same-label edge exists
  std::map<SymbolId, size_t> src_labels;
  std::map<SymbolId, size_t> dst_labels;
  // functional side: sources with >=1 / exactly 1 outgoing edge
  size_t srcs_with_any = 0, srcs_with_one = 0;
  size_t dsts_with_any = 0, dsts_with_one = 0;
};

// Dominant node label if pure enough, else 0 (wildcard).
SymbolId DominantLabel(const std::map<SymbolId, size_t>& hist, size_t total,
                       double purity) {
  for (const auto& [label, n] : hist)
    if (double(n) >= purity * double(total)) return label;
  return 0;
}

std::string LabelName(const GraphView& g, SymbolId l) {
  return l ? g.vocab()->LabelName(l) : std::string("any");
}

// Everything the support-statistics passes accumulate. Each shard fills its
// own instance from a contiguous slice of edges/nodes; Merge folds shards
// together. All aggregates are sums, max-free counts or set unions, so the
// merged result is independent of sharding.
struct SupportStats {
  std::map<SymbolId, LabelStats> stats;
  // co_fwd[l1][l2]: edges (x,l1,y) with an (x,l2,y) companion.
  // co_rev[l1][l2]: edges (x,l1,y) with a (y,l2,x) companion.
  std::map<SymbolId, std::map<SymbolId, size_t>> co_fwd, co_rev;
  // label -> attr -> (count, distinct values), for key mining.
  std::map<SymbolId, std::map<SymbolId, std::pair<size_t, std::set<SymbolId>>>>
      attr_values;

  void Merge(const SupportStats& o) {
    for (const auto& [l, s] : o.stats) {
      LabelStats& d = stats[l];
      d.count += s.count;
      d.symmetric += s.symmetric;
      for (const auto& [k, v] : s.src_labels) d.src_labels[k] += v;
      for (const auto& [k, v] : s.dst_labels) d.dst_labels[k] += v;
      d.srcs_with_any += s.srcs_with_any;
      d.srcs_with_one += s.srcs_with_one;
      d.dsts_with_any += s.dsts_with_any;
      d.dsts_with_one += s.dsts_with_one;
    }
    for (const auto& [l1, row] : o.co_fwd)
      for (const auto& [l2, c] : row) co_fwd[l1][l2] += c;
    for (const auto& [l1, row] : o.co_rev)
      for (const auto& [l2, c] : row) co_rev[l1][l2] += c;
    for (const auto& [nl, attrs] : o.attr_values) {
      for (const auto& [attr, slot] : attrs) {
        auto& dst = attr_values[nl][attr];
        dst.first += slot.first;
        dst.second.insert(slot.second.begin(), slot.second.end());
      }
    }
  }

  // Edge-anchored statistics for edges[lo, hi).
  void ScanEdges(const GraphView& g, const std::vector<EdgeId>& edges,
                 size_t lo,
                 size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      EdgeView v = g.Edge(edges[i]);
      LabelStats& s = stats[v.label];
      ++s.count;
      if (g.HasEdge(v.dst, v.src, v.label)) ++s.symmetric;
      s.src_labels[g.NodeLabel(v.src)]++;
      s.dst_labels[g.NodeLabel(v.dst)]++;
    }
  }

  // Node-anchored statistics (functionality, co-occurrence, key attrs) for
  // nodes[lo, hi).
  void ScanNodes(const GraphView& g, const std::vector<NodeId>& nodes,
                 size_t lo,
                 size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      NodeId n = nodes[i];
      // Functionality: per-node out/in edge counts per label.
      std::map<SymbolId, size_t> out_per_label, in_per_label;
      for (EdgeId e : g.OutEdges(n)) out_per_label[g.EdgeLabel(e)]++;
      for (EdgeId e : g.InEdges(n)) in_per_label[g.EdgeLabel(e)]++;
      for (const auto& [l, k] : out_per_label) {
        ++stats[l].srcs_with_any;
        if (k == 1) ++stats[l].srcs_with_one;
      }
      for (const auto& [l, k] : in_per_label) {
        ++stats[l].dsts_with_any;
        if (k == 1) ++stats[l].dsts_with_one;
      }
      // Implications between labels on the same node pair.
      std::map<NodeId, std::set<SymbolId>> by_dst;
      for (EdgeId e : g.OutEdges(n))
        by_dst[g.Edge(e).dst].insert(g.EdgeLabel(e));
      for (const auto& [y, labels] : by_dst) {
        std::set<SymbolId> rev;
        for (EdgeId e : g.OutEdges(y))
          if (g.Edge(e).dst == n) rev.insert(g.EdgeLabel(e));
        for (SymbolId l1 : labels) {
          for (SymbolId l2 : labels)
            if (l1 != l2) co_fwd[l1][l2]++;
          for (SymbolId l2 : rev)
            if (l1 != l2) co_rev[l1][l2]++;
        }
      }
      // Key mining: attr usage per node label.
      SymbolId nl = g.NodeLabel(n);
      for (const auto& [attr, value] : g.NodeAttrs(n).entries()) {
        auto& slot = attr_values[nl][attr];
        slot.first++;
        slot.second.insert(value);
      }
    }
  }
};

// Runs the read-only scan passes, sharded across a pool when
// opt.num_threads != 1. Shard workers touch only const Graph state and
// never the vocabulary writer API (single-writer/concurrent-reader model).
SupportStats CollectSupportStats(const GraphView& g,
                                 const MiningOptions& opt) {
  std::vector<EdgeId> edges = g.Edges();
  std::vector<NodeId> nodes = g.Nodes();

  if (opt.num_threads == 1) {
    SupportStats total;
    total.ScanEdges(g, edges, 0, edges.size());
    total.ScanNodes(g, nodes, 0, nodes.size());
    return total;
  }

  ThreadPool pool(opt.num_threads);
  // Every worker scans its block of `g` itself (all aggregates are
  // sharding-independent, so the merged result is unchanged).
  size_t shards = std::max<size_t>(1, pool.NumThreads());
  std::vector<SupportStats> per_shard(shards);
  pool.ParallelFor(shards, [&](size_t s) {
    auto [elo, ehi] = BlockRange(edges.size(), s, shards);
    per_shard[s].ScanEdges(g, edges, elo, ehi);
    auto [nlo, nhi] = BlockRange(nodes.size(), s, shards);
    per_shard[s].ScanNodes(g, nodes, nlo, nhi);
  });
  SupportStats total;
  for (const SupportStats& ps : per_shard) total.Merge(ps);
  return total;
}

}  // namespace

std::vector<MinedRule> MineRules(const GraphView& g,
                                 const MiningOptions& opt) {
  std::vector<MinedRule> out;
  Vocabulary* vocab = g.vocab().get();

  // ---- Support statistics (parallel when opt.num_threads != 1) ----------
  SupportStats support = CollectSupportStats(g, opt);
  std::map<SymbolId, LabelStats>& stats = support.stats;
  auto& co_fwd = support.co_fwd;
  auto& co_rev = support.co_rev;
  auto& attr_values = support.attr_values;

  // ---- Emit edge rules ---------------------------------------------------
  for (const auto& [label, s] : stats) {
    if (s.count < opt.min_evidence) continue;
    std::string lname = vocab->LabelName(label);
    SymbolId src_l = DominantLabel(s.src_labels, s.count, opt.min_label_purity);
    SymbolId dst_l = DominantLabel(s.dst_labels, s.count, opt.min_label_purity);
    std::string src_name = LabelName(g, src_l);
    std::string dst_name = LabelName(g, dst_l);

    // Symmetry. Only meaningful when both endpoint types agree.
    double sym_support = double(s.symmetric) / double(s.count);
    if (sym_support >= opt.min_support && src_l == dst_l) {
      RuleBuilder b(vocab, "mined_sym_" + lname, ErrorClass::kIncomplete);
      VarId x = b.Node("x", src_l ? src_name : "");
      VarId y = b.Node("y", src_l ? src_name : "");
      b.Edge(x, y, lname);
      b.NoEdge(y, x, lname);
      b.ActionAddEdge(y, x, lname);
      Rule r = std::move(b).Build();
      if (ValidateRule(r, *vocab).ok())
        out.push_back({std::move(r), sym_support, s.count, "symmetry"});
    }

    // Functional / inverse-functional conflicts. Skip symmetric relations:
    // "at most one partner" style constraints are legitimate (spouse), but
    // social ties (knows) are not functional — the with_one ratio filters
    // that automatically.
    if (s.srcs_with_any >= opt.min_evidence) {
      double fn_support = double(s.srcs_with_one) / double(s.srcs_with_any);
      if (fn_support >= opt.min_support) {
        RuleBuilder b(vocab, "mined_fn_" + lname, ErrorClass::kConflict);
        VarId p = b.Node("p", src_l ? src_name : "");
        VarId c1 = b.Node("c1", dst_l ? dst_name : "");
        VarId c2 = b.Node("c2", dst_l ? dst_name : "");
        b.Edge(p, c1, lname);
        size_t e2 = b.Edge(p, c2, lname);
        b.ActionDelEdge(e2);
        Rule r = std::move(b).Build();
        if (ValidateRule(r, *vocab).ok())
          out.push_back(
              {std::move(r), fn_support, s.srcs_with_any, "functional"});
      }
    }
    if (s.dsts_with_any >= opt.min_evidence) {
      double ifn_support = double(s.dsts_with_one) / double(s.dsts_with_any);
      if (ifn_support >= opt.min_support) {
        RuleBuilder b(vocab, "mined_ifn_" + lname, ErrorClass::kConflict);
        VarId c1 = b.Node("c1", src_l ? src_name : "");
        VarId c2 = b.Node("c2", src_l ? src_name : "");
        VarId y = b.Node("y", dst_l ? dst_name : "");
        b.Edge(c1, y, lname);
        size_t e2 = b.Edge(c2, y, lname);
        b.ActionDelEdge(e2);
        Rule r = std::move(b).Build();
        if (ValidateRule(r, *vocab).ok())
          out.push_back({std::move(r), ifn_support, s.dsts_with_any,
                         "inverse_functional"});
      }
    }
  }

  // Implications (forward and reverse).
  auto emit_implication = [&](SymbolId l1, SymbolId l2, size_t co,
                              bool reverse) {
    const LabelStats& s1 = stats[l1];
    if (s1.count < opt.min_evidence) return;
    double support = double(co) / double(s1.count);
    if (support < opt.min_support) return;
    // Symmetric pairs already covered by symmetry rules.
    if (l1 == l2) return;
    std::string l1n = vocab->LabelName(l1), l2n = vocab->LabelName(l2);
    SymbolId src_l =
        DominantLabel(s1.src_labels, s1.count, opt.min_label_purity);
    SymbolId dst_l =
        DominantLabel(s1.dst_labels, s1.count, opt.min_label_purity);
    RuleBuilder b(vocab,
                  StrFormat("mined_imp%s_%s_%s", reverse ? "_rev" : "",
                            l1n.c_str(), l2n.c_str()),
                  ErrorClass::kIncomplete);
    VarId x = b.Node("x", src_l ? LabelName(g, src_l) : "");
    VarId y = b.Node("y", dst_l ? LabelName(g, dst_l) : "");
    b.Edge(x, y, l1n);
    if (reverse) {
      b.NoEdge(y, x, l2n);
      b.ActionAddEdge(y, x, l2n);
    } else {
      b.NoEdge(x, y, l2n);
      b.ActionAddEdge(x, y, l2n);
    }
    Rule r = std::move(b).Build();
    if (ValidateRule(r, *vocab).ok())
      out.push_back({std::move(r), support, s1.count, "implication"});
  };
  for (const auto& [l1, row] : co_fwd)
    for (const auto& [l2, co] : row) emit_implication(l1, l2, co, false);
  for (const auto& [l1, row] : co_rev)
    for (const auto& [l2, co] : row) emit_implication(l1, l2, co, true);

  // ---- Key mining: (node label, attr) uniqueness -> MERGE rule ----------
  for (const auto& [nl, attrs] : attr_values) {
    for (const auto& [attr, slot] : attrs) {
      const auto& [count, distinct] = slot;
      if (count < opt.min_evidence) continue;
      double uniqueness = double(distinct.size()) / double(count);
      if (uniqueness < opt.min_key_uniqueness) continue;
      std::string nln = vocab->LabelName(nl);
      std::string an = vocab->AttrName(attr);
      RuleBuilder b(vocab, StrFormat("mined_key_%s_%s", nln.c_str(),
                                     an.c_str()),
                    ErrorClass::kRedundant);
      VarId x = b.Node("x", nln);
      VarId y = b.Node("y", nln);
      b.AttrCmp(x, an, CmpOp::kEq, y, an);
      b.ActionMerge(x, y);
      Rule r = std::move(b).Build();
      if (ValidateRule(r, *vocab).ok())
        out.push_back({std::move(r), uniqueness, count, "key"});
    }
  }

  // Deterministic presentation: by kind, then name.
  std::sort(out.begin(), out.end(), [](const MinedRule& a, const MinedRule& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.rule.name() < b.rule.name();
  });
  return out;
}

}  // namespace grepair
