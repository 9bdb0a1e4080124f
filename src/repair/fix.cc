#include "repair/fix.h"

#include <algorithm>
#include <limits>

#include "util/strings.h"

namespace grepair {
namespace {

// Confidence factor in (0, 1]: conf=30 -> 0.3. Absent/garbled attr -> 1.0.
double ConfFactor(const GraphView& g, EdgeId e, SymbolId conf_attr) {
  if (conf_attr == 0) return 1.0;
  SymbolId v = g.EdgeAttr(e, conf_attr);
  if (v == 0) return 1.0;
  double num;
  if (!ParseDouble(g.vocab()->ValueName(v), &num)) return 1.0;
  double f = num / 100.0;
  if (f < 0.05) f = 0.05;
  if (f > 1.0) f = 1.0;
  return f;
}

}  // namespace

std::string AppliedFix::ToString(const Vocabulary& vocab) const {
  return StrFormat("%s[r%u](n%u,n%u,%s)",
                   std::string(ActionKindName(kind)).c_str(), rule, node_a,
                   node_b, label ? vocab.LabelName(label).c_str() : "-");
}

double FixCost(const GraphView& g, const Rule& rule, const Match& match,
               const CostModel& model, SymbolId conf_attr) {
  const RepairAction& a = rule.action();
  double cost = 0.0;
  switch (a.kind) {
    case ActionKind::kAddEdge:
      cost = model.edge_insert;
      break;
    case ActionKind::kAddNode:
      cost = model.node_insert + model.edge_insert;
      break;
    case ActionKind::kDelEdge:
      cost = model.edge_delete *
             ConfFactor(g, match.edges[a.edge_idx], conf_attr);
      break;
    case ActionKind::kDelNode: {
      NodeId n = match.nodes[a.var];
      cost = model.node_delete;
      for (EdgeId e : g.OutEdges(n))
        cost += model.edge_delete * ConfFactor(g, e, conf_attr);
      for (EdgeId e : g.InEdges(n)) {
        EdgeView v = g.Edge(e);
        if (v.src == n && v.dst == n) continue;  // self-loop counted once
        cost += model.edge_delete * ConfFactor(g, e, conf_attr);
      }
      break;
    }
    case ActionKind::kUpdNode:
      cost = (a.label != 0 ? model.relabel : 0.0) +
             (a.attr != 0 ? model.attr_update : 0.0);
      break;
    case ActionKind::kUpdEdge:
      cost = model.relabel;
      break;
    case ActionKind::kMerge:
      // Entity resolution: one node disappears; edge moves are bookkeeping,
      // not information loss.
      cost = model.node_delete;
      break;
  }
  double prio = rule.priority() > 0 ? rule.priority() : 1.0;
  return cost / prio;
}

const Match* CheapestLiveAlternative(const GraphView& g, const Rule& rule,
                                     const std::vector<Match>& alternatives,
                                     const CostModel& model,
                                     SymbolId conf_attr, double* cost) {
  const Matcher matcher(g, rule.pattern());
  const Match* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const Match& alt : alternatives) {
    if (!matcher.Verify(alt)) continue;
    const double c = FixCost(g, rule, alt, model, conf_attr);
    if (c < best_cost) {
      best_cost = c;
      best = &alt;
    }
  }
  if (cost != nullptr) *cost = best_cost;
  return best;
}

Result<AppliedFix> ApplyFix(Graph* g, RuleId rule_id, const Rule& rule,
                            const Match& match) {
  const RepairAction& a = rule.action();
  AppliedFix out;
  out.rule = rule_id;
  out.kind = a.kind;
  out.journal_begin = g->JournalSize();

  switch (a.kind) {
    case ActionKind::kAddEdge: {
      NodeId src = match.nodes[a.var], dst = match.nodes[a.var2];
      auto r = g->AddEdge(src, dst, a.label);
      if (!r.ok()) return r.status();
      out.node_a = src;
      out.node_b = dst;
      out.label = a.label;
      break;
    }
    case ActionKind::kAddNode: {
      NodeId anchor = match.nodes[a.var];
      NodeId nu = g->AddNode(a.node_label);
      Result<EdgeId> r = a.new_node_is_src ? g->AddEdge(nu, anchor, a.label)
                                           : g->AddEdge(anchor, nu, a.label);
      if (!r.ok()) return r.status();
      out.node_a = anchor;
      out.new_node = nu;
      out.label = a.label;
      break;
    }
    case ActionKind::kDelEdge: {
      EdgeId e = match.edges[a.edge_idx];
      EdgeView v = g->Edge(e);
      out.node_a = v.src;
      out.node_b = v.dst;
      out.label = v.label;
      GREPAIR_RETURN_IF_ERROR(g->RemoveEdge(e));
      break;
    }
    case ActionKind::kDelNode: {
      NodeId n = match.nodes[a.var];
      out.node_a = n;
      GREPAIR_RETURN_IF_ERROR(g->RemoveNode(n));
      break;
    }
    case ActionKind::kUpdNode: {
      NodeId n = match.nodes[a.var];
      out.node_a = n;
      if (a.label != 0) {
        out.label = a.label;
        GREPAIR_RETURN_IF_ERROR(g->SetNodeLabel(n, a.label));
      }
      if (a.attr != 0) {
        out.attr = a.attr;
        out.value = a.value;
        GREPAIR_RETURN_IF_ERROR(g->SetNodeAttr(n, a.attr, a.value));
      }
      break;
    }
    case ActionKind::kUpdEdge: {
      EdgeId e = match.edges[a.edge_idx];
      EdgeView v = g->Edge(e);
      out.node_a = v.src;
      out.node_b = v.dst;
      out.label = a.label;
      GREPAIR_RETURN_IF_ERROR(g->SetEdgeLabel(e, a.label));
      break;
    }
    case ActionKind::kMerge: {
      NodeId n1 = match.nodes[a.var], n2 = match.nodes[a.var2];
      NodeId keep = std::min(n1, n2), gone = std::max(n1, n2);
      out.node_a = keep;
      out.node_b = gone;
      GREPAIR_RETURN_IF_ERROR(g->MergeNodes(keep, gone));
      break;
    }
  }
  out.journal_end = g->JournalSize();
  return out;
}

}  // namespace grepair
