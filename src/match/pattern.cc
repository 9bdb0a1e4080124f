#include "match/pattern.h"

#include <algorithm>

#include "util/strings.h"

namespace grepair {

std::string_view CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kAbsent: return "ABSENT";
    case CmpOp::kPresent: return "PRESENT";
  }
  return "?";
}

VarId Pattern::AddNode(SymbolId label, std::string var_name) {
  PatternNode n;
  n.label = label;
  n.var_name = std::move(var_name);
  nodes_.push_back(std::move(n));
  return static_cast<VarId>(nodes_.size() - 1);
}

Result<size_t> Pattern::AddEdge(VarId src, VarId dst, SymbolId label) {
  if (src >= nodes_.size() || dst >= nodes_.size())
    return Status::InvalidArgument("pattern edge endpoint out of range");
  PatternEdge e;
  e.src = src;
  e.dst = dst;
  e.label = label;
  edges_.push_back(e);
  return edges_.size() - 1;
}

Status Pattern::Validate() const {
  if (nodes_.empty())
    return Status::InvalidArgument("pattern has no node variables");
  if (nodes_.size() > kMaxPatternNodes)
    return Status::InvalidArgument(StrFormat(
        "pattern has %zu node variables; at most %zu are supported",
        nodes_.size(), kMaxPatternNodes));
  for (const auto& e : edges_)
    if (e.src >= nodes_.size() || e.dst >= nodes_.size())
      return Status::InvalidArgument("pattern edge endpoint out of range");
  for (const auto& p : predicates_) {
    auto check = [&](const AttrOperand& o, const char* side) -> Status {
      if (o.var == kNoVar) return Status::Ok();
      size_t bound = o.is_edge ? edges_.size() : nodes_.size();
      if (o.var >= bound)
        return Status::InvalidArgument(
            std::string("predicate ") + side + " var out of range");
      return Status::Ok();
    };
    GREPAIR_RETURN_IF_ERROR(check(p.lhs, "lhs"));
    GREPAIR_RETURN_IF_ERROR(check(p.rhs, "rhs"));
    if (p.lhs.var == kNoVar && p.rhs.var == kNoVar)
      return Status::InvalidArgument("predicate compares two constants");
  }
  for (const auto& n : nacs_) {
    switch (n.kind) {
      case NacKind::kNoEdge:
        if (n.src_var >= nodes_.size() || n.dst_var >= nodes_.size())
          return Status::InvalidArgument("NAC var out of range");
        break;
      case NacKind::kNoOutEdge:
      case NacKind::kNoIncident:
        if (n.src_var >= nodes_.size())
          return Status::InvalidArgument("NAC var out of range");
        break;
      case NacKind::kNoInEdge:
        if (n.dst_var >= nodes_.size())
          return Status::InvalidArgument("NAC var out of range");
        break;
    }
  }
  return Status::Ok();
}

std::vector<SymbolId> Pattern::PositiveLabels() const {
  std::vector<SymbolId> out;
  for (const auto& n : nodes_)
    if (n.label != 0) out.push_back(n.label);
  for (const auto& e : edges_)
    if (e.label != 0) out.push_back(e.label);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<SymbolId> Pattern::NacLabels() const {
  std::vector<SymbolId> out;
  for (const auto& n : nacs_) out.push_back(n.label);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string Pattern::ToString(const Vocabulary& vocab) const {
  std::string out = "MATCH ";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (i) out += ", ";
    std::string name =
        nodes_[i].var_name.empty() ? StrFormat("v%zu", i) : nodes_[i].var_name;
    out += "(" + name;
    if (nodes_[i].label) out += ":" + vocab.LabelName(nodes_[i].label);
    out += ")";
  }
  for (const auto& e : edges_) {
    out += StrFormat(", (v%u)-[%s]->(v%u)", e.src,
                     e.label ? vocab.LabelName(e.label).c_str() : "*", e.dst);
  }
  if (!predicates_.empty() || !nacs_.empty()) out += " WHERE ...";
  return out;
}

}  // namespace grepair
