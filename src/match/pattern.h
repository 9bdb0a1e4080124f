// Graph patterns: the MATCH/WHERE half of a graph-repairing rule. A pattern
// is a small (possibly disconnected) graph of node variables and edge
// variables plus attribute predicates and negative conditions (NACs).
#ifndef GREPAIR_MATCH_PATTERN_H_
#define GREPAIR_MATCH_PATTERN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/vocabulary.h"
#include "util/status.h"

namespace grepair {

/// Index of a node variable / edge variable within a pattern.
using VarId = uint32_t;
inline constexpr VarId kNoVar = UINT32_MAX;

/// Most node variables a pattern may have: the matcher keys its compiled
/// bodies by a 32-bit mask of bound variables.
inline constexpr size_t kMaxPatternNodes = 32;

/// A node variable: matches alive nodes whose label equals `label`
/// (label == 0 matches any label).
struct PatternNode {
  SymbolId label = 0;
  std::string var_name;  ///< DSL surface name, for diagnostics
};

/// An edge variable: matches alive edges from nodes[src] to nodes[dst] whose
/// label equals `label` (0 = any).
struct PatternEdge {
  VarId src = kNoVar;
  VarId dst = kNoVar;
  SymbolId label = 0;
};

/// Comparison operators for attribute predicates. Values that both parse as
/// numbers compare numerically, otherwise lexicographically. kAbsent /
/// kPresent are unary (rhs ignored) and test attribute existence.
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe, kAbsent, kPresent };

std::string_view CmpOpName(CmpOp op);

/// One side of an attribute predicate: `node_var.attr`, `edge_var.attr`, or
/// a constant. For edge operands, `var` indexes the pattern's edge list.
struct AttrOperand {
  VarId var = kNoVar;   ///< kNoVar → constant operand
  SymbolId attr = 0;    ///< attribute name when var != kNoVar
  SymbolId constant = 0;///< interned value when var == kNoVar
  bool is_edge = false; ///< var refers to a pattern edge, not a node var

  static AttrOperand VarAttr(VarId v, SymbolId attr) {
    AttrOperand o;
    o.var = v;
    o.attr = attr;
    return o;
  }
  static AttrOperand EdgeAttr(size_t edge_idx, SymbolId attr) {
    AttrOperand o;
    o.var = static_cast<VarId>(edge_idx);
    o.attr = attr;
    o.is_edge = true;
    return o;
  }
  static AttrOperand Const(SymbolId value) {
    AttrOperand o;
    o.constant = value;
    return o;
  }
};

/// `lhs op rhs` over a (partial) node binding. A predicate involving an
/// absent attribute is false (errors don't silently satisfy conditions),
/// except `kNe` which is true when exactly one side is absent.
struct AttrPredicate {
  AttrOperand lhs;
  CmpOp op;
  AttrOperand rhs;
};

/// Negative application conditions — what must NOT exist around the match.
enum class NacKind : uint8_t {
  kNoEdge,      ///< no edge src_var -[label]-> dst_var (label 0 = any)
  kNoOutEdge,   ///< src_var has no outgoing edge with label (to anywhere)
  kNoInEdge,    ///< dst_var has no incoming edge with label (from anywhere)
  kNoIncident,  ///< src_var has no incident edges at all
};

struct Nac {
  NacKind kind;
  VarId src_var = kNoVar;
  VarId dst_var = kNoVar;
  SymbolId label = 0;
};

/// The pattern itself. Node matching is injective (distinct variables bind
/// distinct nodes), and edge-variable matching is injective over edge ids.
class Pattern {
 public:
  /// Adds a node variable; returns its VarId.
  VarId AddNode(SymbolId label, std::string var_name = "");
  /// Adds an edge variable between existing node variables.
  Result<size_t> AddEdge(VarId src, VarId dst, SymbolId label);
  void AddPredicate(AttrPredicate p) { predicates_.push_back(p); }
  void AddNac(Nac n) { nacs_.push_back(n); }

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  const std::vector<PatternNode>& nodes() const { return nodes_; }
  const std::vector<PatternEdge>& edges() const { return edges_; }
  const std::vector<AttrPredicate>& predicates() const { return predicates_; }
  const std::vector<Nac>& nacs() const { return nacs_; }

  /// Structural sanity: 1..kMaxPatternNodes nodes, edge endpoints valid,
  /// NAC vars valid.
  Status Validate() const;

  /// Set of labels mentioned positively (nodes + edges); 0 excluded.
  std::vector<SymbolId> PositiveLabels() const;
  /// Labels mentioned by NACs (0 = wildcard is represented as 0).
  std::vector<SymbolId> NacLabels() const;

  /// Human-readable rendering (uses vocab for names).
  std::string ToString(const Vocabulary& vocab) const;

 private:
  std::vector<PatternNode> nodes_;
  std::vector<PatternEdge> edges_;
  std::vector<AttrPredicate> predicates_;
  std::vector<Nac> nacs_;
};

}  // namespace grepair

#endif  // GREPAIR_MATCH_PATTERN_H_
