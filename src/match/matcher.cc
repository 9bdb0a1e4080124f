#include "match/matcher.h"

#include <algorithm>
#include <cassert>

#include "graph/snapshot.h"
#include "match/intersect.h"
#include "match/predicate.h"
#include "obs/metrics.h"

namespace grepair {

namespace {

// Process-wide matcher instruments. The hot loops count into plain
// SearchState locals; one flush of sharded-cell adds per FindAll keeps the
// per-expansion cost at zero (DESIGN.md "Observability").
struct MatchMetrics {
  obs::Counter* seeds;
  obs::Counter* candidates;
  obs::Counter* expansions;
  obs::Counter* matches;
  obs::Counter* gallop;
  obs::Counter* merge;
};

MatchMetrics& Metrics() {
  static MatchMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return MatchMetrics{
        reg.GetCounter("grepair_match_seeds_total",
                       "Root-level seed candidates tried across searches."),
        reg.GetCounter("grepair_match_candidates_total",
                       "Candidate nodes probed at every search depth."),
        reg.GetCounter("grepair_match_expansions_total",
                       "Backtracking search-tree expansions."),
        reg.GetCounter("grepair_match_matches_total",
                       "Embeddings found and delivered to callbacks."),
        reg.GetCounter("grepair_intersect_gallop_total",
                       "Candidate intersections taken by the galloping "
                       "kernel."),
        reg.GetCounter("grepair_intersect_merge_total",
                       "Candidate intersections taken by the block-wise "
                       "merge kernel.")};
  }();
  return m;
}

// Injectivity via linear scan: the bound set is pattern-sized (a handful of
// entries), where a scan over contiguous ids beats hashed membership.
bool NodeBound(const std::vector<NodeId>& binding, NodeId node) {
  return std::find(binding.begin(), binding.end(), node) != binding.end();
}

bool EdgeBound(const std::vector<EdgeId>& edge_binding, EdgeId e) {
  return std::find(edge_binding.begin(), edge_binding.end(), e) !=
         edge_binding.end();
}

// A pivot list this many times larger than the current candidate set is
// cheaper to leave to the per-candidate HasEdge check than to gather, sort
// and intersect.
constexpr size_t kIntersectSlack = 8;

}  // namespace

bool Match::ContainsNode(NodeId n) const {
  return std::find(nodes.begin(), nodes.end(), n) != nodes.end();
}

bool Match::ContainsEdge(EdgeId e) const {
  return std::find(edges.begin(), edges.end(), e) != edges.end();
}

Matcher::Matcher(const GraphView& graph, const Pattern& pattern)
    : g_(graph),
      p_(pattern),
      snap_(graph.AsSnapshot()),
      bodies_(pattern, graph) {
  assert(pattern.NumNodes() <= kMaxPatternNodes);
}

struct Matcher::SearchState {
  const MatchOptions* opts;
  const MatchCallback* cb = nullptr;
  MatchStats stats;
  bool stop = false;

  MatchScratch* s = nullptr;       // bindings + per-depth candidate buffers
  const PlanBody* body = nullptr;  // the anchor shape's compiled steps
  IntersectStats isect;  // kernel tallies, flushed once per FindAll

  // Local observability tallies, flushed to the registry once per FindAll.
  size_t obs_seeds = 0;       // candidates tried at the seed level
  size_t obs_candidates = 0;  // candidates generated at every level
};

// Checks label, injectivity, adjacency to all bound neighbors, and every
// predicate that becomes fully bound with this assignment. Checks the
// anchors, which are bound before the body's first step.
bool Matcher::CheckNewBinding(SearchState* st, VarId var, NodeId node) const {
  if (!g_.NodeAlive(node)) return false;
  const PatternNode& pn = p_.nodes()[var];
  if (pn.label != 0 && g_.NodeLabel(node) != pn.label) return false;
  std::vector<NodeId>& binding = st->s->binding;
  if (NodeBound(binding, node)) return false;

  // Adjacency: every pattern edge between var and an already-bound var must
  // have at least one concrete counterpart.
  for (const auto& pe : p_.edges()) {
    if (pe.src == var && binding[pe.dst] != kInvalidNode) {
      if (!g_.HasEdge(node, binding[pe.dst], pe.label)) return false;
    } else if (pe.dst == var && binding[pe.src] != kInvalidNode) {
      if (!g_.HasEdge(binding[pe.src], node, pe.label)) return false;
    } else if (pe.src == var && pe.dst == var) {
      if (!g_.HasEdge(node, node, pe.label)) return false;
    }
  }

  // Predicates that just became decidable. (Edge-attribute predicates stay
  // kUnknown here — they are settled during edge enumeration.)
  binding[var] = node;
  bool ok = true;
  for (const auto& pred : p_.predicates()) {
    bool involves = (!pred.lhs.is_edge && pred.lhs.var == var) ||
                    (!pred.rhs.is_edge && pred.rhs.var == var);
    if (!involves) continue;
    if (EvalPredicate(g_, pred, binding) == PredVerdict::kFalse) {
      ok = false;
      break;
    }
  }
  binding[var] = kInvalidNode;
  return ok;
}

// The per-step counterpart: same checks, but the pattern scan for relevant
// edges/predicates was done at compile time, and checks the candidate
// source already guarantees are skipped. `covered_pivots` bit i set means
// the candidate list was gathered from (or intersected with) pivot i's
// alive-adjacency under its edge-label filter — exactly HasEdge's
// membership on every backend, so re-probing cannot change the verdict.
// `covered_pred` (>= 0) is the attr-join predicate whose index supplied
// the candidates: membership means node.attr == the resolved value, which
// is the predicate's truth. Uncovered pivots/predicates are checked in
// full, so the accepted set never depends on the candidate source.
bool Matcher::CheckStepBinding(SearchState* st, const PlanStep& step,
                               NodeId node, uint32_t covered_pivots,
                               int covered_pred) const {
  if (!g_.NodeAlive(node)) return false;
  if (step.label != 0 && g_.NodeLabel(node) != step.label) return false;
  std::vector<NodeId>& binding = st->s->binding;
  if (NodeBound(binding, node)) return false;

  for (size_t i = 0; i < step.pivots.size(); ++i) {
    if (i < 32 && (covered_pivots >> i) & 1u) continue;
    const PlanPivot& piv = step.pivots[i];
    const NodeId b = binding[piv.bound_var];
    const bool ok = piv.forward ? g_.HasEdge(b, node, piv.edge_label)
                                : g_.HasEdge(node, b, piv.edge_label);
    if (!ok) return false;
  }
  for (uint32_t ei : step.self_loops)
    if (!g_.HasEdge(node, node, p_.edges()[ei].label)) return false;

  if (step.preds.empty()) return true;
  binding[step.var] = node;
  bool ok = true;
  for (uint32_t pi : step.preds) {
    if (covered_pred >= 0 && pi == static_cast<uint32_t>(covered_pred))
      continue;
    if (EvalPredicate(g_, p_.predicates()[pi], binding) ==
        PredVerdict::kFalse) {
      ok = false;
      break;
    }
  }
  binding[step.var] = kInvalidNode;
  return ok;
}

// Candidate list for one step, from its most selective source: adjacency
// to bound vars, else an attr-index join, else the label index. Pointer +
// count, either a zero-copy snapshot partition span or this depth's
// scratch buffer; ascending and duplicate-free either way.
size_t Matcher::StepCandidates(SearchState* st, const PlanStep& step,
                               size_t depth, const NodeId** out,
                               uint32_t* covered_pivots,
                               int* covered_pred) const {
  MatchScratch::DepthBufs& bufs = st->s->depth[depth];
  const std::vector<NodeId>& binding = st->s->binding;
  *covered_pivots = 0;
  *covered_pred = -1;

  if (step.source == PlanStep::Source::kAdjacency) {
    // Gather the pivot with the smallest runtime degree (first wins ties),
    // then shrink the set by intersecting the other pivots' neighbor lists
    // where that is affordable.
    size_t best = 0;
    size_t best_deg = SIZE_MAX;
    for (size_t i = 0; i < step.pivots.size(); ++i) {
      const PlanPivot& piv = step.pivots[i];
      const NodeId b = binding[piv.bound_var];
      const size_t deg = piv.forward ? g_.OutDegree(b) : g_.InDegree(b);
      if (deg < best_deg) {
        best_deg = deg;
        best = i;
      }
    }
    const auto gather = [this, &binding](const PlanPivot& piv,
                                         std::vector<NodeId>* dst) {
      dst->clear();
      const NodeId b = binding[piv.bound_var];
      if (piv.forward) {
        for (EdgeId e : g_.OutEdges(b)) {
          if (piv.edge_label != 0 && g_.EdgeLabel(e) != piv.edge_label)
            continue;
          dst->push_back(g_.Edge(e).dst);
        }
      } else {
        for (EdgeId e : g_.InEdges(b)) {
          if (piv.edge_label != 0 && g_.EdgeLabel(e) != piv.edge_label)
            continue;
          dst->push_back(g_.Edge(e).src);
        }
      }
      SortUniqueIds(dst);
    };
    gather(step.pivots[best], &bufs.cand);
    if (best < 32) *covered_pivots |= 1u << best;
    for (size_t i = 0; i < step.pivots.size() && !bufs.cand.empty(); ++i) {
      if (i == best) continue;
      const PlanPivot& piv = step.pivots[i];
      const NodeId b = binding[piv.bound_var];
      const size_t deg = piv.forward ? g_.OutDegree(b) : g_.InDegree(b);
      if (deg > kIntersectSlack * bufs.cand.size()) continue;
      gather(piv, &bufs.gather);
      IntersectSorted(bufs.cand, bufs.gather, &bufs.tmp, &st->isect);
      bufs.cand.swap(bufs.tmp);
      if (i < 32) *covered_pivots |= 1u << i;
    }
    *out = bufs.cand.data();
    return bufs.cand.size();
  }

  if (step.source == PlanStep::Source::kAttrJoin) {
    for (const PlanAttrJoin& j : step.attr_joins) {
      const SymbolId value =
          j.other_var == kNoVar ? j.constant
                                : g_.NodeAttr(binding[j.other_var],
                                              j.other_attr);
      if (value == 0) continue;  // absent attr: EQ can't hold anyway
      *covered_pred = static_cast<int>(j.pred_index);
      if (snap_ != nullptr) {
        const IdSpan span = snap_->NodesWithAttrSorted(j.attr, value);
        *out = span.ptr;
        return span.len;
      }
      if (!g_.CollectNodesWithAttr(j.attr, value, &bufs.cand))
        std::sort(bufs.cand.begin(), bufs.cand.end());
      *out = bufs.cand.data();
      return bufs.cand.size();
    }
    // No join resolved at runtime: label scan.
  }

  if (snap_ != nullptr) {
    const IdSpan span = snap_->NodesWithLabelSorted(step.label);
    *out = span.ptr;
    return span.len;
  }
  if (!g_.CollectNodesWithLabel(step.label, &bufs.cand))
    std::sort(bufs.cand.begin(), bufs.cand.end());
  *out = bufs.cand.data();
  return bufs.cand.size();
}

// All node vars bound: enumerate injective concrete-edge assignments for the
// pattern edges, then run NACs and emit.
void Matcher::EnumerateEdges(SearchState* st, size_t edge_idx) const {
  if (st->stop) return;
  std::vector<NodeId>& binding = st->s->binding;
  std::vector<EdgeId>& edge_binding = st->s->edge_binding;
  if (edge_idx == p_.NumEdges()) {
    // NACs (node-var based) — checked once per node binding; doing it here
    // (inside edge enumeration) would re-check identically, so callers
    // arrange to call with edge_idx==0 only after NACs pass.
    // Edge-attribute predicates become decidable only now.
    for (const auto& pred : p_.predicates()) {
      if (!PredicateUsesEdges(pred)) continue;
      if (EvalPredicate(g_, pred, binding, &edge_binding) !=
          PredVerdict::kTrue)
        return;
    }
    ++st->stats.matches;
    Match m;
    m.nodes = binding;
    m.edges = edge_binding;
    if (!(*st->cb)(m) || st->stats.matches >= st->opts->max_matches)
      st->stop = true;
    return;
  }
  const auto& pe = p_.edges()[edge_idx];
  // Honor anchors.
  for (const auto& [idx, eid] : st->opts->edge_anchors) {
    if (idx == edge_idx) {
      EdgeView v = g_.Edge(eid);
      if (g_.EdgeAlive(eid) && v.src == binding[pe.src] &&
          v.dst == binding[pe.dst] && (pe.label == 0 || v.label == pe.label) &&
          !EdgeBound(edge_binding, eid)) {
        edge_binding[edge_idx] = eid;
        EnumerateEdges(st, edge_idx + 1);
        edge_binding[edge_idx] = kInvalidEdge;
      }
      return;
    }
  }
  NodeId s = binding[pe.src], d = binding[pe.dst];
  for (EdgeId e : g_.OutEdges(s)) {
    EdgeView v = g_.Edge(e);
    if (v.dst != d) continue;
    if (pe.label != 0 && v.label != pe.label) continue;
    if (EdgeBound(edge_binding, e)) continue;
    edge_binding[edge_idx] = e;
    EnumerateEdges(st, edge_idx + 1);
    edge_binding[edge_idx] = kInvalidEdge;
    if (st->stop) return;
  }
}

// One search level: bind the body's step `depth` from its candidate
// source, recurse; past the last step, check NACs and enumerate edges.
void Matcher::Extend(SearchState* st, size_t depth) const {
  if (st->stop) return;
  if (++st->stats.expansions > st->opts->max_expansions) {
    st->stats.exhausted = true;
    st->stop = true;
    return;
  }
  const PlanBody& body = *st->body;
  if (depth == body.steps.size()) {
    for (const auto& nac : p_.nacs())
      if (!EvalNac(g_, nac, st->s->binding)) return;
    EnumerateEdges(st, 0);
    return;
  }
  const PlanStep& step = body.steps[depth];
  const NodeId* cands = nullptr;
  uint32_t covered_pivots = 0;
  int covered_pred = -1;
  const size_t n =
      StepCandidates(st, step, depth, &cands, &covered_pivots, &covered_pred);
  st->obs_candidates += n;
  if (depth == 0) st->obs_seeds += n;
  for (size_t i = 0; i < n; ++i) {
    NodeId cand = cands[i];
    if (!CheckStepBinding(st, step, cand, covered_pivots, covered_pred))
      continue;
    st->s->binding[step.var] = cand;
    Extend(st, depth + 1);
    st->s->binding[step.var] = kInvalidNode;
    if (st->stop) return;
  }
}

MatchStats Matcher::FindAll(const MatchOptions& opts,
                            const MatchCallback& cb) const {
  ScratchLease lease;
  SearchState st;
  st.opts = &opts;
  st.cb = &cb;
  st.s = lease.get();
  st.s->Prepare(p_.NumNodes(), p_.NumEdges());
  std::vector<NodeId>& binding = st.s->binding;

  // Apply edge anchors (bind endpoints too). The anchor mask names the
  // body: bit v set = node var v bound before the first step.
  uint32_t mask = 0;
  for (const auto& [idx, eid] : opts.edge_anchors) {
    if (idx >= p_.NumEdges() || !g_.EdgeAlive(eid)) return st.stats;
    const auto& pe = p_.edges()[idx];
    EdgeView v = g_.Edge(eid);
    if (pe.label != 0 && v.label != pe.label) return st.stats;
    // Bind src endpoint.
    if (binding[pe.src] == kInvalidNode) {
      if (!CheckNewBinding(&st, pe.src, v.src)) return st.stats;
      binding[pe.src] = v.src;
      mask |= 1u << pe.src;
    } else if (binding[pe.src] != v.src) {
      return st.stats;
    }
    // Bind dst endpoint (self-loop pattern edges share the var).
    if (binding[pe.dst] == kInvalidNode) {
      if (!CheckNewBinding(&st, pe.dst, v.dst)) return st.stats;
      binding[pe.dst] = v.dst;
      mask |= 1u << pe.dst;
    } else if (binding[pe.dst] != v.dst) {
      return st.stats;
    }
  }
  // Apply node anchors.
  for (const auto& [var, node] : opts.node_anchors) {
    if (var >= p_.NumNodes()) return st.stats;
    if (binding[var] != kInvalidNode) {
      if (binding[var] != node) return st.stats;
      continue;
    }
    if (!CheckNewBinding(&st, var, node)) return st.stats;
    binding[var] = node;
    mask |= 1u << var;
  }

  st.body = &bodies_.BodyFor(mask);
  Extend(&st, 0);

  if (obs::MetricsEnabled()) {
    MatchMetrics& m = Metrics();
    m.seeds->Add(st.obs_seeds);
    m.candidates->Add(st.obs_candidates);
    m.expansions->Add(st.stats.expansions);
    m.matches->Add(st.stats.matches);
    if (st.isect.gallop) m.gallop->Add(st.isect.gallop);
    if (st.isect.merge) m.merge->Add(st.isect.merge);
  }
  return st.stats;
}

std::vector<Match> Matcher::Collect(size_t limit) const {
  MatchOptions opts;
  opts.max_matches = limit;
  return CollectWith(opts);
}

std::vector<Match> Matcher::CollectWith(const MatchOptions& opts) const {
  std::vector<Match> out;
  FindAll(opts, [&](const Match& m) {
    out.push_back(m);
    return true;
  });
  return out;
}

bool Matcher::Exists() const {
  MatchOptions opts;
  opts.max_matches = 1;
  bool found = false;
  FindAll(opts, [&](const Match&) {
    found = true;
    return false;
  });
  return found;
}

size_t Matcher::Count(size_t limit) const {
  MatchOptions opts;
  opts.max_matches = limit;
  size_t n = 0;
  FindAll(opts, [&](const Match&) {
    ++n;
    return true;
  });
  return n;
}

VarId Matcher::SeedVar() const {
  const PlanBody& body = bodies_.BodyFor(0);
  return body.steps.empty() ? kNoVar : body.steps[0].var;
}

std::vector<NodeId> Matcher::SeedCandidates(VarId var) const {
  const PlanBody& body = bodies_.BodyFor(0);
  assert(!body.steps.empty() && body.steps[0].var == var);
  (void)var;
  ScratchLease lease;
  SearchState st;
  st.s = lease.get();
  st.s->Prepare(p_.NumNodes(), p_.NumEdges());
  // The unanchored search's first step binds from a constant attr join or
  // the label index — over a GraphSnapshot a contiguous-range copy.
  const NodeId* cands = nullptr;
  uint32_t covered_pivots = 0;
  int covered_pred = -1;
  const size_t n = StepCandidates(&st, body.steps[0], 0, &cands,
                                  &covered_pivots, &covered_pred);
  return std::vector<NodeId>(cands, cands + n);
}

bool Matcher::Verify(const Match& m) const {
  if (m.nodes.size() != p_.NumNodes() || m.edges.size() != p_.NumEdges())
    return false;
  // Injectivity + aliveness + labels.
  for (VarId v = 0; v < p_.NumNodes(); ++v) {
    NodeId n = m.nodes[v];
    if (!g_.NodeAlive(n)) return false;
    const auto& pn = p_.nodes()[v];
    if (pn.label != 0 && g_.NodeLabel(n) != pn.label) return false;
    for (VarId w = 0; w < v; ++w)
      if (m.nodes[w] == n) return false;
  }
  for (size_t i = 0; i < p_.NumEdges(); ++i) {
    EdgeId e = m.edges[i];
    if (!g_.EdgeAlive(e)) return false;
    const auto& pe = p_.edges()[i];
    EdgeView v = g_.Edge(e);
    if (v.src != m.nodes[pe.src] || v.dst != m.nodes[pe.dst]) return false;
    if (pe.label != 0 && v.label != pe.label) return false;
    for (size_t j = 0; j < i; ++j)
      if (m.edges[j] == e) return false;
  }
  for (const auto& pred : p_.predicates())
    if (EvalPredicate(g_, pred, m.nodes, &m.edges) != PredVerdict::kTrue)
      return false;
  for (const auto& nac : p_.nacs())
    if (!EvalNac(g_, nac, m.nodes)) return false;
  return true;
}

}  // namespace grepair
