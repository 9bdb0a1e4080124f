#include "match/plan.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "graph/vocabulary.h"
#include "obs/metrics.h"

namespace grepair {

namespace {

// Plan-layer instruments. Compiles are per-Matcher events (not
// per-expansion), so they add straight into the global registry.
struct PlanMetrics {
  obs::Counter* compiles;
  obs::Counter* compile_us;
};

PlanMetrics& Metrics() {
  static PlanMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return PlanMetrics{
        reg.GetCounter("grepair_plan_compiles_total",
                       "Match plan bodies compiled (one per Matcher per "
                       "anchor shape searched)."),
        reg.GetCounter("grepair_plan_compile_us_total",
                       "Microseconds spent compiling match plan bodies.")};
  }();
  return m;
}

// One body compiles in well under a microsecond, so each thread carries
// its sub-microsecond remainder into the next compile: the counter gets
// every elapsed whole microsecond instead of a 0 per body.
void RecordCompile(std::chrono::steady_clock::duration elapsed) {
  static thread_local uint64_t carry_ns = 0;
  carry_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  PlanMetrics& m = Metrics();
  m.compiles->Add(1);
  if (carry_ns >= 1000) {
    m.compile_us->Add(carry_ns / 1000);
    carry_ns %= 1000;
  }
}

// The step list for one anchor shape: variable order from the shared
// ordering policy, per-step candidate source and hoisted checks derived
// purely from the pattern structure given the bound-set sequence.
PlanBody CompileBody(const Pattern& p, const GraphView& g, uint32_t mask) {
  PlanBody body;
  body.anchor_mask = mask;
  uint32_t bound = mask;
  const auto is_bound = [&bound](VarId v) { return (bound >> v) & 1u; };
  while (true) {
    const VarId var = PickNextVarOrdered(g, p, is_bound);
    if (var == kNoVar) break;
    PlanStep step;
    step.var = var;
    step.label = p.nodes()[var].label;

    for (size_t i = 0; i < p.edges().size(); ++i) {
      const auto& pe = p.edges()[i];
      if (pe.src == var && pe.dst == var) {
        step.self_loops.push_back(static_cast<uint32_t>(i));
      } else if (pe.dst == var && pe.src != var && is_bound(pe.src)) {
        step.pivots.push_back(
            {static_cast<uint32_t>(i), pe.src, /*forward=*/true, pe.label});
      } else if (pe.src == var && pe.dst != var && is_bound(pe.dst)) {
        step.pivots.push_back(
            {static_cast<uint32_t>(i), pe.dst, /*forward=*/false, pe.label});
      }
    }

    if (!step.pivots.empty()) {
      step.source = PlanStep::Source::kAdjacency;
    } else {
      // Attr-join sources in predicate order — the runtime takes the first
      // whose value resolves.
      for (size_t pi = 0; pi < p.predicates().size(); ++pi) {
        const auto& pred = p.predicates()[pi];
        if (pred.op != CmpOp::kEq) continue;
        if (PredicateUsesEdges(pred)) continue;
        const AttrOperand* self = nullptr;
        const AttrOperand* other = nullptr;
        if (pred.lhs.var == var) {
          self = &pred.lhs;
          other = &pred.rhs;
        } else if (pred.rhs.var == var) {
          self = &pred.rhs;
          other = &pred.lhs;
        } else {
          continue;
        }
        PlanAttrJoin join;
        join.pred_index = static_cast<uint32_t>(pi);
        join.attr = self->attr;
        if (other->var == kNoVar) {
          join.constant = other->constant;
        } else if (is_bound(other->var)) {
          join.other_var = other->var;
          join.other_attr = other->attr;
        } else {
          continue;
        }
        step.attr_joins.push_back(join);
      }
      step.source = step.attr_joins.empty() ? PlanStep::Source::kLabelScan
                                            : PlanStep::Source::kAttrJoin;
    }

    // Node predicates that become fully decidable when `var` binds: they
    // mention var and every other node var they reference is already bound.
    // Predicates that stay partially unbound would evaluate kUnknown (a
    // no-op), so skipping them here changes nothing — they land on the step
    // of their last-bound variable.
    for (size_t j = 0; j < p.predicates().size(); ++j) {
      const auto& pred = p.predicates()[j];
      if (PredicateUsesEdges(pred)) continue;
      const bool involves = (!pred.lhs.is_edge && pred.lhs.var == var) ||
                            (!pred.rhs.is_edge && pred.rhs.var == var);
      if (!involves) continue;
      bool decidable = true;
      if (pred.op == CmpOp::kAbsent || pred.op == CmpOp::kPresent) {
        // Unary ops resolve from lhs alone (predicate.cc), so they decide
        // as soon as lhs does — even at a step that binds only the rhs var.
        decidable = pred.lhs.var == kNoVar || pred.lhs.var == var ||
                    is_bound(pred.lhs.var);
      } else {
        for (const AttrOperand* op : {&pred.lhs, &pred.rhs}) {
          if (op->var == kNoVar || op->var == var) continue;
          if (!is_bound(op->var)) decidable = false;
        }
      }
      if (decidable) step.preds.push_back(static_cast<uint32_t>(j));
    }

    bound |= 1u << var;
    body.steps.push_back(std::move(step));
  }
  return body;
}

}  // namespace

MatchPlan MatchPlan::Compile(const Pattern& pattern, const GraphView& g) {
  MatchPlan plan(pattern, g);
  // Every anchor shape the system searches with (see header).
  std::vector<uint32_t> masks;
  masks.push_back(0);
  for (VarId v = 0; v < pattern.NumNodes(); ++v) masks.push_back(1u << v);
  for (const auto& pe : pattern.edges())
    masks.push_back((1u << pe.src) | (1u << pe.dst));
  std::sort(masks.begin(), masks.end());
  masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
  for (uint32_t mask : masks) plan.BodyFor(mask);
  return plan;
}

const PlanBody& MatchPlan::BodyFor(uint32_t anchor_mask) {
  for (const auto& body : bodies_)
    if (body->anchor_mask == anchor_mask) return *body;
  const bool timed = obs::MetricsEnabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  bodies_.push_back(
      std::make_unique<PlanBody>(CompileBody(*p_, *g_, anchor_mask)));
  if (timed) RecordCompile(std::chrono::steady_clock::now() - t0);
  return *bodies_.back();
}

namespace {

std::string VarName(const Pattern& p, VarId v) {
  const std::string& name = p.nodes()[v].var_name;
  if (!name.empty()) return name;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "v%u", v);
  return buf;
}

std::string LabelName(const Vocabulary& vocab, SymbolId label) {
  return label == 0 ? "*" : vocab.LabelName(label);
}

}  // namespace

std::string MatchPlan::Explain(const Vocabulary& vocab) const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "plan: %zu bodies\n", bodies_.size());
  out += buf;
  const Pattern& p = *p_;
  for (const auto& owned : bodies_) {
    const PlanBody& body = *owned;
    if (body.anchor_mask == 0) {
      out += "body [unanchored]:\n";
    } else {
      out += "body [anchored:";
      for (VarId v = 0; v < p.NumNodes(); ++v)
        if ((body.anchor_mask >> v) & 1u) out += " " + VarName(p, v);
      out += "]:\n";
    }
    for (size_t i = 0; i < body.steps.size(); ++i) {
      const PlanStep& step = body.steps[i];
      std::snprintf(buf, sizeof(buf), "  step %zu: bind %s:%s via ", i + 1,
                    VarName(p, step.var).c_str(),
                    LabelName(vocab, step.label).c_str());
      out += buf;
      switch (step.source) {
        case PlanStep::Source::kAdjacency: {
          out += "adjacency(";
          for (size_t k = 0; k < step.pivots.size(); ++k) {
            const PlanPivot& piv = step.pivots[k];
            if (k) out += " ∩ ";
            std::snprintf(buf, sizeof(buf), "%s(%s)%s",
                          piv.forward ? "out" : "in",
                          VarName(p, piv.bound_var).c_str(),
                          piv.edge_label == 0
                              ? ""
                              : ("/" + LabelName(vocab, piv.edge_label))
                                    .c_str());
            out += buf;
          }
          out += ")";
          break;
        }
        case PlanStep::Source::kAttrJoin: {
          out += "attr-join(";
          for (size_t k = 0; k < step.attr_joins.size(); ++k) {
            const PlanAttrJoin& j = step.attr_joins[k];
            if (k) out += " | ";
            if (j.other_var == kNoVar) {
              std::snprintf(buf, sizeof(buf), "%s=\"%s\"",
                            vocab.AttrName(j.attr).c_str(),
                            vocab.ValueName(j.constant).c_str());
            } else {
              std::snprintf(buf, sizeof(buf), "%s=%s.%s",
                            vocab.AttrName(j.attr).c_str(),
                            VarName(p, j.other_var).c_str(),
                            vocab.AttrName(j.other_attr).c_str());
            }
            out += buf;
          }
          out += ")";
          break;
        }
        case PlanStep::Source::kLabelScan:
          out += "label-scan";
          break;
      }
      if (!step.self_loops.empty()) {
        std::snprintf(buf, sizeof(buf), " +%zu self-loop check%s",
                      step.self_loops.size(),
                      step.self_loops.size() == 1 ? "" : "s");
        out += buf;
      }
      if (!step.preds.empty()) {
        out += " then preds{";
        for (size_t k = 0; k < step.preds.size(); ++k) {
          if (k) out += ",";
          std::snprintf(buf, sizeof(buf), "#%u", step.preds[k]);
          out += buf;
        }
        out += "}";
      }
      out += "\n";
    }
  }
  return out;
}

namespace {

// Thread-local freelist backing ScratchLease: one live scratch per
// concurrent (possibly nested) search on the thread, buffers reused across
// searches so steady-state FindAll calls allocate nothing.
std::vector<std::unique_ptr<MatchScratch>>& ScratchFreelist() {
  static thread_local std::vector<std::unique_ptr<MatchScratch>> freelist;
  return freelist;
}

}  // namespace

ScratchLease::ScratchLease() {
  auto& fl = ScratchFreelist();
  if (fl.empty()) {
    s_ = std::make_unique<MatchScratch>();
  } else {
    s_ = std::move(fl.back());
    fl.pop_back();
  }
}

ScratchLease::~ScratchLease() {
  if (s_) ScratchFreelist().push_back(std::move(s_));
}

}  // namespace grepair
