#include <fstream>
#include <sstream>

#include "graph/generators.h"
#include "graph/graph_io.h"
#include "grr/rule_parser.h"
#include "grr/standard_rules.h"
#include "repair/engine.h"
#include "workloads.h"

namespace perfbench {

using namespace grepair;

namespace {

// The KG at 8000 persons: ~9.6k nodes and ~48k edges.
constexpr size_t kPersons = 8000;
constexpr double kErrorRate = 0.05;

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) Fail("cannot write " + path);
}

}  // namespace

Inputs MakeInputs(const RunOptions& opt) {
  Inputs in;
  in.graph_path = opt.dir + "/graph.tsv";
  in.rules_path = opt.dir + "/rules.grr";
  in.stream_seed = opt.seed * 0x9E3779B97F4A7C15ULL + 2;

  VocabularyPtr vocab = MakeVocabulary();
  KgSchema schema = KgSchema::Create(vocab.get());
  KgOptions kg;
  kg.num_persons = kPersons;
  kg.seed = opt.seed;
  Graph g = GenerateKg(vocab, schema, kg);
  auto rules = ParseRules(kKgRulesDsl, vocab);
  if (!rules.ok()) Fail("KG rules: " + rules.status().ToString());

  if (opt.workload == "offline_repair") {
    InjectOptions inject;
    inject.rate = kErrorRate;
    inject.seed = opt.seed + 1;
    auto report = InjectKgErrors(&g, schema, inject);
    if (!report.ok()) Fail("error injection: " + report.status().ToString());
    in.truth = std::move(report).value();
    in.truth_vocab = vocab;
    // LoadGraph numbers nodes by their rank in the file, so the truth's node
    // ids move with the gaps injection left. A fact on a node injection
    // later removed can never be matched, as before the round trip.
    std::vector<NodeId> rank(g.NodeIdBound(), kInvalidNode);
    NodeId next = 0;
    for (NodeId n : g.Nodes()) rank[n] = next++;
    auto to_file = [&](NodeId n) {
      return n < rank.size() ? rank[n] : kInvalidNode;
    };
    for (InjectedError& e : in.truth.errors) {
      e.fact.a = to_file(e.fact.a);
      e.fact.b = to_file(e.fact.b);
    }
  } else if (CountViolations(g, rules.value()) > 0) {
    // The served graph must start clean so every commit's repairs belong to
    // the batch that caused them.
    auto r = RepairEngine().Run(&g, rules.value());
    if (!r.ok() || CountViolations(g, rules.value()) > 0)
      Fail("clean-up repair of the serving graph did not converge");
  }
  Status st = SaveGraph(g, in.graph_path);
  if (!st.ok()) Fail("writing the graph: " + st.ToString());
  WriteText(in.rules_path, kKgRulesDsl);
  return in;
}

Loaded LoadInputs(const Inputs& in, SpanLog* log, uint64_t segment) {
  VocabularyPtr vocab = MakeVocabulary();
  Loaded out{vocab, Graph(vocab), RuleSet(), 0.0, 0.0};
  Clock::time_point t0 = Clock::now();
  {
    SpanLog::Scope span(log, "graph.load", segment);
    auto g = LoadGraph(in.graph_path, vocab);
    if (!g.ok()) Fail("LoadGraph: " + g.status().ToString());
    out.graph = std::move(g).value();
  }
  Clock::time_point t1 = Clock::now();
  {
    SpanLog::Scope span(log, "grr.parse_rules", segment);
    auto rules = ParseRules(ReadText(in.rules_path), vocab);
    if (!rules.ok()) Fail("ParseRules: " + rules.status().ToString());
    out.rules = std::move(rules).value();
  }
  Clock::time_point t2 = Clock::now();
  out.load_ms = MsBetween(t0, t1);
  out.parse_ms = MsBetween(t1, t2);
  return out;
}

}  // namespace perfbench
