#include "cli/cli.h"

#include <cstdio>
#include <iostream>
#include <map>
#include <set>

#include "consistency/checker.h"
#include "consistency/simulator.h"
#include "graph/error_injector.h"
#include "graph/graph_io.h"
#include "grr/rule_parser.h"
#include "grr/standard_rules.h"
#include "match/plan.h"
#include "mining/rule_miner.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repair/engine.h"
#include "serve/repair_service.h"
#include "serve/server.h"
#include "serve/session.h"
#include "storage/fs.h"
#include "storage/recovery.h"
#include "util/strings.h"

namespace grepair {
namespace {

constexpr char kUsage[] = R"(usage:
  grepair gen <kg|social|citation> --out g.tsv [--scale N] [--rate R]
          [--seed S] [--rules-out r.grr]
  grepair stats  <graph.tsv> [--format text|prom]
  grepair check  <rules.grr>
  grepair detect <graph.tsv> <rules.grr> [--threads N]
  grepair explain_plan <graph.tsv> <rules.grr>
  grepair repair <graph.tsv> <rules.grr> [--strategy greedy|naive|batch|exact]
          [--out repaired.tsv] [--threads N]
  grepair mine   <graph.tsv> [--min-support X] [--threads N]
  grepair serve  <graph.tsv> <rules.grr> [--threads N] [--shards S]
          [--trace-out trace.json] [--listen PORT] [--max-connections N]
          [--max-requests-per-sec R] [--wal DIR] [--fsync-policy P]
          [--fsync-interval-ms MS] [--checkpoint-every N]
          [--max-read-threads N]
  grepair wal dump <dir>

--threads N fans detection / mining statistics out over N worker threads
(0 = hardware concurrency); results are identical to --threads 1. For
serve it sizes only the publication advance: the published store's shards
build, patch and rebuild over N workers, while detection and repair run on
the committing thread.
--shards S partitions serve's published snapshot store into S storage
shards (0 = one per worker thread; a 1-thread serve keeps one shard);
results are identical for any S, but a hot shard rebuilds alone instead
of forcing a full rebuild.

serve reads edit commands from stdin, one per line, and repairs after each
commit (see DESIGN.md "Serving model"):
  add_node <Label>                   add_edge <src> <dst> <label>
  remove_node <id>                   remove_edge <id>
  set_node_label <id> <Label>        set_edge_label <id> <label>
  set_node_attr <id> <attr> <value>  set_edge_attr <id> <attr> <value>
  commit | stats | save <path> | quit
  detect [rule]     count violations on the last published snapshot
                    generation (optionally one rule by name); runs outside
                    the commit path, any number concurrently
  violations [offset [limit]]
                    page the published violation backlog (default limit
                    100); same lock-free read path as detect
  snapshot <path>   persist service state (graph + violation backlog;
                    commits pending edits first)
  restore <path>    replace service state from a snapshot file
  metrics           dump all instruments in Prometheus text exposition
  trace <path>      flush the commit-path trace rings to <path> as Chrome
                    trace-event JSON (requires --trace-out or prior traces)

--trace-out FILE enables commit-path tracing for the session and writes the
accumulated spans to FILE (Chrome trace-event JSON, Perfetto-loadable) when
the session ends.

--listen PORT serves the same line protocol over TCP instead of stdio (0 =
ephemeral port, printed on startup): many concurrent client sessions share
one service, each staging its edits locally and applying them as one atomic
block at commit. Admission control sheds overload with `err busy`:
--max-connections caps concurrent clients (default 64), and
--max-requests-per-sec rate-limits requests across all connections with a
token bucket (default 0 = unlimited). A client's `shutdown` verb stops the
server; `quit` only closes that client's connection. Protocol errors are
machine-parseable `err <code> <msg>` lines (DESIGN.md "Network serving" has
the code set); tools/serve_client.py is a minimal scripting client.

After each committed batch the service atomically publishes an immutable
snapshot generation, and the read verbs (`detect`, `violations`) run
against it WITHOUT taking the commit mutex — reads scale with cores and a
slow detection never stalls writers (DESIGN.md "Read path / epoch
publication"). --max-read-threads N (default 0 = unlimited) caps
concurrently executing read verbs; excess reads are shed with `err busy`.

--wal DIR makes serve durable: every committed batch is appended to a
write-ahead log in DIR (fsynced per --fsync-policy: every = fsync each
commit, the default; interval = fsync at most every --fsync-interval-ms;
off = leave flushing to the OS) before the commit is acknowledged, and a
checkpoint of the full service state is written every --checkpoint-every
batches (default 256, 0 = only the baseline checkpoint at startup). On
startup serve restores the newest valid checkpoint from DIR and replays
the WAL tail, so a crashed server restarted with the same --wal (and the
same graph/rules files) recovers every acknowledged commit. If a WAL
append ever fails the batch is rolled back and the service degrades to
read-only (`err io` on edits) rather than acknowledging writes it cannot
make durable. DESIGN.md "Durability" has the file formats and crash
semantics; `grepair wal dump <dir>` prints what a directory would recover.
)";

// Flags each command accepts; anything else is a usage error (exit 2), so a
// typo like --thread cannot be silently ignored.
const std::map<std::string, std::set<std::string>>& AllowedFlags() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"gen", {"out", "scale", "rate", "seed", "rules-out"}},
      {"stats", {"format"}},
      {"check", {}},
      {"detect", {"threads"}},
      {"explain_plan", {}},
      {"repair", {"strategy", "out", "threads"}},
      {"mine", {"min-support", "threads"}},
      {"serve",
       {"threads", "shards", "trace-out", "listen", "max-connections",
        "max-requests-per-sec", "wal", "fsync-policy", "fsync-interval-ms",
        "checkpoint-every", "max-read-threads"}},
      {"wal", {}},
  };
  return kAllowed;
}

// Parses the shared --threads flag (default 1 = sequential).
Status ParseThreads(const std::map<std::string, std::string>& flags,
                    size_t* threads) {
  auto it = flags.find("threads");
  if (it == flags.end()) return Status::Ok();
  uint64_t v = 0;
  if (!ParseUint64(it->second, &v))
    return Status::InvalidArgument("bad --threads");
  *threads = static_cast<size_t>(v);
  return Status::Ok();
}

// Simple flag parsing: positional args + --key value pairs.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static Result<Args> Parse(const std::vector<std::string>& raw) {
    Args out;
    for (size_t i = 0; i < raw.size(); ++i) {
      if (StartsWith(raw[i], "--")) {
        // Both spellings: --key value and --key=value.
        if (size_t eq = raw[i].find('='); eq != std::string::npos) {
          out.flags[raw[i].substr(2, eq - 2)] = raw[i].substr(eq + 1);
          continue;
        }
        if (i + 1 >= raw.size())
          return Status::InvalidArgument("flag " + raw[i] + " needs a value");
        out.flags[raw[i].substr(2)] = raw[i + 1];
        ++i;
      } else {
        out.positional.push_back(raw[i]);
      }
    }
    return out;
  }

  std::string Flag(const std::string& key, const std::string& dflt) const {
    auto it = flags.find(key);
    return it == flags.end() ? dflt : it->second;
  }
};

Status WriteFile(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Status::InvalidArgument("cannot open for write: " + path);
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return Status::Ok();
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return Status::NotFound("cannot open: " + path);
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  return data;
}

Status CmdGen(const Args& args, std::string* out) {
  if (args.positional.size() < 2)
    return Status::InvalidArgument("gen needs a dataset name");
  const std::string& which = args.positional[1];
  std::string out_path = args.Flag("out", "");
  if (out_path.empty())
    return Status::InvalidArgument("gen needs --out <path>");
  uint64_t scale = 2000, seed = 42;
  double rate = 0.0;
  if (!ParseUint64(args.Flag("scale", "2000"), &scale))
    return Status::InvalidArgument("bad --scale");
  if (!ParseUint64(args.Flag("seed", "42"), &seed))
    return Status::InvalidArgument("bad --seed");
  if (!ParseDouble(args.Flag("rate", "0"), &rate))
    return Status::InvalidArgument("bad --rate");

  auto vocab = MakeVocabulary();
  Graph g(vocab);
  const char* rules_dsl = nullptr;
  if (which == "kg") {
    KgSchema schema = KgSchema::Create(vocab.get());
    KgOptions o;
    o.num_persons = scale;
    o.num_cities = std::max<size_t>(10, scale / 10);
    o.num_countries = std::max<size_t>(5, scale / 200);
    o.num_orgs = std::max<size_t>(5, scale / 15);
    o.seed = seed;
    g = GenerateKg(vocab, schema, o);
    if (rate > 0) {
      InjectOptions io;
      io.rate = rate;
      io.seed = seed + 1;
      auto rep = InjectKgErrors(&g, schema, io);
      if (!rep.ok()) return rep.status();
      *out += StrFormat("injected %zu errors\n", rep.value().errors.size());
    }
    rules_dsl = kKgRulesDsl;
  } else if (which == "social") {
    SocialSchema schema = SocialSchema::Create(vocab.get());
    SocialOptions o;
    o.num_persons = scale;
    o.seed = seed;
    g = GenerateSocial(vocab, schema, o);
    if (rate > 0) {
      InjectOptions io;
      io.rate = rate;
      io.seed = seed + 1;
      auto rep = InjectSocialErrors(&g, schema, io);
      if (!rep.ok()) return rep.status();
      *out += StrFormat("injected %zu errors\n", rep.value().errors.size());
    }
    rules_dsl = kSocialRulesDsl;
  } else if (which == "citation") {
    CitationSchema schema = CitationSchema::Create(vocab.get());
    CitationOptions o;
    o.num_papers = scale;
    o.num_authors = std::max<size_t>(10, scale / 3);
    o.seed = seed;
    g = GenerateCitation(vocab, schema, o);
    if (rate > 0) {
      InjectOptions io;
      io.rate = rate;
      io.seed = seed + 1;
      auto rep = InjectCitationErrors(&g, schema, io);
      if (!rep.ok()) return rep.status();
      *out += StrFormat("injected %zu errors\n", rep.value().errors.size());
    }
    rules_dsl = kCitationRulesDsl;
  } else {
    return Status::InvalidArgument("unknown dataset: " + which);
  }

  GREPAIR_RETURN_IF_ERROR(SaveGraph(g, out_path));
  *out += StrFormat("wrote %s: %zu nodes, %zu edges\n", out_path.c_str(),
                    g.NumNodes(), g.NumEdges());
  std::string rules_path = args.Flag("rules-out", "");
  if (!rules_path.empty()) {
    GREPAIR_RETURN_IF_ERROR(WriteFile(rules_path, rules_dsl));
    *out += "wrote " + rules_path + "\n";
  }
  return Status::Ok();
}

Status CmdStats(const Args& args, std::string* out) {
  if (args.positional.size() < 2)
    return Status::InvalidArgument("stats needs a graph path");
  std::string format = args.Flag("format", "text");
  if (format != "text" && format != "prom")
    return Status::InvalidArgument("bad --format (want text or prom)");
  auto vocab = MakeVocabulary();
  GREPAIR_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.positional[1], vocab));
  // Label histograms.
  std::map<std::string, size_t> node_hist, edge_hist;
  for (NodeId n : g.Nodes()) node_hist[vocab->LabelName(g.NodeLabel(n))]++;
  for (EdgeId e : g.Edges()) edge_hist[vocab->LabelName(g.EdgeLabel(e))]++;
  if (format == "prom") {
    // Same numbers as the text report, re-shaped into the exposition the
    // `metrics` serve verb speaks — scrapeable graph-shape gauges.
    obs::MetricsRegistry reg;
    obs::RegisterBuildInfoMetric(&reg);
    reg.GetGauge("grepair_graph_nodes", "Alive nodes in the graph.")
        ->Set(static_cast<int64_t>(g.NumNodes()));
    reg.GetGauge("grepair_graph_edges", "Alive edges in the graph.")
        ->Set(static_cast<int64_t>(g.NumEdges()));
    for (const auto& [l, c] : node_hist)
      reg.GetGauge("grepair_graph_node_labels", "Alive nodes by label.",
                   {{"label", l}})
          ->Set(static_cast<int64_t>(c));
    for (const auto& [l, c] : edge_hist)
      reg.GetGauge("grepair_graph_edge_labels", "Alive edges by label.",
                   {{"label", l}})
          ->Set(static_cast<int64_t>(c));
    *out += reg.ExpositionText();
    return Status::Ok();
  }
  *out += StrFormat("nodes: %zu\nedges: %zu\n", g.NumNodes(), g.NumEdges());
  *out += "node labels:\n";
  for (const auto& [l, c] : node_hist)
    *out += StrFormat("  %-16s %zu\n", l.c_str(), c);
  *out += "edge labels:\n";
  for (const auto& [l, c] : edge_hist)
    *out += StrFormat("  %-16s %zu\n", l.c_str(), c);
  return Status::Ok();
}

Status CmdCheck(const Args& args, std::string* out) {
  if (args.positional.size() < 2)
    return Status::InvalidArgument("check needs a rules path");
  auto vocab = MakeVocabulary();
  GREPAIR_ASSIGN_OR_RETURN(std::string text, ReadFile(args.positional[1]));
  GREPAIR_ASSIGN_OR_RETURN(RuleSet rules, ParseRules(text, vocab));
  *out += StrFormat("parsed %zu rules\n", rules.size());
  ConsistencyReport rep = CheckConsistency(rules, *vocab);
  *out += StrFormat("static analysis: %s (%zu trigger edges, "
                    "%zu contradictions)\n",
                    rep.statically_consistent ? "CONSISTENT" : "REJECTED",
                    rep.num_trigger_edges, rep.num_contradictions);
  for (const auto& issue : rep.issues) *out += "  issue: " + issue + "\n";
  SimOptions sopt;
  SimulationReport sim = SimulateRuleSet(rules, vocab, sopt);
  *out += StrFormat("simulation: %zu trials, %zu non-terminating, "
                    "%zu divergent\n",
                    sim.trials, sim.nonterminating, sim.divergent);
  if (sim.witness_found) *out += "  witness: " + sim.witness + "\n";
  return rep.statically_consistent && sim.nonterminating == 0
             ? Status::Ok()
             : Status::Inconsistent("rule set rejected");
}

Status CmdDetect(const Args& args, std::string* out) {
  if (args.positional.size() < 3)
    return Status::InvalidArgument("detect needs <graph> <rules>");
  auto vocab = MakeVocabulary();
  GREPAIR_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.positional[1], vocab));
  GREPAIR_ASSIGN_OR_RETURN(std::string text, ReadFile(args.positional[2]));
  GREPAIR_ASSIGN_OR_RETURN(RuleSet rules, ParseRules(text, vocab));
  size_t threads = 1;
  GREPAIR_RETURN_IF_ERROR(ParseThreads(args.flags, &threads));
  ViolationStore store;
  DetectAll(g, rules, &store, /*expansions=*/nullptr, threads);
  std::map<std::string, size_t> per_rule;
  for (const Violation& v : store.Snapshot()) per_rule[rules[v.rule].name()]++;
  *out += StrFormat("%zu violations\n", store.Size());
  for (const auto& [name, c] : per_rule)
    *out += StrFormat("  %-32s %zu\n", name.c_str(), c);
  return Status::Ok();
}

Status CmdExplainPlan(const Args& args, std::string* out) {
  if (args.positional.size() < 3)
    return Status::InvalidArgument("explain_plan needs <graph> <rules>");
  auto vocab = MakeVocabulary();
  GREPAIR_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.positional[1], vocab));
  GREPAIR_ASSIGN_OR_RETURN(std::string text, ReadFile(args.positional[2]));
  GREPAIR_ASSIGN_OR_RETURN(RuleSet rules, ParseRules(text, vocab));
  for (RuleId r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    *out += StrFormat("rule %zu: %s\n", static_cast<size_t>(r),
                      rule.ToString(*vocab).c_str());
    MatchPlan plan = MatchPlan::Compile(rule.pattern(), g);
    *out += plan.Explain(*vocab);
    *out += "\n";
  }
  return Status::Ok();
}

Status CmdRepair(const Args& args, std::string* out) {
  if (args.positional.size() < 3)
    return Status::InvalidArgument("repair needs <graph> <rules>");
  auto vocab = MakeVocabulary();
  GREPAIR_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.positional[1], vocab));
  GREPAIR_ASSIGN_OR_RETURN(std::string text, ReadFile(args.positional[2]));
  GREPAIR_ASSIGN_OR_RETURN(RuleSet rules, ParseRules(text, vocab));

  RepairOptions opt;
  GREPAIR_RETURN_IF_ERROR(ParseThreads(args.flags, &opt.num_threads));
  std::string strategy = args.Flag("strategy", "greedy");
  if (strategy == "greedy") {
    opt.strategy = RepairStrategy::kGreedy;
  } else if (strategy == "naive") {
    opt.strategy = RepairStrategy::kNaive;
  } else if (strategy == "batch") {
    opt.strategy = RepairStrategy::kBatch;
  } else if (strategy == "exact") {
    opt.strategy = RepairStrategy::kExact;
  } else {
    return Status::InvalidArgument("unknown strategy: " + strategy);
  }

  RepairEngine engine(opt);
  GREPAIR_ASSIGN_OR_RETURN(RepairResult res, engine.Run(&g, rules));
  *out += StrFormat(
      "violations: %zu -> %zu\nfixes applied: %zu (cost %.1f) in %.1f ms\n",
      res.initial_violations, res.remaining_violations, res.applied.size(),
      res.repair_cost, res.total_ms);
  if (res.budget_exhausted) *out += "WARNING: fix budget exhausted\n";

  std::string out_path = args.Flag("out", "");
  if (!out_path.empty()) {
    GREPAIR_RETURN_IF_ERROR(SaveGraph(g, out_path));
    *out += "wrote " + out_path + "\n";
  }
  return Status::Ok();
}

Status CmdMine(const Args& args, std::string* out) {
  if (args.positional.size() < 2)
    return Status::InvalidArgument("mine needs a graph path");
  auto vocab = MakeVocabulary();
  GREPAIR_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.positional[1], vocab));
  MiningOptions opt;
  GREPAIR_RETURN_IF_ERROR(ParseThreads(args.flags, &opt.num_threads));
  double support = 0.9;
  if (!ParseDouble(args.Flag("min-support", "0.9"), &support))
    return Status::InvalidArgument("bad --min-support");
  opt.min_support = support;
  auto mined = MineRules(g, opt);
  *out += StrFormat("mined %zu rules\n", mined.size());
  for (const MinedRule& m : mined)
    *out += StrFormat("  %-20s %-36s support=%.3f evidence=%zu\n",
                      m.kind.c_str(), m.rule.name().c_str(), m.support,
                      m.evidence);
  return Status::Ok();
}

// ------------------------------------------------------------------ serve
//
// The protocol itself (parsing, dispatch, responses) lives in
// src/serve/session.{h,cc}; this file only owns the transports: the
// historical stdio loop (one kImmediate session, byte-identical responses)
// and the --listen TCP front-end (serve::Server, many kStaged sessions).

Status CmdServe(const Args& args, std::string* out, std::istream* in,
                std::ostream* live) {
  if (args.positional.size() < 3)
    return Status::InvalidArgument("serve needs <graph> <rules>");
  auto vocab = MakeVocabulary();
  GREPAIR_ASSIGN_OR_RETURN(Graph g, LoadGraph(args.positional[1], vocab));
  GREPAIR_ASSIGN_OR_RETURN(std::string text, ReadFile(args.positional[2]));
  GREPAIR_ASSIGN_OR_RETURN(RuleSet rules, ParseRules(text, vocab));

  ServeOptions sopt;
  GREPAIR_RETURN_IF_ERROR(ParseThreads(args.flags, &sopt.num_threads));
  if (auto it = args.flags.find("shards"); it != args.flags.end()) {
    uint64_t v = 0;
    if (!ParseUint64(it->second, &v))
      return Status::InvalidArgument("bad --shards");
    sopt.num_shards = static_cast<size_t>(v);
  }
  if (auto it = args.flags.find("listen"); it != args.flags.end()) {
    uint64_t v = 0;
    if (!ParseUint64(it->second, &v) || v > 65535)
      return Status::InvalidArgument("bad --listen (want a port in 0..65535)");
    sopt.listen_port = static_cast<int>(v);
  }
  if (auto it = args.flags.find("max-connections"); it != args.flags.end()) {
    uint64_t v = 0;
    if (!ParseUint64(it->second, &v))
      return Status::InvalidArgument("bad --max-connections");
    sopt.max_connections = static_cast<size_t>(v);
  }
  if (auto it = args.flags.find("max-requests-per-sec");
      it != args.flags.end()) {
    double v = 0;
    if (!ParseDouble(it->second, &v))
      return Status::InvalidArgument("bad --max-requests-per-sec");
    sopt.max_requests_per_sec = v;
  }
  sopt.wal_dir = args.Flag("wal", "");
  if (auto it = args.flags.find("fsync-policy"); it != args.flags.end()) {
    if (it->second == "every") {
      sopt.fsync_policy = storage::FsyncPolicy::kEveryCommit;
    } else if (it->second == "interval") {
      sopt.fsync_policy = storage::FsyncPolicy::kInterval;
    } else if (it->second == "off") {
      sopt.fsync_policy = storage::FsyncPolicy::kOff;
    } else {
      return Status::InvalidArgument(
          "bad --fsync-policy (want every, interval, or off)");
    }
  }
  if (auto it = args.flags.find("fsync-interval-ms"); it != args.flags.end()) {
    if (!ParseUint64(it->second, &sopt.fsync_interval_ms))
      return Status::InvalidArgument("bad --fsync-interval-ms");
  }
  if (auto it = args.flags.find("checkpoint-every"); it != args.flags.end()) {
    if (!ParseUint64(it->second, &sopt.checkpoint_every))
      return Status::InvalidArgument("bad --checkpoint-every");
  }
  if (auto it = args.flags.find("max-read-threads"); it != args.flags.end()) {
    uint64_t v = 0;
    if (!ParseUint64(it->second, &v))
      return Status::InvalidArgument("bad --max-read-threads");
    sopt.max_read_threads = static_cast<size_t>(v);
  }
  // Validate BEFORE constructing: the service constructor throws on bad
  // options, but flag errors should exit through the status path.
  GREPAIR_RETURN_IF_ERROR(sopt.Validate());
  std::string trace_out = args.Flag("trace-out", "");
  if (!trace_out.empty()) {
    // Session-scoped tracing: start from empty rings so the dump holds
    // exactly this session's commit path, and drop the enable on exit so a
    // host process running several sessions doesn't trace the untraced.
    obs::ClearTrace();
    obs::SetTracingEnabled(true);
  }
  RepairService service(std::move(g), std::move(rules), sopt);

  auto respond = [&](const std::string& line) {
    *out += line + "\n";
    if (live != nullptr) {
      *live << line << "\n";
      live->flush();
    }
  };
  auto flush_trace = [&] {
    if (trace_out.empty()) return;
    size_t events = obs::TraceEventCount();
    if (obs::WriteChromeTrace(trace_out))
      respond(StrFormat("trace %s events=%zu", trace_out.c_str(), events));
    else
      respond(serve::ErrResponse("io", "cannot write trace: " + trace_out));
    obs::SetTracingEnabled(false);
  };

  // Durability opens before any transport accepts a line: recovery replays
  // the WAL tail into the fresh service, and the WAL writer must be live
  // before the first commit so no acknowledged batch ever skips the log.
  if (!sopt.wal_dir.empty()) {
    auto rec = service.OpenDurability();
    if (!rec.ok()) return rec.status();
    const RecoveryInfo& ri = rec.value();
    respond(StrFormat("recovered checkpoint=%llu replayed=%llu "
                      "truncated_bytes=%llu dropped=%llu corrupt_ckpts=%llu",
                      static_cast<unsigned long long>(ri.checkpoint_seq),
                      static_cast<unsigned long long>(ri.replayed_batches),
                      static_cast<unsigned long long>(ri.truncated_bytes),
                      static_cast<unsigned long long>(ri.dropped_batches),
                      static_cast<unsigned long long>(ri.corrupt_checkpoints)));
  }

  if (sopt.listen_port >= 0) {
    // TCP transport: the server owns the sessions (one kStaged session per
    // connection); this thread only reports the bound port and waits for a
    // client's `shutdown` verb.
    serve::Server server(&service);
    GREPAIR_RETURN_IF_ERROR(server.Start());
    respond(obs::BuildInfoLine());
    respond(StrFormat("listening port=%u max_connections=%zu "
                      "max_requests_per_sec=%.0f threads=%zu shards=%zu",
                      server.port(), sopt.max_connections,
                      sopt.max_requests_per_sec, sopt.num_threads,
                      service.num_shards()));
    server.Wait();
    flush_trace();
    const ServiceStats& s = service.stats();
    respond(StrFormat("bye batches=%zu fixes=%zu", s.batches,
                      s.violations_repaired));
    return Status::Ok();
  }

  respond(obs::BuildInfoLine());
  respond(StrFormat("serving %zu nodes %zu edges %zu rules threads=%zu "
                    "shards=%zu",
                    service.graph().NumNodes(), service.graph().NumEdges(),
                    service.rules().size(), sopt.num_threads,
                    service.num_shards()));

  // Stdio transport: one exclusive kImmediate session (edits apply as they
  // arrive, responses carry real element ids — the historical protocol,
  // byte for byte).
  serve::Session session(&service, serve::SessionMode::kImmediate);
  if (in == nullptr) in = &std::cin;
  std::string line;
  while (std::getline(*in, line)) {
    std::string response = session.HandleLine(line);
    if (session.quit_requested()) break;
    if (!response.empty()) respond(response);
  }
  // Repair anything still pending so quitting never abandons a dirty graph.
  if (service.PendingEdits() > 0) {
    auto committed = service.Commit();
    if (committed.ok())
      respond(serve::FormatBatchLine(committed.value()));
    else
      respond(serve::ErrResponse(
          committed.status().code() == StatusCode::kIo ? "io" : "internal",
          committed.status().ToString()));
  }
  flush_trace();
  const ServiceStats& s = service.stats();
  respond(StrFormat("bye batches=%zu fixes=%zu", s.batches,
                    s.violations_repaired));
  return Status::Ok();
}

// Read-only inspection of a durability directory: lists every checkpoint
// (valid or not) and WAL segment with its batch range and torn-tail note,
// without mutating anything — safe to run against a live server's --wal dir.
Status CmdWalDump(const Args& args, std::string* out) {
  if (args.positional.size() < 3 || args.positional[1] != "dump")
    return Status::InvalidArgument("usage: grepair wal dump <dir>");
  GREPAIR_ASSIGN_OR_RETURN(
      std::string report,
      storage::DumpStorageDir(storage::RealFs::Default(), args.positional[2]));
  *out += report;
  return Status::Ok();
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::string* out,
           std::istream* serve_in, std::ostream* serve_live) {
  if (args.empty()) {
    *out = kUsage;
    return 2;
  }
  auto parsed = Args::Parse(args);
  if (!parsed.ok()) {
    *out = parsed.status().ToString() + "\n" + kUsage;
    return 2;
  }
  const std::string& cmd = args[0];
  auto allowed = AllowedFlags().find(cmd);
  if (allowed == AllowedFlags().end()) {
    *out = "unknown command: " + cmd + "\n" + kUsage;
    return 2;
  }
  for (const auto& [flag, value] : parsed.value().flags) {
    (void)value;
    if (!allowed->second.count(flag)) {
      *out = "unknown flag --" + flag + " for '" + cmd + "'\n" + kUsage;
      return 2;
    }
  }
  Status st;
  if (cmd == "gen") {
    st = CmdGen(parsed.value(), out);
  } else if (cmd == "stats") {
    st = CmdStats(parsed.value(), out);
  } else if (cmd == "check") {
    st = CmdCheck(parsed.value(), out);
  } else if (cmd == "detect") {
    st = CmdDetect(parsed.value(), out);
  } else if (cmd == "explain_plan") {
    st = CmdExplainPlan(parsed.value(), out);
  } else if (cmd == "repair") {
    st = CmdRepair(parsed.value(), out);
  } else if (cmd == "mine") {
    st = CmdMine(parsed.value(), out);
  } else if (cmd == "serve") {
    st = CmdServe(parsed.value(), out, serve_in, serve_live);
  } else if (cmd == "wal") {
    st = CmdWalDump(parsed.value(), out);
  } else {
    // Unreachable while AllowedFlags() and this chain list the same
    // commands; fail loudly if they ever drift.
    *out = "command not dispatched: " + cmd + "\n" + kUsage;
    return 2;
  }
  if (!st.ok()) {
    *out += st.ToString() + "\n";
    return 1;
  }
  return 0;
}

}  // namespace grepair
