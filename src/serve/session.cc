#include "serve/session.h"

#include <algorithm>
#include <map>

#include "graph/graph_io.h"
#include "obs/build_info.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace grepair {
namespace serve {
namespace {

struct VerbSpec {
  Verb verb;
  /// Token bounds, verb included (so arity errors beat unknown-verb ones).
  /// Most verbs are fixed-arity (min == max); the read verbs take optional
  /// trailing arguments.
  size_t min_tokens;
  size_t max_tokens;
};

const std::map<std::string, VerbSpec, std::less<>>& VerbTable() {
  static const std::map<std::string, VerbSpec, std::less<>> kVerbs = {
      {"add_node", {Verb::kAddNode, 2, 2}},
      {"add_edge", {Verb::kAddEdge, 4, 4}},
      {"remove_node", {Verb::kRemoveNode, 2, 2}},
      {"remove_edge", {Verb::kRemoveEdge, 2, 2}},
      {"set_node_label", {Verb::kSetNodeLabel, 3, 3}},
      {"set_edge_label", {Verb::kSetEdgeLabel, 3, 3}},
      {"set_node_attr", {Verb::kSetNodeAttr, 4, 4}},
      {"set_edge_attr", {Verb::kSetEdgeAttr, 4, 4}},
      {"commit", {Verb::kCommit, 1, 1}},
      {"detect", {Verb::kDetect, 1, 2}},
      {"violations", {Verb::kViolations, 1, 3}},
      {"stats", {Verb::kStats, 1, 1}},
      {"metrics", {Verb::kMetrics, 1, 1}},
      {"trace", {Verb::kTrace, 2, 2}},
      {"save", {Verb::kSave, 2, 2}},
      {"snapshot", {Verb::kSnapshot, 2, 2}},
      {"restore", {Verb::kRestore, 2, 2}},
      {"quit", {Verb::kQuit, 1, 1}},
      {"shutdown", {Verb::kShutdown, 1, 1}},
  };
  return kVerbs;
}

/// First whitespace-delimited token of a trimmed line (read-verb probe —
/// cheaper than a full tokenize, allocation-free).
std::string_view FirstToken(std::string_view trimmed) {
  const size_t end = trimmed.find_first_of(" \t");
  return end == std::string_view::npos ? trimmed : trimmed.substr(0, end);
}

/// Protocol code for a published-read failure (the read path's closed
/// status set; see RepairService::DetectPublished).
std::string ReadErrResponse(const Status& st) {
  switch (st.code()) {
    case StatusCode::kResourceExhausted:
      return ErrResponse("busy", st.ToString());
    case StatusCode::kNotFound:
      return ErrResponse("rejected", st.ToString());
    default:
      return ErrResponse("internal", st.ToString());
  }
}

bool ParseId(const std::string& s, uint32_t* id) {
  uint64_t v = 0;
  if (!ParseUint64(s, &v) || v > UINT32_MAX) return false;
  *id = static_cast<uint32_t>(v);
  return true;
}

/// Protocol code for a status coming out of a service/file operation
/// (restore, save, trace). Parse failures use ParseErrResponse instead.
std::string ExecErrCode(const Status& st) {
  switch (st.code()) {
    case StatusCode::kFailedPrecondition:
      return "staged_edits";
    case StatusCode::kNotFound:
    case StatusCode::kIo:
      return "io";  // the file/device failed, not the stored bytes
    case StatusCode::kParseError:
    case StatusCode::kDataLoss:
      return "corrupt";  // the stored bytes failed validation
    case StatusCode::kInternal:
      return "internal";
    default:
      return "io";
  }
}

}  // namespace

std::string ErrResponse(const std::string& code, const std::string& msg) {
  return "err " + code + " " + msg;
}

std::string ParseErrResponse(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return ErrResponse("unknown_verb", status.message());
    case StatusCode::kInvalidArgument:
      return ErrResponse("arity", status.message());
    case StatusCode::kOutOfRange:
      return ErrResponse("bad_id", status.message());
    default:
      return ErrResponse("bad_request", status.message());
  }
}

std::string FormatBatchLine(const BatchResult& r) {
  return StrFormat("batch %zu edits=%zu anchors=%zu violations=%zu fixes=%zu "
                   "ms=%.2f%s",
                   r.batch, r.edits, r.anchor_nodes + r.anchor_edges,
                   r.violations, r.fixes, r.total_ms,
                   r.budget_exhausted ? " BUDGET_EXHAUSTED" : "");
}

Result<Request> ParseRequest(const std::string& line,
                             const VocabularyPtr& vocab) {
  std::vector<std::string> tok = SplitWhitespace(line);
  if (tok.empty())
    return Status::ParseError("empty request");
  auto spec = VerbTable().find(tok[0]);
  if (spec == VerbTable().end())
    return Status::NotFound(tok[0]);
  if (tok.size() < spec->second.min_tokens ||
      tok.size() > spec->second.max_tokens) {
    if (spec->second.min_tokens == spec->second.max_tokens)
      return Status::InvalidArgument(StrFormat(
          "%s expects %zu argument(s)", tok[0].c_str(),
          spec->second.min_tokens - 1));
    return Status::InvalidArgument(StrFormat(
        "%s expects %zu to %zu argument(s)", tok[0].c_str(),
        spec->second.min_tokens - 1, spec->second.max_tokens - 1));
  }

  Request req;
  req.verb = spec->second.verb;
  EditEntry& op = req.edit;
  switch (req.verb) {
    case Verb::kAddNode:
      op.kind = EditKind::kAddNode;
      op.label = vocab->Label(tok[1]);
      break;
    case Verb::kAddEdge:
      op.kind = EditKind::kAddEdge;
      if (!ParseId(tok[1], &op.src) || !ParseId(tok[2], &op.dst))
        return Status::OutOfRange("bad node id");
      op.label = vocab->Label(tok[3]);
      break;
    case Verb::kRemoveNode:
      op.kind = EditKind::kRemoveNode;
      if (!ParseId(tok[1], &op.node)) return Status::OutOfRange("bad node id");
      break;
    case Verb::kRemoveEdge:
      op.kind = EditKind::kRemoveEdge;
      if (!ParseId(tok[1], &op.edge)) return Status::OutOfRange("bad edge id");
      break;
    case Verb::kSetNodeLabel:
    case Verb::kSetEdgeLabel: {
      bool is_node = req.verb == Verb::kSetNodeLabel;
      op.kind = is_node ? EditKind::kSetNodeLabel : EditKind::kSetEdgeLabel;
      if (!ParseId(tok[1], is_node ? &op.node : &op.edge))
        return Status::OutOfRange("bad element id");
      op.new_sym = vocab->Label(tok[2]);
      break;
    }
    case Verb::kSetNodeAttr:
    case Verb::kSetEdgeAttr: {
      bool is_node = req.verb == Verb::kSetNodeAttr;
      op.kind = is_node ? EditKind::kSetNodeAttr : EditKind::kSetEdgeAttr;
      if (!ParseId(tok[1], is_node ? &op.node : &op.edge))
        return Status::OutOfRange("bad element id");
      op.attr = vocab->Attr(tok[2]);
      op.new_sym = tok[3] == "-" ? 0 : vocab->Value(tok[3]);  // "-" clears
      break;
    }
    case Verb::kTrace:
    case Verb::kSave:
    case Verb::kSnapshot:
    case Verb::kRestore:
      req.path = tok[1];
      break;
    case Verb::kDetect:
      // The optional rule filter stays a raw string: read verbs intern
      // nothing (they run outside the vocabulary writer's lock) and the
      // service resolves it by name compare.
      if (tok.size() > 1) req.rule = tok[1];
      break;
    case Verb::kViolations: {
      uint64_t v = 0;
      if (tok.size() > 1) {
        if (!ParseUint64(tok[1], &v)) return Status::ParseError("bad offset");
        req.offset = static_cast<size_t>(v);
      }
      if (tok.size() > 2) {
        if (!ParseUint64(tok[2], &v) || v == 0)
          return Status::ParseError("bad limit");
        // Page-size ceiling: one response line per row, so an absurd limit
        // would turn a paged read into a full dump.
        constexpr uint64_t kMaxLimit = 10000;
        req.limit = static_cast<size_t>(std::min(v, kMaxLimit));
      }
      break;
    }
    default:
      break;  // bare verbs carry nothing
  }
  return req;
}

Session::Session(RepairService* service, SessionMode mode, std::mutex* mu)
    : service_(service), mode_(mode), mu_(mu) {}

std::unique_lock<std::mutex> Session::LockService() {
  return mu_ != nullptr ? std::unique_lock<std::mutex>(*mu_)
                        : std::unique_lock<std::mutex>();
}

std::string Session::HandleLine(const std::string& line) {
  std::string_view trimmed = Trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return "";
  // Read verbs route AROUND the service mutex: their parse interns nothing
  // (the vocabulary is never consulted — see the static below) and their
  // execution pins an immutable published generation, so N readers run in
  // parallel with each other and with a writer mid-commit. Everything else
  // keeps the historical contract: one lock spans parse + dispatch,
  // because ParseRequest interns symbols into the shared vocabulary.
  const std::string_view head = FirstToken(trimmed);
  if (head == "detect" || head == "violations") {
    // Null vocabulary: proves by construction the read parse can't intern
    // (and avoids even touching service_->graph(), which a concurrent
    // restore may be swapping).
    static const VocabularyPtr kNoVocab;
    auto parsed = ParseRequest(line, kNoVocab);
    if (!parsed.ok()) return ParseErrResponse(parsed.status());
    return HandleRead(parsed.value());
  }
  auto lock = LockService();
  auto parsed = ParseRequest(line, service_->graph().vocab());
  if (!parsed.ok()) return ParseErrResponse(parsed.status());
  return HandleLocked(parsed.value());
}

std::string Session::Handle(const Request& req) {
  if (req.IsPublishedRead()) return HandleRead(req);
  auto lock = LockService();
  return HandleLocked(req);
}

std::string Session::HandleRead(const Request& req) {
  if (req.verb == Verb::kDetect) {
    auto r = service_->DetectPublished(req.rule);
    if (!r.ok()) return ReadErrResponse(r.status());
    const PublishedDetect& d = r.value();
    // EXACTLY the offline `grepair detect` report (minus the trailing
    // newline the transport appends) — the bit-identity the read path
    // promises (tests/test_publish.cc).
    std::string out = StrFormat("%zu violations", d.violations);
    for (const auto& [name, count] : d.per_rule)
      out += StrFormat("\n  %-32s %zu", name.c_str(), count);
    return out;
  }
  auto r = service_->ReadViolations(req.offset, req.limit);
  if (!r.ok()) return ReadErrResponse(r.status());
  const PublishedViolations& v = r.value();
  std::string out = StrFormat(
      "violations total=%zu generation=%zu batch=%zu offset=%zu returned=%zu",
      v.total, static_cast<size_t>(v.generation),
      static_cast<size_t>(v.batch), v.offset, v.rows.size());
  for (const PublishedViolations::Row& row : v.rows)
    out += StrFormat("\n  %-32s cost=%.6g nodes=%zu edges=%zu",
                     row.rule.c_str(), row.cost, row.nodes, row.edges);
  return out;
}

std::string Session::ApplyImmediate(const EditEntry& op) {
  auto r = service_->ApplyEdit(op);
  if (!r.ok()) {
    // A read-only service (degraded after a storage failure) refuses with
    // kIo; that is an io condition, not an op rejection.
    if (r.status().code() == StatusCode::kIo)
      return ErrResponse("io", r.status().ToString());
    return ErrResponse("rejected", r.status().ToString());
  }
  switch (op.kind) {
    case EditKind::kAddNode:
      return StrFormat("node %u", r.value().node);
    case EditKind::kAddEdge:
      return StrFormat("edge %u", r.value().edge);
    default:
      return "ok";
  }
}

std::string Session::HandleLocked(const Request& req) {
  if (req.IsEdit()) {
    if (mode_ == SessionMode::kImmediate) return ApplyImmediate(req.edit);
    if (staged_.size() >= kMaxStagedEdits)
      return ErrResponse(
          "busy", StrFormat("%zu edits staged, the most one session holds; "
                            "commit them first",
                            staged_.size()));
    staged_.push_back(req.edit);
    return StrFormat("staged %zu", staged_.size());
  }

  switch (req.verb) {
    case Verb::kCommit: {
      // Staged mode: the session's buffered ops become one atomic block.
      // Ops the service rejects (an element another session's committed
      // block removed, say) are skipped and surfaced in the batch line;
      // everything accepted repairs in this commit.
      size_t op_errors = 0;
      for (const EditEntry& op : staged_)
        if (!service_->ApplyEdit(op).ok()) ++op_errors;
      staged_.clear();
      auto committed = service_->Commit();
      // A WAL append failure surfaces here: the batch was rolled back and
      // the service is read-only — tell the client, not just the log.
      if (!committed.ok())
        return ErrResponse(ExecErrCode(committed.status()),
                           committed.status().ToString());
      std::string line = FormatBatchLine(committed.value());
      if (op_errors > 0) line += StrFormat(" op_errors=%zu", op_errors);
      return line;
    }
    case Verb::kStats: {
      const ServiceStats& s = service_->stats();
      return StrFormat(
          "stats batches=%zu edits=%zu op_errors=%zu violations=%zu "
          "fixes=%zu anchors=%zu pending=%zu p50_ms=%.2f p95_ms=%.2f "
          "p99_ms=%.2f snapshot_mem=%zu shards=%zu shard_patches=%zu "
          "shard_rebuilds=%zu read_only=%d wal_appends=%zu wal_syncs=%zu "
          "checkpoints=%zu last_checkpoint=%zu published_generation=%zu "
          "published_reads=%zu stale_reads=%zu publishes=%zu publish_ms=%.2f "
          "publish_patches=%zu publish_rebuilds=%zu publish_abandoned=%zu",
          s.batches, s.edits, s.op_errors, s.violations_detected,
          s.violations_repaired, s.anchors_visited,
          service_->PendingEdits() + staged_.size(),
          s.LatencyPercentileMs(50), s.LatencyPercentileMs(95),
          s.LatencyPercentileMs(99), s.snapshot_memory_bytes,
          service_->num_shards(), s.shard_patches, s.shard_rebuilds,
          s.read_only ? 1 : 0, s.wal_appends, s.wal_syncs, s.checkpoints,
          s.last_checkpoint_seq, s.published_generation, s.published_reads,
          s.stale_reads, s.publishes, s.publish_ms, s.publish_patches,
          s.publish_rebuilds, s.publish_abandoned);
    }
    case Verb::kMetrics: {
      // stats() refreshes the lazily-priced snapshot-memory gauge before
      // the registry is rendered; the service instruments come first, then
      // the process-wide families (pool, matcher, build info). Names never
      // collide across the two registries, so the concatenation is itself
      // a well-formed exposition.
      (void)service_->stats();
      obs::RegisterBuildInfoMetric();
      std::string text = service_->metrics_registry().ExpositionText() +
                         obs::MetricsRegistry::Global().ExpositionText();
      // The protocol is line-oriented; the transport appends the final
      // newline.
      if (!text.empty() && text.back() == '\n') text.pop_back();
      return text;
    }
    case Verb::kTrace: {
      size_t events = obs::TraceEventCount();
      if (!obs::WriteChromeTrace(req.path))
        return ErrResponse("io", "cannot write trace: " + req.path);
      return StrFormat("trace %s events=%zu", req.path.c_str(), events);
    }
    case Verb::kSave: {
      Status st = SaveGraph(service_->graph(), req.path);
      return st.ok() ? "saved " + req.path
                     : ErrResponse(ExecErrCode(st), st.ToString());
    }
    case Verb::kSnapshot: {
      // SaveState commits pending edits first; surface that in the
      // response — including on write failure, since the commit mutated
      // the graph even when the file never materialized. Staged (session-
      // local) edits are NOT part of the saved state: the client has not
      // committed them.
      bool commits = service_->PendingEdits() > 0;
      Status st = service_->SaveState(req.path);
      std::string suffix =
          commits ? StrFormat(" committed_batch=%zu",
                              service_->stats().batches)
                  : std::string();
      if (!st.ok()) return ErrResponse(ExecErrCode(st), st.ToString() + suffix);
      return "snapshot " + req.path + suffix;
    }
    case Verb::kRestore: {
      // The staged-edits rule (DESIGN.md "Network serving"): restoring
      // while edits are staged would silently discard them or, worse,
      // commit them onto the restored state. Both session-staged and
      // service-pending edits refuse; the client commits (or reconnects)
      // first.
      if (!staged_.empty())
        return ErrResponse(
            "staged_edits",
            StrFormat("%zu staged edit(s) pending; commit before restore",
                      staged_.size()));
      Status st = service_->RestoreState(req.path);
      if (!st.ok()) return ErrResponse(ExecErrCode(st), st.ToString());
      return StrFormat("restored %s nodes=%zu edges=%zu violations=%zu",
                       req.path.c_str(), service_->graph().NumNodes(),
                       service_->graph().NumEdges(),
                       service_->ViolationBacklog());
    }
    case Verb::kQuit:
      quit_ = true;
      return "";
    case Verb::kShutdown:
      quit_ = true;
      shutdown_ = true;
      return "";
    default:
      return ErrResponse("internal", "unhandled verb");
  }
}

}  // namespace serve
}  // namespace grepair
