// The transport-independent serve protocol: typed requests, structured
// responses, and a per-client Session over one shared RepairService.
//
// The protocol used to live inside the CLI's stdio loop (one session, one
// client). This layer splits it into three pieces any transport can drive
// (DESIGN.md "Network serving"):
//
//   - ParseRequest: one pass from a protocol line to a tagged Request (verb
//     resolved, arity checked, ids parsed, symbols interned) — no
//     re-tokenizing per verb downstream.
//   - ErrResponse / error codes: every protocol failure is a machine-
//     parseable `err <code> <msg>` line. The code set is closed and
//     documented below; messages are human-readable detail.
//   - Session: per-client protocol state. In kImmediate mode (stdio, the
//     single exclusive client) edits apply to the service as they arrive and
//     responses carry real element ids — byte-identical to the historical
//     stdio protocol. In kStaged mode (TCP, many concurrent clients) edits
//     buffer inside the session and apply atomically at `commit` under the
//     shared service mutex, so concurrent clients interleave at commit
//     granularity and the outcome equals replaying the same per-client op
//     blocks through one stdio session in commit order.
//
// Error codes (`err <code> <msg>`):
//   unknown_verb  the verb is not part of the protocol
//   arity         known verb, wrong argument count
//   bad_id        an element id failed to parse or overflows the id space
//   bad_request   the line is malformed in some other way
//   rejected      the service refused an edit (dead id, bad endpoint, ...),
//                 or `detect` named an unknown rule
//   staged_edits  restore refused while uncommitted edits are staged
//   busy          admission control shed the connection or request, or
//                 an edit found the session's staging buffer full
//                 (Session::kMaxStagedEdits; the staged edits are kept)
//   io            a file/device operation failed (save/trace/...), or a
//                 WAL append failed — the batch was rolled back and the
//                 service is read-only until restarted
//   corrupt       stored bytes failed validation (restore, recovery)
//   internal      invariant failure inside the service (a bug)
#ifndef GREPAIR_SERVE_SESSION_H_
#define GREPAIR_SERVE_SESSION_H_

#include <mutex>
#include <string>
#include <vector>

#include "graph/edit_log.h"
#include "graph/vocabulary.h"
#include "serve/repair_service.h"
#include "util/status.h"

namespace grepair {
namespace serve {

/// Every verb of the line protocol. Edit verbs (kAddNode..kSetEdgeAttr)
/// carry an EditEntry; file verbs (kTrace..kRestore) carry a path; the rest
/// are bare.
enum class Verb {
  kAddNode,
  kAddEdge,
  kRemoveNode,
  kRemoveEdge,
  kSetNodeLabel,
  kSetEdgeLabel,
  kSetNodeAttr,
  kSetEdgeAttr,
  kCommit,
  kDetect,
  kViolations,
  kStats,
  kMetrics,
  kTrace,
  kSave,
  kSnapshot,
  kRestore,
  kQuit,
  kShutdown,
};

/// One parsed protocol request: the verb plus exactly the payload it needs.
struct Request {
  Verb verb = Verb::kCommit;
  /// Edit verbs only: the journal-shaped op, ids parsed and symbols
  /// interned, ready for RepairService::ApplyEdit.
  EditEntry edit;
  /// kTrace/kSave/kSnapshot/kRestore only: the target file path.
  std::string path;
  /// kDetect only: optional rule-name filter ("" = all rules). Kept as a
  /// raw string — read verbs must never intern (see IsPublishedRead).
  std::string rule;
  /// kViolations only: backlog page window.
  size_t offset = 0;
  size_t limit = 100;

  bool IsEdit() const { return verb <= Verb::kSetEdgeAttr; }
  /// Read verbs execute against the published snapshot generation, OUTSIDE
  /// the service mutex: their parse touches no shared state (no interning)
  /// and their execution pins an immutable generation, so any number of
  /// them run concurrently with each other and with the writer.
  bool IsPublishedRead() const {
    return verb == Verb::kDetect || verb == Verb::kViolations;
  }
};

/// Parses one protocol line into a Request. Interns labels/attrs/values into
/// `vocab` (callers serialize access — interning is not thread-safe).
/// Failure statuses map onto the protocol codes: kNotFound = unknown_verb,
/// kInvalidArgument = arity, kOutOfRange = bad_id, kParseError =
/// bad_request; render them with ErrResponseFor(). Blank/comment lines are
/// the transport's concern and never reach this function.
Result<Request> ParseRequest(const std::string& line,
                             const VocabularyPtr& vocab);

/// A structured protocol error line: "err <code> <msg>".
std::string ErrResponse(const std::string& code, const std::string& msg);

/// Renders a ParseRequest failure as its `err <code> <msg>` line.
std::string ParseErrResponse(const Status& status);

/// The historical one-line rendering of a committed batch (shared by the
/// stdio transport's pending-commit-on-quit path and the session).
std::string FormatBatchLine(const BatchResult& r);

/// How a Session applies edit verbs.
enum class SessionMode {
  /// Edits hit the service as they arrive; responses carry real element ids
  /// ("node 12"). Correct only for a transport whose session is the
  /// service's sole client between commits (stdio).
  kImmediate,
  /// Edits buffer in the session ("staged N" responses) and apply as one
  /// atomic block at commit. The mode for concurrent transports.
  kStaged,
};

/// Per-client protocol state over a shared RepairService. When `mu` is
/// non-null every service access (including ParseRequest's interning) runs
/// under it, so any number of sessions can share one service; a null mutex
/// is for single-client transports. Sessions are not themselves
/// thread-safe — one session belongs to one connection.
class Session {
 public:
  /// Most edits one kStaged session holds between commits; an edit past
  /// it is refused with `err busy`.
  static constexpr size_t kMaxStagedEdits = 65536;

  Session(RepairService* service, SessionMode mode, std::mutex* mu = nullptr);

  /// Parses and executes one protocol line; returns the response line ("" =
  /// no response: blank/comment input, or quit/shutdown which only raise
  /// their flag for the transport to act on). The response may span
  /// multiple physical lines (`metrics`); transports append the final
  /// newline.
  std::string HandleLine(const std::string& line);

  /// Executes an already-parsed request (the conformance suite drives this
  /// directly). Locks the service mutex internally.
  std::string Handle(const Request& req);

  /// Edit ops staged in this session and not yet committed (kStaged only).
  size_t StagedEdits() const { return staged_.size(); }

  /// Raised by the quit / shutdown verbs; the transport closes the
  /// connection (quit) or stops the whole listener (shutdown). Staged,
  /// uncommitted edits are discarded with the session.
  bool quit_requested() const { return quit_; }
  bool shutdown_requested() const { return shutdown_; }

 private:
  std::unique_lock<std::mutex> LockService();
  std::string HandleLocked(const Request& req);
  /// Read verbs (detect / violations): never takes the service mutex.
  std::string HandleRead(const Request& req);
  std::string ApplyImmediate(const EditEntry& op);

  RepairService* service_;
  SessionMode mode_;
  std::mutex* mu_;  ///< null = exclusive single-client transport
  std::vector<EditEntry> staged_;
  bool quit_ = false;
  bool shutdown_ = false;
};

}  // namespace serve
}  // namespace grepair

#endif  // GREPAIR_SERVE_SESSION_H_
