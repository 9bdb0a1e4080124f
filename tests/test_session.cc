// Protocol conformance for the transport-independent session layer
// (src/serve/session.h) and the admission-control policy
// (src/serve/admission.h). Pins three contracts:
//
//   1. ParseRequest: every verb of the line protocol parses to the right
//      tagged Request, and every failure maps to its documented
//      `err <code> <msg>` line (unknown_verb / arity / bad_id).
//   2. Immediate mode reproduces the historical stdio responses byte for
//      byte ("node N", "edge N", "ok", batch/stats lines), while staged
//      mode buffers ("staged N") and commits atomically — and both modes
//      leave the service in an identical state for the same op sequence.
//   3. TokenBucket / AdmissionController decisions are a pure function of
//      the caller-supplied clock, so rate-limit behavior is deterministic.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "grr/rule_parser.h"
#include "serve/admission.h"
#include "serve/repair_service.h"
#include "serve/session.h"

namespace grepair {
namespace serve {
namespace {

// A tiny service: a Person chain and one never-firing rule, enough to
// exercise every verb without repair cascades changing ids under the test.
RepairService MakeService(size_t nodes = 4) {
  auto vocab = MakeVocabulary();
  Graph g(vocab);
  SymbolId person = vocab->Label("Person"), knows = vocab->Label("knows");
  for (size_t i = 0; i < nodes; ++i) g.AddNode(person);
  for (NodeId n = 0; n + 1 < nodes; ++n) (void)g.AddEdge(n, n + 1, knows);
  auto rules = ParseRules(
      "RULE never CLASS conflict\nMATCH (x:Ghost)\n"
      "ACTION UPD_NODE x LABEL Person\n",
      vocab);
  EXPECT_TRUE(rules.ok()) << rules.status().ToString();
  return RepairService(std::move(g), std::move(rules).value(),
                       ServeOptions());
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------ ParseRequest

TEST(ParseRequestTest, ParsesEveryVerb) {
  auto vocab = MakeVocabulary();
  struct Case {
    const char* line;
    Verb verb;
  };
  const Case kCases[] = {
      {"add_node Person", Verb::kAddNode},
      {"add_edge 0 1 knows", Verb::kAddEdge},
      {"remove_node 3", Verb::kRemoveNode},
      {"remove_edge 2", Verb::kRemoveEdge},
      {"set_node_label 1 Org", Verb::kSetNodeLabel},
      {"set_edge_label 1 likes", Verb::kSetEdgeLabel},
      {"set_node_attr 0 name Ada", Verb::kSetNodeAttr},
      {"set_edge_attr 0 since 1999", Verb::kSetEdgeAttr},
      {"commit", Verb::kCommit},
      {"stats", Verb::kStats},
      {"metrics", Verb::kMetrics},
      {"trace /tmp/t.json", Verb::kTrace},
      {"save /tmp/g.tsv", Verb::kSave},
      {"snapshot /tmp/s.snap", Verb::kSnapshot},
      {"restore /tmp/s.snap", Verb::kRestore},
      {"quit", Verb::kQuit},
      {"shutdown", Verb::kShutdown},
  };
  for (const Case& c : kCases) {
    auto r = ParseRequest(c.line, vocab);
    ASSERT_TRUE(r.ok()) << c.line << ": " << r.status().ToString();
    EXPECT_EQ(r.value().verb, c.verb) << c.line;
  }
}

TEST(ParseRequestTest, EditPayloadIsJournalShaped) {
  auto vocab = MakeVocabulary();
  auto r = ParseRequest("add_edge 7 9 knows", vocab);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().IsEdit());
  EXPECT_EQ(r.value().edit.kind, EditKind::kAddEdge);
  EXPECT_EQ(r.value().edit.src, 7u);
  EXPECT_EQ(r.value().edit.dst, 9u);
  EXPECT_EQ(r.value().edit.label, vocab->Label("knows"));

  // "-" clears an attribute (new_sym stays the reserved 0 symbol).
  r = ParseRequest("set_node_attr 3 name -", vocab);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().edit.new_sym, 0u);

  r = ParseRequest("restore /some/state.snap", vocab);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().IsEdit());
  EXPECT_EQ(r.value().path, "/some/state.snap");
}

TEST(ParseRequestTest, FailuresMapToDocumentedCodes) {
  auto vocab = MakeVocabulary();
  auto unknown = ParseRequest("bogus 1 2", vocab);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(ParseErrResponse(unknown.status()), "err unknown_verb bogus");

  auto arity = ParseRequest("add_node", vocab);
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(ParseErrResponse(arity.status()),
            "err arity add_node expects 1 argument(s)");

  auto bad_id = ParseRequest("remove_node notanumber", vocab);
  ASSERT_FALSE(bad_id.ok());
  EXPECT_EQ(ParseErrResponse(bad_id.status()), "err bad_id bad node id");

  // Ids above the 32-bit element space are bad_id, not silent truncation.
  auto wide = ParseRequest("remove_edge 4294967296", vocab);
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(ParseErrResponse(wide.status()), "err bad_id bad edge id");
}

// ------------------------------------------------------- immediate session

TEST(SessionTest, ImmediateModeKeepsHistoricalResponses) {
  RepairService service = MakeService();
  Session session(&service, SessionMode::kImmediate);

  // Golden lines of the stdio protocol, byte for byte.
  EXPECT_EQ(session.HandleLine("add_node Org"), "node 4");
  EXPECT_EQ(session.HandleLine("add_edge 0 4 knows"), "edge 3");
  EXPECT_EQ(session.HandleLine("set_node_label 4 Person"), "ok");
  std::string batch = session.HandleLine("commit");
  EXPECT_EQ(batch.rfind("batch 1 edits=3 ", 0), 0u) << batch;
  EXPECT_EQ(batch.find("op_errors"), std::string::npos) << batch;
  std::string stats = session.HandleLine("stats");
  EXPECT_EQ(stats.rfind("stats batches=1 edits=3 op_errors=0 ", 0), 0u)
      << stats;

  // Blank lines and comments produce no response at all.
  EXPECT_EQ(session.HandleLine(""), "");
  EXPECT_EQ(session.HandleLine("   "), "");
  EXPECT_EQ(session.HandleLine("# comment"), "");

  // A service-rejected edit is the rejected code, not a parse error.
  std::string rejected = session.HandleLine("remove_node 999");
  EXPECT_EQ(rejected.rfind("err rejected ", 0), 0u) << rejected;
  EXPECT_EQ(session.StagedEdits(), 0u);
}

TEST(SessionTest, QuitAndShutdownRaiseFlagsOnly) {
  RepairService service = MakeService();
  Session session(&service, SessionMode::kImmediate);
  EXPECT_FALSE(session.quit_requested());
  EXPECT_EQ(session.HandleLine("quit"), "");
  EXPECT_TRUE(session.quit_requested());
  EXPECT_FALSE(session.shutdown_requested());

  Session s2(&service, SessionMode::kStaged);
  EXPECT_EQ(s2.HandleLine("shutdown"), "");
  EXPECT_TRUE(s2.quit_requested());
  EXPECT_TRUE(s2.shutdown_requested());
}

// ---------------------------------------------------------- staged session

TEST(SessionTest, StagedModeBuffersUntilCommit) {
  RepairService service = MakeService();
  Session session(&service, SessionMode::kStaged);

  EXPECT_EQ(session.HandleLine("add_node Org"), "staged 1");
  EXPECT_EQ(session.HandleLine("add_node Org"), "staged 2");
  EXPECT_EQ(session.StagedEdits(), 2u);
  // Nothing reaches the service before commit; stats still reports the
  // session's staged ops as pending so clients can see their backlog.
  EXPECT_EQ(service.PendingEdits(), 0u);
  EXPECT_NE(session.HandleLine("stats").find(" pending=2 "),
            std::string::npos);

  std::string batch = session.HandleLine("commit");
  EXPECT_EQ(batch.rfind("batch 1 edits=2 ", 0), 0u) << batch;
  EXPECT_EQ(session.StagedEdits(), 0u);
  EXPECT_EQ(service.graph().NumNodes(), 6u);
}

TEST(SessionTest, StagedCommitCountsRejectedOps) {
  RepairService service = MakeService();
  Session session(&service, SessionMode::kStaged);
  session.HandleLine("add_node Org");
  session.HandleLine("remove_node 999");  // stages fine, dies at commit
  std::string batch = session.HandleLine("commit");
  EXPECT_NE(batch.find(" op_errors=1"), std::string::npos) << batch;
  EXPECT_EQ(service.graph().NumNodes(), 5u);
}

// The staging buffer holds at most kMaxStagedEdits edits: one more is
// refused with `err busy`, and the staged ones still commit.
TEST(SessionTest, StagingBufferIsBounded) {
  RepairService service = MakeService();
  Session session(&service, SessionMode::kStaged);
  auto add = ParseRequest("add_node Org", service.graph().vocab());
  ASSERT_TRUE(add.ok()) << add.status().ToString();
  for (size_t i = 0; i < Session::kMaxStagedEdits; ++i)
    ASSERT_EQ(session.Handle(add.value()), "staged " + std::to_string(i + 1));

  EXPECT_EQ(session.HandleLine("add_node Org").rfind("err busy ", 0), 0u);
  EXPECT_EQ(session.StagedEdits(), Session::kMaxStagedEdits);

  const std::string batch = session.HandleLine("commit");
  EXPECT_EQ(batch.rfind("batch 1 edits=" +
                            std::to_string(Session::kMaxStagedEdits) + " ",
                        0),
            0u)
      << batch;
  EXPECT_EQ(session.StagedEdits(), 0u);
  EXPECT_EQ(session.HandleLine("add_node Org"), "staged 1");
}

TEST(SessionTest, StagedAndImmediateConvergeToIdenticalState) {
  const char* kOps[] = {
      "add_node Org",          "add_edge 0 4 knows", "set_node_label 1 Org",
      "set_node_attr 2 n Ada", "remove_edge 1",      "commit",
      "add_node Person",       "commit",
  };
  RepairService immediate = MakeService();
  RepairService staged = MakeService();
  Session si(&immediate, SessionMode::kImmediate);
  Session ss(&staged, SessionMode::kStaged);
  for (const char* op : kOps) {
    si.HandleLine(op);
    ss.HandleLine(op);
  }
  std::string a = ::testing::TempDir() + "/grepair_sess_imm.snap";
  std::string b = ::testing::TempDir() + "/grepair_sess_staged.snap";
  ASSERT_TRUE(immediate.SaveState(a).ok());
  ASSERT_TRUE(staged.SaveState(b).ok());
  EXPECT_EQ(Slurp(a), Slurp(b));  // bit-identical graph + backlog
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// ------------------------------------------------------- restore guarding

TEST(SessionTest, RestoreRefusedWhileEditsAreStaged) {
  RepairService service = MakeService();
  std::string state = ::testing::TempDir() + "/grepair_sess_guard.snap";
  ASSERT_TRUE(service.SaveState(state).ok());

  Session session(&service, SessionMode::kStaged);
  session.HandleLine("add_node Org");
  std::string resp = session.HandleLine("restore " + state);
  EXPECT_EQ(resp.rfind("err staged_edits ", 0), 0u) << resp;
  EXPECT_EQ(session.StagedEdits(), 1u);  // nothing was discarded

  session.HandleLine("commit");
  resp = session.HandleLine("restore " + state);
  EXPECT_EQ(resp.rfind("restored ", 0), 0u) << resp;
  std::remove(state.c_str());
}

TEST(RepairServiceTest, RestoreRefusedWhilePendingEditsExist) {
  RepairService service = MakeService();
  std::string state = ::testing::TempDir() + "/grepair_svc_guard.snap";
  ASSERT_TRUE(service.SaveState(state).ok());

  EditEntry op;
  op.kind = EditKind::kAddNode;
  op.label = service.graph().vocab()->Label("Org");
  ASSERT_TRUE(service.ApplyEdit(op).ok());
  Status st = service.RestoreState(state);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.PendingEdits(), 1u);  // the edit survived the refusal

  (void)service.Commit();
  EXPECT_TRUE(service.RestoreState(state).ok());
  std::remove(state.c_str());
}

// -------------------------------------------------------- ServeOptions

TEST(ServeOptionsTest, ValidatesAdmissionKnobs) {
  ServeOptions opt;
  EXPECT_TRUE(opt.Validate().ok());  // defaults: stdio, no limits

  opt.listen_port = 65536;
  EXPECT_FALSE(opt.Validate().ok());
  opt.listen_port = -2;
  EXPECT_FALSE(opt.Validate().ok());
  opt.listen_port = 0;  // ephemeral port is fine
  EXPECT_TRUE(opt.Validate().ok());

  opt.max_connections = 0;
  EXPECT_FALSE(opt.Validate().ok());
  opt.max_connections = 8;
  EXPECT_TRUE(opt.Validate().ok());

  opt.max_requests_per_sec = -1.0;
  EXPECT_FALSE(opt.Validate().ok());
  opt.max_requests_per_sec = 100.0;
  EXPECT_TRUE(opt.Validate().ok());
}

// ----------------------------------------------------------- admission

TEST(TokenBucketTest, DeterministicUnderSuppliedClock) {
  TokenBucket bucket(2.0, 2.0);  // 2 req/s, burst 2, starts full
  EXPECT_TRUE(bucket.TryAcquire(10.0));
  EXPECT_TRUE(bucket.TryAcquire(10.0));
  EXPECT_FALSE(bucket.TryAcquire(10.0));  // burst exhausted
  EXPECT_TRUE(bucket.TryAcquire(10.5));   // +0.5s * 2/s = 1 token
  EXPECT_FALSE(bucket.TryAcquire(10.5));
  // Time going backwards refills nothing.
  EXPECT_FALSE(bucket.TryAcquire(9.0));
  // The bucket caps at burst: a long idle stretch is not a license to
  // flood.
  EXPECT_TRUE(bucket.TryAcquire(100.0));
  EXPECT_TRUE(bucket.TryAcquire(100.0));
  EXPECT_FALSE(bucket.TryAcquire(100.0));
}

TEST(TokenBucketTest, ZeroRateDisablesLimiting) {
  TokenBucket bucket(0.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAcquire(0.0));
}

TEST(AdmissionControllerTest, CapsConnectionsAndCountsDecisions) {
  AdmissionOptions opt;
  opt.max_connections = 2;
  AdmissionController ctrl(opt);
  EXPECT_TRUE(ctrl.TryAdmitConnection());
  EXPECT_TRUE(ctrl.TryAdmitConnection());
  EXPECT_FALSE(ctrl.TryAdmitConnection());  // at cap
  EXPECT_EQ(ctrl.active_connections(), 2u);
  EXPECT_EQ(ctrl.connections_admitted(), 2u);
  EXPECT_EQ(ctrl.connections_rejected(), 1u);
  ctrl.ReleaseConnection();
  EXPECT_TRUE(ctrl.TryAdmitConnection());  // freed slot is reusable
}

TEST(AdmissionControllerTest, ShedsOverRateRequests) {
  AdmissionOptions opt;
  opt.max_requests_per_sec = 1.0;  // burst max(1, rate) = 1
  AdmissionController ctrl(opt);
  EXPECT_TRUE(ctrl.TryAdmitRequest(5.0));
  EXPECT_FALSE(ctrl.TryAdmitRequest(5.0));
  EXPECT_TRUE(ctrl.TryAdmitRequest(6.0));
  EXPECT_EQ(ctrl.requests_admitted(), 2u);
  EXPECT_EQ(ctrl.requests_rejected(), 1u);
}

}  // namespace
}  // namespace serve
}  // namespace grepair
