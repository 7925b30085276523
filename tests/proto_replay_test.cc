// Crash-transparent request replay: the replay wire codec (kReplay /
// kReplayAck / kJournalAppend round-trips and hostile-input robustness), the
// front-end's replay-journal bookkeeping (ack trimming, splice-offset
// accumulation across repeated crashes, bounded-capacity overflow), the
// end-to-end crash-mid-pipeline path (a killed back-end's in-flight
// idempotent requests are re-served byte-consistently on a survivor over the
// *same* client TCP connection), the clean-giveup path for non-idempotent
// tails (502/close, never a spliced half-response), and the simulator's
// deterministic twin with its shared invariant lost == non_idempotent.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/http/response_parser.h"
#include "src/net/socket.h"
#include "src/proto/cluster.h"
#include "src/proto/control_protocol.h"
#include "src/proto/replay_journal.h"
#include "src/sim/cluster_sim.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(ReplayWireTest, ReplayRoundTrip) {
  ReplayMsg msg;
  msg.conn_id = (7ull << 48) + 12345;
  msg.origin_node = 3;
  msg.splice_offset = 987654321;
  msg.autonomous = true;
  RequestDirective directive;
  directive.action = DirectiveAction::kLocal;
  directive.path = "/a/b/c.html";
  directive.cache_after_miss = false;
  msg.directives.push_back(directive);
  directive.path = "/second";
  directive.cache_after_miss = true;
  msg.directives.push_back(directive);
  msg.replay_input = "GET /a/b/c.html HTTP/1.1\r\n\r\nGET /second HTTP/1.1\r\n\r\n";

  ReplayMsg decoded;
  ASSERT_TRUE(DecodeReplay(EncodeReplay(msg), &decoded));
  EXPECT_EQ(decoded.conn_id, msg.conn_id);
  EXPECT_EQ(decoded.origin_node, msg.origin_node);
  EXPECT_EQ(decoded.splice_offset, msg.splice_offset);
  EXPECT_EQ(decoded.autonomous, msg.autonomous);
  ASSERT_EQ(decoded.directives.size(), 2u);
  EXPECT_EQ(decoded.directives[0].path, "/a/b/c.html");
  EXPECT_FALSE(decoded.directives[0].cache_after_miss);
  EXPECT_EQ(decoded.directives[1].path, "/second");
  EXPECT_EQ(decoded.replay_input, msg.replay_input);
}

TEST(ReplayWireTest, ReplayAckRoundTrip) {
  ReplayAckMsg msg;
  msg.conn_id = 42;
  msg.completed = 17;
  msg.partial_bytes = 4096;
  ReplayAckMsg decoded;
  ASSERT_TRUE(DecodeReplayAck(EncodeReplayAck(msg), &decoded));
  EXPECT_EQ(decoded.conn_id, 42u);
  EXPECT_EQ(decoded.completed, 17u);
  EXPECT_EQ(decoded.partial_bytes, 4096u);
}

TEST(ReplayWireTest, JournalAppendRoundTrip) {
  JournalAppendMsg msg;
  msg.conn_id = 99;
  msg.method = "GET";
  msg.path = "/x";
  msg.request_bytes = "GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
  JournalAppendMsg decoded;
  ASSERT_TRUE(DecodeJournalAppend(EncodeJournalAppend(msg), &decoded));
  EXPECT_EQ(decoded.conn_id, 99u);
  EXPECT_EQ(decoded.method, "GET");
  EXPECT_EQ(decoded.path, "/x");
  EXPECT_EQ(decoded.request_bytes, msg.request_bytes);
}

TEST(ReplayWireTest, TruncatedFramesAreRejected) {
  ReplayMsg msg;
  msg.conn_id = 1;
  msg.origin_node = 0;
  RequestDirective directive;
  directive.path = "/p";
  msg.directives.push_back(directive);
  msg.replay_input = "GET /p HTTP/1.1\r\n\r\n";
  const std::string encoded = EncodeReplay(msg);
  // Every strict prefix must fail cleanly, never crash or mis-decode.
  for (size_t len = 0; len < encoded.size(); ++len) {
    ReplayMsg decoded;
    EXPECT_FALSE(DecodeReplay(std::string_view(encoded.data(), len), &decoded))
        << "prefix of " << len << " bytes decoded";
  }
  const std::string ack = EncodeReplayAck({5, 6, 7});
  for (size_t len = 0; len < ack.size(); ++len) {
    ReplayAckMsg decoded;
    EXPECT_FALSE(DecodeReplayAck(std::string_view(ack.data(), len), &decoded));
  }
  JournalAppendMsg append;
  append.conn_id = 1;
  append.method = "GET";
  append.path = "/p";
  append.request_bytes = "GET /p HTTP/1.1\r\n\r\n";
  const std::string append_encoded = EncodeJournalAppend(append);
  for (size_t len = 0; len < append_encoded.size(); ++len) {
    JournalAppendMsg decoded;
    EXPECT_FALSE(
        DecodeJournalAppend(std::string_view(append_encoded.data(), len), &decoded));
  }
}

TEST(ReplayWireTest, GarbageAndTrailingBytesAreRejected) {
  ReplayMsg decoded;
  EXPECT_FALSE(DecodeReplay("not a frame at all", &decoded));
  // A declared directive count far beyond the remaining bytes must fail
  // without reserving gigabytes (the count-vs-remaining bound).
  WireWriter writer;
  writer.U64(1);               // conn_id
  writer.U32(0);               // origin node
  writer.U64(0);               // splice offset
  writer.U8(0);                // autonomous
  writer.U32(0x00f00000);      // directive count: ~15M, but no bytes follow
  EXPECT_FALSE(DecodeReplay(writer.Take(), &decoded));
  // Trailing garbage after a valid encoding must also be rejected.
  ReplayAckMsg ack_decoded;
  std::string ack = EncodeReplayAck({1, 2, 3});
  ack += "x";
  EXPECT_FALSE(DecodeReplayAck(ack, &ack_decoded));
}

TEST(ReplayWireTest, HandoffCarriesReplayProtectedFlag) {
  HandoffMsg msg;
  msg.conn_id = 5;
  msg.autonomous = true;
  msg.replay_protected = true;
  msg.unparsed_input = "GET / HTTP/1.1\r\n\r\n";
  HandoffMsg decoded;
  ASSERT_TRUE(DecodeHandoff(EncodeHandoff(msg), &decoded));
  EXPECT_TRUE(decoded.replay_protected);
  msg.replay_protected = false;
  ASSERT_TRUE(DecodeHandoff(EncodeHandoff(msg), &decoded));
  EXPECT_FALSE(decoded.replay_protected);
}

// ---------------------------------------------------------------------------
// Journal bookkeeping
// ---------------------------------------------------------------------------

ReplayJournal::Entry MakeEntry(const std::string& path, bool idempotent = true) {
  ReplayJournal::Entry entry;
  entry.bytes = std::string(idempotent ? "GET " : "POST ") + path + " HTTP/1.1\r\n\r\n";
  entry.method = idempotent ? "GET" : "POST";
  entry.path = path;
  entry.idempotent = idempotent;
  return entry;
}

TEST(ReplayJournalTest, AcksTrimTheTailAndTrackThePartialOffset) {
  ReplayJournal journal(ReplayJournalConfig{});
  journal.Track(1, UniqueFd());
  journal.Append(1, MakeEntry("/a"));
  journal.Append(1, MakeEntry("/b"));
  journal.Append(1, MakeEntry("/c"));

  ReplayJournal::Plan plan = journal.PlanFor(1);
  ASSERT_TRUE(plan.tracked);
  ASSERT_TRUE(plan.replayable);
  ASSERT_EQ(plan.entries.size(), 3u);
  EXPECT_EQ(plan.splice_offset, 0u);
  EXPECT_FALSE(plan.mid_response);

  // /a's response fully flushed, 100 bytes of /b's flushed.
  journal.Ack(1, 1, 100);
  plan = journal.PlanFor(1);
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_EQ(plan.entries[0].path, "/b");
  EXPECT_EQ(plan.splice_offset, 100u);
  EXPECT_TRUE(plan.mid_response);

  // Progress is cumulative per node and monotone; a stale report is ignored.
  journal.Ack(1, 1, 40);
  EXPECT_EQ(journal.PlanFor(1).splice_offset, 40u);  // partial may move
  journal.Ack(1, 0, 999);                            // completed went backwards
  EXPECT_EQ(journal.PlanFor(1).splice_offset, 40u);

  journal.Ack(1, 3, 0);
  plan = journal.PlanFor(1);
  EXPECT_TRUE(plan.entries.empty());
  EXPECT_TRUE(plan.replayable);  // an empty tail replays trivially (idle conn)
}

TEST(ReplayJournalTest, SpliceOffsetAccumulatesAcrossRepeatedCrashes) {
  ReplayJournal journal(ReplayJournalConfig{});
  journal.Track(1, UniqueFd());
  journal.Append(1, MakeEntry("/a"));
  journal.Append(1, MakeEntry("/b"));

  // Node 1 flushed 150 bytes of /a's response, then crashed.
  journal.Ack(1, 0, 150);
  EXPECT_EQ(journal.PlanFor(1).splice_offset, 150u);
  journal.NoteReplaySent(1);

  // Node 2 (adopted with splice 150) flushed 70 further bytes, then crashed:
  // the next splice covers everything the client ever saw.
  journal.Ack(1, 0, 70);
  EXPECT_EQ(journal.PlanFor(1).splice_offset, 220u);
  journal.NoteReplaySent(1);

  // Node 3 finishes /a: the delivered-prefix bookkeeping resets with the pop.
  journal.Ack(1, 1, 30);
  ReplayJournal::Plan plan = journal.PlanFor(1);
  ASSERT_EQ(plan.entries.size(), 1u);
  EXPECT_EQ(plan.entries[0].path, "/b");
  EXPECT_EQ(plan.splice_offset, 30u);
}

TEST(ReplayJournalTest, NonIdempotentTailIsNotReplayable) {
  ReplayJournal journal(ReplayJournalConfig{});
  journal.Track(1, UniqueFd());
  journal.Append(1, MakeEntry("/a"));
  journal.Append(1, MakeEntry("/post-target", /*idempotent=*/false));
  journal.Append(1, MakeEntry("/c"));
  EXPECT_FALSE(journal.PlanFor(1).replayable);
  // Once the non-idempotent response is acknowledged the tail is clean again.
  journal.Ack(1, 2, 0);
  EXPECT_TRUE(journal.PlanFor(1).replayable);
}

TEST(ReplayJournalTest, OverflowDropsProtectionButKeepsTheVerdict) {
  ReplayJournalConfig config;
  config.max_entries_per_conn = 2;
  ReplayJournal journal(config);
  journal.Track(1, UniqueFd());
  journal.Append(1, MakeEntry("/a"));
  journal.Append(1, MakeEntry("/b"));
  EXPECT_TRUE(journal.PlanFor(1).replayable);
  journal.Append(1, MakeEntry("/c"));  // over the cap
  ReplayJournal::Plan plan = journal.PlanFor(1);
  EXPECT_TRUE(plan.tracked);
  EXPECT_FALSE(plan.replayable);
  EXPECT_EQ(journal.overflows(), 1u);
  // Rebuild after a cooperative handback must not silently re-arm a journal
  // that has already missed entries.
  journal.Rebuild(1, {MakeEntry("/d")}, "");
  EXPECT_FALSE(journal.PlanFor(1).replayable);
}

TEST(ReplayJournalTest, RebuildRestartsTheJournal) {
  ReplayJournal journal(ReplayJournalConfig{});
  journal.Track(1, UniqueFd());
  journal.Append(1, MakeEntry("/a"));
  journal.Append(1, MakeEntry("/b"));
  journal.Ack(1, 0, 500);
  journal.Rebuild(1, {MakeEntry("/b"), MakeEntry("/c")}, "GET /half");
  ReplayJournal::Plan plan = journal.PlanFor(1);
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_EQ(plan.entries[0].path, "/b");
  EXPECT_EQ(plan.splice_offset, 0u) << "handbacks flush first; no partial survives";
  EXPECT_EQ(plan.partial_tail, "GET /half");
  journal.Drop(1);
  EXPECT_FALSE(journal.PlanFor(1).tracked);
}

TEST(ReplayJournalTest, PartialTailRidesTheReplayAndStaysReplayable) {
  // The serving node's parser buffer (a request's consumed prefix) must ride
  // every replay verbatim: its suffix is still in the client socket, and the
  // adopting node can only reassemble the request from prefix + suffix.
  ReplayJournal journal(ReplayJournalConfig{});
  journal.Track(1, UniqueFd());
  journal.Append(1, MakeEntry("/a"));
  journal.SetPartialTail(1, "GET /torn-prefix HTTP/1.1\r\nHo");
  ReplayJournal::Plan plan = journal.PlanFor(1);
  EXPECT_TRUE(plan.replayable) << "an unreceived request cannot have executed";
  EXPECT_EQ(plan.partial_tail, "GET /torn-prefix HTTP/1.1\r\nHo");
  // The buffer drained into a complete (appended) request: the tail report
  // replaces the stored prefix with the new (empty) buffer.
  journal.SetPartialTail(1, "");
  journal.Append(1, MakeEntry("/torn-prefix"));
  plan = journal.PlanFor(1);
  EXPECT_TRUE(plan.partial_tail.empty());
  ASSERT_EQ(plan.entries.size(), 2u);
  EXPECT_EQ(plan.entries[1].path, "/torn-prefix");
}

TEST(ReplayWireTest, JournalTailRoundTrip) {
  JournalTailMsg msg;
  msg.conn_id = 77;
  msg.buffered = "GET /page HTT";
  JournalTailMsg decoded;
  ASSERT_TRUE(DecodeJournalTail(EncodeJournalTail(msg), &decoded));
  EXPECT_EQ(decoded.conn_id, 77u);
  EXPECT_EQ(decoded.buffered, "GET /page HTT");
  const std::string encoded = EncodeJournalTail(msg);
  for (size_t len = 0; len < encoded.size(); ++len) {
    JournalTailMsg truncated;
    EXPECT_FALSE(DecodeJournalTail(std::string_view(encoded.data(), len), &truncated));
  }
}

// ---------------------------------------------------------------------------
// End-to-end crash replay
// ---------------------------------------------------------------------------

Trace TestTrace(uint64_t seed = 42, int sessions = 300) {
  SyntheticTraceConfig config;
  config.seed = seed;
  config.num_pages = 60;
  config.num_sessions = sessions;
  config.num_clients = 16;
  config.max_size_bytes = 32 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterConfig CrashConfig(int nodes) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  // Cold targets cost ~8ms each: a kill right after a pipelined batch lands
  // reliably catches requests in flight.
  config.disk_time_scale = 0.3;
  config.heartbeat_timeout_ms = 400;
  config.retire_grace_ms = 1500;
  return config;
}

void SetRecvTimeout(int fd, int64_t ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

// Reads until `count` responses parsed, EOF, timeout or parse error.
// Returns false on parse error (corrupt byte stream — the cardinal sin).
bool ReadResponses(int fd, size_t count, std::vector<HttpResponse>* responses) {
  ResponseParser parser;
  char buf[16384];
  while (responses->size() < count) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      return true;  // EOF/timeout: caller inspects what arrived
    }
    if (parser.Feed(std::string_view(buf, static_cast<size_t>(n)), responses) ==
        ResponseParser::State::kError) {
      return false;
    }
  }
  return true;
}

const std::string* FindHeader(const HttpResponse& response, const std::string& name) {
  return response.headers.Find(name);
}

TEST(ProtoReplayTest, CrashMidPipelineReplaysIdempotentTailOnSameConnection) {
  const Trace trace = TestTrace(7);
  ClusterConfig config = CrashConfig(3);
  config.trace_sample_every = 1;  // the replay spans are asserted on below
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  SetRecvTimeout(fd.value().get(), 8000);

  // Warm-up round trip pins the connection and reveals the handling node.
  {
    const std::string request =
        "GET " + trace.catalog().Get(0).path + " HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_EQ(::send(fd.value().get(), request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
  }
  std::vector<HttpResponse> responses;
  ASSERT_TRUE(ReadResponses(fd.value().get(), 1, &responses));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  const std::string* server = FindHeader(responses[0], "Server");
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(server->rfind("lard-be", 0), 0u) << *server;
  const NodeId handling = static_cast<NodeId>(std::stol(server->substr(7)));

  // A pipelined batch of cold targets (~8ms of disk each), then kill the
  // handling node while most of it is in flight.
  constexpr size_t kBatch = 12;
  std::string batch;
  for (size_t i = 0; i < kBatch; ++i) {
    batch += "GET " + trace.catalog().Get(i + 1).path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  ASSERT_EQ(::send(fd.value().get(), batch.data(), batch.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(batch.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  ASSERT_TRUE(cluster.KillNode(handling));

  // Every response of the batch still arrives on the *same* socket — the
  // un-flushed tail re-served by a survivor, byte-consistently enough for a
  // strict parser, each body verified against the catalog.
  responses.clear();
  ASSERT_TRUE(ReadResponses(fd.value().get(), kBatch, &responses))
      << "corrupt byte stream after the crash splice";
  ASSERT_EQ(responses.size(), kBatch) << "responses lost with the crashed node";
  for (size_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(responses[i].status, 200) << "response " << i;
    EXPECT_EQ(responses[i].body.size(), trace.catalog().Get(i + 1).size_bytes)
        << "response " << i;
  }

  // The connection keeps working after recovery.
  {
    const std::string request =
        "GET " + trace.catalog().Get(20).path + " HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_EQ(::send(fd.value().get(), request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    responses.clear();
    ASSERT_TRUE(ReadResponses(fd.value().get(), 1, &responses));
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, 200);
    const std::string* survivor = FindHeader(responses[0], "Server");
    ASSERT_NE(survivor, nullptr);
    EXPECT_NE(*survivor, "lard-be" + std::to_string(handling))
        << "post-crash serving node must be a survivor";
  }

  const ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_GE(snapshot.replays, 1u) << "the crash must have triggered a journal replay";
  EXPECT_GE(snapshot.replays_adopted, 1u);
  EXPECT_EQ(snapshot.replay_giveups, 0u);
  EXPECT_EQ(snapshot.replays,
            cluster.frontend().dispatcher().counters().failure_reassignments)
      << "FE replays and dispatcher failure reassignments are the same events";

  // The crash left a causal trail in the tracer: the journaled requests, the
  // replay onto the survivor, and the survivor's kReplay adoption.
  const std::string traces = cluster.tracer()->RenderJson();
  EXPECT_NE(traces.find("\"kind\":\"journal\""), std::string::npos)
      << "journal appends left no spans";
  EXPECT_NE(traces.find("\"kind\":\"replay\""), std::string::npos)
      << "the crash replay left no spans";
  cluster.Stop();
}

TEST(ProtoReplayTest, NonIdempotentTailGivesUpCleanlyNeverSplices) {
  const Trace trace = TestTrace(11);
  ClusterConfig config = CrashConfig(2);
  // Paper-faithful disk latency (~28 ms per cold read): the long batch below
  // takes over a second to serve, so the kill reliably lands while the POST
  // deep in the pipeline is still unacknowledged — even on a sanitizer-slowed
  // machine.
  config.disk_time_scale = 1.0;
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  SetRecvTimeout(fd.value().get(), 5000);

  // Pin the connection and learn its node.
  std::string request = "GET " + trace.catalog().Get(0).path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd.value().get(), request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::vector<HttpResponse> responses;
  ASSERT_TRUE(ReadResponses(fd.value().get(), 1, &responses));
  ASSERT_EQ(responses.size(), 1u);
  const std::string* server = FindHeader(responses[0], "Server");
  ASSERT_NE(server, nullptr);
  const NodeId handling = static_cast<NodeId>(std::stol(server->substr(7)));

  // A long pipelined batch of cold targets with a POST deep inside: at crash
  // time the unacknowledged tail contains the non-idempotent request, so
  // replay must refuse and fail the client cleanly.
  constexpr size_t kBatch = 40;
  constexpr size_t kPostIndex = 30;
  std::string batch;
  for (size_t i = 0; i < kBatch; ++i) {
    const std::string& path = trace.catalog().Get(1 + i % 50).path;
    if (i == kPostIndex) {
      batch += "POST " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
    } else {
      batch += "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
    }
  }
  ASSERT_EQ(::send(fd.value().get(), batch.data(), batch.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(batch.size()));
  // Wait for the first few responses before killing: that proves the node
  // *received and parsed* the whole pipeline (including the POST — now in
  // the journal's unacknowledged tail). A kill before the node ever read the
  // batch would leave the POST unreceived in the socket buffer, and the
  // replay would — correctly — be fully transparent.
  responses.clear();
  ASSERT_TRUE(ReadResponses(fd.value().get(), 3, &responses));
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(cluster.KillNode(handling));

  // The client must see only well-formed responses followed by a clean
  // 502 or a close — never a corrupt stream.
  EXPECT_TRUE(ReadResponses(fd.value().get(), kBatch, &responses))
      << "corrupt byte stream: a spliced half-response leaked";
  for (const HttpResponse& response : responses) {
    EXPECT_TRUE(response.status == 200 || response.status == 502)
        << "unexpected status " << response.status;
  }
  EXPECT_LT(responses.size(), kBatch) << "a non-idempotent tail must not be replayed";

  // Generous deadline: sanitizer builds slow detection down considerably.
  ASSERT_TRUE([&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
      if (cluster.Snapshot().replay_giveups >= 1) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }()) << "the crash must have been counted as a replay giveup";
  EXPECT_EQ(cluster.Snapshot().replays_adopted, 0u);
  cluster.Stop();
}

TEST(ProtoReplayTest, ReplayDisabledFallsBackToLegacyLoss) {
  const Trace trace = TestTrace(13);
  ClusterConfig config = CrashConfig(2);
  config.replay_enabled = false;
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  SetRecvTimeout(fd.value().get(), 1500);
  const std::string request =
      "GET " + trace.catalog().Get(0).path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd.value().get(), request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::vector<HttpResponse> responses;
  ASSERT_TRUE(ReadResponses(fd.value().get(), 1, &responses));
  ASSERT_EQ(responses.size(), 1u);
  const std::string* server = FindHeader(responses[0], "Server");
  ASSERT_NE(server, nullptr);
  const NodeId handling = static_cast<NodeId>(std::stol(server->substr(7)));

  const std::string next =
      "GET " + trace.catalog().Get(5).path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd.value().get(), next.data(), next.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(next.size()));
  ASSERT_TRUE(cluster.KillNode(handling));
  responses.clear();
  ASSERT_TRUE(ReadResponses(fd.value().get(), 1, &responses));
  EXPECT_TRUE(responses.empty()) << "with replay disabled the request dies with the node";
  EXPECT_EQ(cluster.Snapshot().replays, 0u);
  cluster.Stop();
}

// ---------------------------------------------------------------------------
// The simulator twin
// ---------------------------------------------------------------------------

TEST(SimReplayTest, FailureReplayInvariantLostEqualsNonIdempotent) {
  const Trace trace = TestTrace(23, 600);
  ClusterSimConfig config;
  config.num_nodes = 4;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.concurrent_sessions_per_node = 16;
  config.failure_replay = true;
  config.non_idempotent_fraction = 0.2;
  config.membership_events = {{150000, MembershipAction::kNodeFailure, 1},
                              {400000, MembershipAction::kNodeFailure, 2}};
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();

  EXPECT_EQ(metrics.nodes_failed, 2u);
  EXPECT_GT(metrics.replayed_connections, 0u);
  EXPECT_GT(metrics.replayed_requests, 0u);
  // The shared sim/prototype invariant: exactly the non-idempotent in-flight
  // requests are lost; every idempotent one is replayed.
  EXPECT_EQ(metrics.lost_requests, metrics.non_idempotent_in_flight);
  EXPECT_EQ(metrics.replay_unplaceable, 0u);
  // Replayed connections continue (no legacy reconnect failovers).
  EXPECT_EQ(metrics.failovers, 0u);
  EXPECT_EQ(metrics.replayed_connections, metrics.dispatcher.failure_reassignments);
  // All requests were issued exactly once from the trace's point of view.
  EXPECT_EQ(metrics.total_requests, trace.total_requests());
}

TEST(SimReplayTest, PureIdempotentWorkloadLosesNothing) {
  const Trace trace = TestTrace(29, 400);
  ClusterSimConfig config;
  config.num_nodes = 3;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.concurrent_sessions_per_node = 16;
  config.failure_replay = true;
  config.non_idempotent_fraction = 0.0;
  config.membership_events = {{200000, MembershipAction::kNodeFailure, 1}};
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.lost_requests, 0u);
  EXPECT_EQ(metrics.non_idempotent_in_flight, 0u);
  EXPECT_GT(metrics.replayed_connections, 0u);
  EXPECT_EQ(metrics.failovers, 0u);
}

TEST(SimReplayTest, LegacyModeIsUnchanged) {
  // With failure_replay off the old semantics hold: in-flight work completes
  // and orphaned sessions reconnect (failovers), nothing replayed or lost.
  const Trace trace = TestTrace(31, 300);
  ClusterSimConfig config;
  config.num_nodes = 3;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.concurrent_sessions_per_node = 16;
  config.membership_events = {{200000, MembershipAction::kNodeFailure, 1}};
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();
  EXPECT_GT(metrics.failovers, 0u);
  EXPECT_EQ(metrics.replayed_requests, 0u);
  EXPECT_EQ(metrics.lost_requests, 0u);
  EXPECT_EQ(metrics.replayed_connections, 0u);
}

}  // namespace
}  // namespace lard
