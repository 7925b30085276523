#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/proto/content_store.h"
#include "src/proto/control_protocol.h"
#include "src/proto/wire.h"

namespace lard {
namespace {

// The body a client should see for a document: the store's one definition
// of a body's bytes, materialized.
std::string ExpectedBody(const std::string& path, uint64_t size_bytes) {
  return ContentStore::ExpectedParts(path, size_bytes).Materialize();
}

// --- WireWriter / WireReader ---

TEST(WireTest, ScalarsRoundTrip) {
  WireWriter writer;
  writer.U8(7);
  writer.U32(0xdeadbeef);
  writer.U64(0x0123456789abcdefull);
  writer.Str("hello");

  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.U8(), 7);
  EXPECT_EQ(reader.U32(), 0xdeadbeefu);
  EXPECT_EQ(reader.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.Str(), "hello");
  EXPECT_TRUE(reader.Complete());
}

TEST(WireTest, EmptyStringRoundTrips) {
  WireWriter writer;
  writer.Str("");
  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.Str(), "");
  EXPECT_TRUE(reader.Complete());
}

TEST(WireTest, TruncatedReadFails) {
  WireWriter writer;
  writer.U64(42);
  WireReader reader(std::string_view(writer.bytes()).substr(0, 5));
  reader.U64();
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.Complete());
}

TEST(WireTest, TrailingBytesMeanIncomplete) {
  WireWriter writer;
  writer.U8(1);
  writer.U8(2);
  WireReader reader(writer.bytes());
  reader.U8();
  EXPECT_TRUE(reader.ok());
  EXPECT_FALSE(reader.Complete());
}

TEST(WireTest, BadStringLengthFailsCleanly) {
  WireWriter writer;
  writer.U32(1000);  // claims 1000 bytes, provides none
  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.Str(), "");
  EXPECT_FALSE(reader.ok());
}

// --- Control protocol messages ---

TEST(ControlProtocolTest, HandoffRoundTrips) {
  HandoffMsg msg;
  msg.conn_id = 0x1122334455667788ull;
  msg.autonomous = true;
  RequestDirective local;
  local.path = "/a.html";
  msg.directives.push_back(local);
  RequestDirective lateral;
  lateral.action = DirectiveAction::kLateral;
  lateral.path = "/__be2/b.gif";
  lateral.cache_after_miss = false;
  msg.directives.push_back(lateral);
  RequestDirective migrate;
  migrate.action = DirectiveAction::kMigrate;
  migrate.node = 3;
  migrate.path = "/c.html";
  msg.directives.push_back(migrate);
  msg.unparsed_input = "GET /partial HTT";

  HandoffMsg decoded;
  ASSERT_TRUE(DecodeHandoff(EncodeHandoff(msg), &decoded));
  EXPECT_EQ(decoded.conn_id, msg.conn_id);
  EXPECT_EQ(decoded.autonomous, true);
  ASSERT_EQ(decoded.directives.size(), 3u);
  EXPECT_EQ(decoded.directives[0].action, DirectiveAction::kLocal);
  EXPECT_EQ(decoded.directives[0].path, "/a.html");
  EXPECT_TRUE(decoded.directives[0].cache_after_miss);
  EXPECT_EQ(decoded.directives[1].action, DirectiveAction::kLateral);
  EXPECT_EQ(decoded.directives[1].path, "/__be2/b.gif");
  EXPECT_FALSE(decoded.directives[1].cache_after_miss);
  EXPECT_EQ(decoded.directives[2].action, DirectiveAction::kMigrate);
  EXPECT_EQ(decoded.directives[2].node, 3);
  EXPECT_EQ(decoded.unparsed_input, "GET /partial HTT");
}

TEST(ControlProtocolTest, ConsultRoundTrips) {
  ConsultMsg msg;
  msg.conn_id = 99;
  msg.disk_queue_len = 7;
  msg.paths = {"/x", "/y", "/z"};
  ConsultMsg decoded;
  ASSERT_TRUE(DecodeConsult(EncodeConsult(msg), &decoded));
  EXPECT_EQ(decoded.conn_id, 99u);
  EXPECT_EQ(decoded.disk_queue_len, 7u);
  EXPECT_EQ(decoded.paths, msg.paths);
}

TEST(ControlProtocolTest, AssignmentsRoundTrips) {
  AssignmentsMsg msg;
  msg.conn_id = 3;
  RequestDirective directive;
  directive.path = "/p";
  directive.cache_after_miss = false;
  msg.directives.push_back(directive);
  AssignmentsMsg decoded;
  ASSERT_TRUE(DecodeAssignments(EncodeAssignments(msg), &decoded));
  EXPECT_EQ(decoded.conn_id, 3u);
  ASSERT_EQ(decoded.directives.size(), 1u);
  EXPECT_FALSE(decoded.directives[0].cache_after_miss);
}

TEST(ControlProtocolTest, HandbackRoundTrips) {
  HandbackMsg msg;
  msg.conn_id = 77;
  msg.target_node = 2;
  RequestDirective first;
  first.path = "/moved.html";
  msg.directives.push_back(first);
  msg.replay_input = "GET /moved.html HTTP/1.1\r\n\r\nGET /nex";
  HandbackMsg decoded;
  ASSERT_TRUE(DecodeHandback(EncodeHandback(msg), &decoded));
  EXPECT_EQ(decoded.conn_id, 77u);
  EXPECT_EQ(decoded.target_node, 2);
  ASSERT_EQ(decoded.directives.size(), 1u);
  EXPECT_EQ(decoded.directives[0].path, "/moved.html");
  EXPECT_EQ(decoded.replay_input, msg.replay_input);
}

TEST(ControlProtocolTest, GivebackHandbackRoundTripsInvalidTarget) {
  // The drain/retire giveback flavour: target kInvalidNode (the front-end
  // reassigns), empty directives, just the fd's unconsumed parser bytes.
  HandbackMsg msg;
  msg.conn_id = 91;
  msg.target_node = kInvalidNode;
  msg.replay_input = "GET /half-a-req";
  HandbackMsg decoded;
  decoded.target_node = 5;  // must be overwritten
  ASSERT_TRUE(DecodeHandback(EncodeHandback(msg), &decoded));
  EXPECT_EQ(decoded.conn_id, 91u);
  EXPECT_EQ(decoded.target_node, kInvalidNode);
  EXPECT_TRUE(decoded.directives.empty());
  EXPECT_EQ(decoded.replay_input, "GET /half-a-req");
}

TEST(ControlProtocolTest, GivebackHandbackCarriesPendingDirectives) {
  // A giveback can still carry batch-1 directives waiting on a partial
  // request; they must survive the trip untouched.
  HandbackMsg msg;
  msg.conn_id = 7;
  msg.target_node = kInvalidNode;
  RequestDirective pending;
  pending.action = DirectiveAction::kLateral;
  pending.node = 3;
  pending.path = "/__be3/shared.html";
  pending.cache_after_miss = false;
  msg.directives.push_back(pending);
  HandbackMsg decoded;
  ASSERT_TRUE(DecodeHandback(EncodeHandback(msg), &decoded));
  ASSERT_EQ(decoded.directives.size(), 1u);
  EXPECT_EQ(decoded.directives[0].action, DirectiveAction::kLateral);
  EXPECT_EQ(decoded.directives[0].node, 3);
  EXPECT_EQ(decoded.directives[0].path, "/__be3/shared.html");
  EXPECT_FALSE(decoded.directives[0].cache_after_miss);
}

TEST(ControlProtocolTest, DrainPayloadScalarRoundTrips) {
  // kDrain carries a reserved u32 flags word; today it is always zero.
  uint32_t flags = 0xdeadbeef;
  ASSERT_TRUE(DecodeU32(EncodeU32(0), &flags));
  EXPECT_EQ(flags, 0u);
  // A truncated payload fails cleanly (the back-end drains regardless but
  // must not read past the buffer).
  EXPECT_FALSE(DecodeU32(std::string_view("\x01", 1), &flags));
}

TEST(ControlProtocolTest, DecodeRejectsBadDirectiveAction) {
  HandoffMsg msg;
  msg.conn_id = 1;
  RequestDirective directive;
  directive.path = "/a";
  msg.directives.push_back(directive);
  std::string encoded = EncodeHandoff(msg);
  // Corrupt the action byte (first byte after conn_id u64 + autonomous u8 +
  // count u32).
  encoded[8 + 1 + 4] = 9;
  HandoffMsg decoded;
  EXPECT_FALSE(DecodeHandoff(encoded, &decoded));
}

TEST(ControlProtocolTest, ScalarsRoundTrip) {
  uint64_t v64 = 0;
  ASSERT_TRUE(DecodeU64(EncodeU64(12345678901234ull), &v64));
  EXPECT_EQ(v64, 12345678901234ull);
  uint32_t v32 = 0;
  ASSERT_TRUE(DecodeU32(EncodeU32(77), &v32));
  EXPECT_EQ(v32, 77u);
}

TEST(ControlProtocolTest, DecodeRejectsTruncation) {
  HandoffMsg msg;
  msg.conn_id = 1;
  RequestDirective directive;
  directive.path = "/a";
  msg.directives.push_back(directive);
  const std::string encoded = EncodeHandoff(msg);
  HandoffMsg decoded;
  EXPECT_FALSE(DecodeHandoff(std::string_view(encoded).substr(0, encoded.size() - 3), &decoded));
  uint64_t v = 0;
  EXPECT_FALSE(DecodeU64("abc", &v));
}

// --- Node status (kNodeStatus): liveness, load feedback, telemetry row ---

TEST(NodeStatusCodecTest, RoundTripPreservesEveryField) {
  NodeStatusMsg msg;
  msg.seq = 0x1122334455667788ull;
  msg.t_ms = 1234567890123ll;
  msg.disk_queue_len = 0xffffffffu;
  msg.open_conns = 42;
  msg.samples.push_back({"request_rate", 1234.5});
  msg.samples.push_back({"hit_ratio", 0.875});
  msg.samples.push_back({"latency_p99_us", -0.0});
  msg.samples.push_back({"", 3.5e300});  // empty name and extreme magnitude

  NodeStatusMsg decoded;
  ASSERT_TRUE(DecodeNodeStatus(EncodeNodeStatus(msg), &decoded));
  EXPECT_EQ(decoded.seq, msg.seq);
  EXPECT_EQ(decoded.t_ms, msg.t_ms);
  EXPECT_EQ(decoded.disk_queue_len, msg.disk_queue_len);
  EXPECT_EQ(decoded.open_conns, msg.open_conns);
  ASSERT_EQ(decoded.samples.size(), msg.samples.size());
  for (size_t i = 0; i < msg.samples.size(); ++i) {
    EXPECT_EQ(decoded.samples[i].name, msg.samples[i].name) << i;
    EXPECT_DOUBLE_EQ(decoded.samples[i].value, msg.samples[i].value) << i;
  }
}

TEST(NodeStatusCodecTest, EmptySampleRowRoundTrips) {
  // The 100 ms liveness frame: fixed fields only.
  NodeStatusMsg msg;
  msg.seq = 7;
  msg.t_ms = 42;
  msg.disk_queue_len = 3;
  msg.open_conns = 5;
  NodeStatusMsg decoded;
  decoded.samples.push_back({"stale", 1.0});  // decode must clear it
  ASSERT_TRUE(DecodeNodeStatus(EncodeNodeStatus(msg), &decoded));
  EXPECT_EQ(decoded.seq, 7u);
  EXPECT_EQ(decoded.t_ms, 42);
  EXPECT_EQ(decoded.disk_queue_len, 3u);
  EXPECT_EQ(decoded.open_conns, 5u);
  EXPECT_TRUE(decoded.samples.empty());
}

TEST(NodeStatusCodecTest, EveryStrictPrefixIsRejected) {
  NodeStatusMsg msg;
  msg.seq = 99;
  msg.t_ms = 1000;
  msg.disk_queue_len = 2;
  msg.open_conns = 4;
  msg.samples.push_back({"request_rate", 10.0});
  msg.samples.push_back({"lateral_rate", 2.0});
  const std::string encoded = EncodeNodeStatus(msg);
  for (size_t len = 0; len < encoded.size(); ++len) {
    NodeStatusMsg decoded;
    EXPECT_FALSE(DecodeNodeStatus(std::string_view(encoded).substr(0, len), &decoded))
        << "prefix of length " << len << " decoded";
  }
}

TEST(NodeStatusCodecTest, GarbageAndSampleCountBombAreRejected) {
  NodeStatusMsg decoded;
  EXPECT_FALSE(DecodeNodeStatus("not a node status frame at all", &decoded));
  // A frame whose sample count claims more rows than the payload could hold
  // must be rejected by the bound check, not allocated.
  std::string bomb(24, '\0');  // seq + t_ms + disk queue + open conns
  bomb += std::string("\xff\xff\xff\xff", 4);  // sample count
  EXPECT_FALSE(DecodeNodeStatus(bomb, &decoded));
  EXPECT_TRUE(decoded.samples.empty());
}

// --- Decoder robustness: truncations and garbage against every decoder ---

// Valid encodings of every control message, used as truncation baselines.
std::vector<std::string> ValidEncodings() {
  HandoffMsg handoff;
  handoff.conn_id = 7;
  RequestDirective directive;
  directive.action = DirectiveAction::kLateral;
  directive.path = "/__be1/x.html";
  handoff.directives = {directive, directive};
  handoff.unparsed_input = "GET /tail";

  HandbackMsg handback;
  handback.conn_id = 8;
  handback.target_node = 1;
  handback.directives = {directive};
  handback.replay_input = "GET /y HTTP/1.1\r\n\r\n";

  ConsultMsg consult;
  consult.conn_id = 9;
  consult.disk_queue_len = 3;
  consult.paths = {"/a", "/b", "/c"};

  AssignmentsMsg assignments;
  assignments.conn_id = 10;
  assignments.directives = {directive};

  NodeStatusMsg status;
  status.seq = 11;
  status.disk_queue_len = 2;
  status.samples = {{"request_rate", 5.0}};

  return {EncodeHandoff(handoff), EncodeHandback(handback),   EncodeConsult(consult),
          EncodeAssignments(assignments), EncodeNodeStatus(status), EncodeU64(12),
          EncodeU32(13)};
}

// Runs every decoder over `payload`; none may crash, over-read, or report
// success-plus-garbage for inputs the encoders cannot produce.
void DecodeWithAll(std::string_view payload) {
  HandoffMsg handoff;
  (void)DecodeHandoff(payload, &handoff);
  HandbackMsg handback;
  (void)DecodeHandback(payload, &handback);
  ConsultMsg consult;
  (void)DecodeConsult(payload, &consult);
  AssignmentsMsg assignments;
  (void)DecodeAssignments(payload, &assignments);
  NodeStatusMsg status;
  (void)DecodeNodeStatus(payload, &status);
  uint64_t v64;
  (void)DecodeU64(payload, &v64);
  uint32_t v32;
  (void)DecodeU32(payload, &v32);
}

TEST(ControlProtocolRobustnessTest, EveryPrefixOfEveryMessageFailsCleanly) {
  const std::vector<std::string> encodings = ValidEncodings();
  for (size_t msg = 0; msg < encodings.size(); ++msg) {
    const std::string& encoded = encodings[msg];
    for (size_t len = 0; len < encoded.size(); ++len) {
      const std::string_view prefix(encoded.data(), len);
      // A strict prefix of message type T must never decode as T (all our
      // messages have fixed trailing fields, so Complete() cannot hold).
      DecodeWithAll(prefix);
      if (msg == 0) {
        HandoffMsg handoff;
        EXPECT_FALSE(DecodeHandoff(prefix, &handoff)) << "prefix length " << len;
      }
      if (msg == 2) {
        ConsultMsg consult;
        EXPECT_FALSE(DecodeConsult(prefix, &consult)) << "prefix length " << len;
      }
    }
  }
}

TEST(ControlProtocolRobustnessTest, DeterministicGarbageNeverCrashes) {
  // xorshift-ish deterministic byte soup, many lengths, all decoders.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next_byte = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<char>(state & 0xff);
  };
  for (int round = 0; round < 200; ++round) {
    std::string garbage;
    const size_t len = (round * 7) % 96;
    garbage.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(next_byte());
    }
    DecodeWithAll(garbage);
  }
}

TEST(ControlProtocolRobustnessTest, HugeDeclaredCountsFailFast) {
  // A handoff whose directive count claims 2^20-1 entries but carries no
  // bytes must fail before reserving gigabytes.
  WireWriter writer;
  writer.U64(1);                  // conn_id
  writer.U8(0);                   // autonomous
  writer.U32((1u << 20) - 1);     // directive count, no directive bytes
  HandoffMsg handoff;
  EXPECT_FALSE(DecodeHandoff(writer.bytes(), &handoff));
  EXPECT_TRUE(handoff.directives.empty());

  WireWriter consult_writer;
  consult_writer.U64(1);          // conn_id
  consult_writer.U32(0);          // disk queue
  consult_writer.U32(0xffffffff); // path count
  ConsultMsg consult;
  EXPECT_FALSE(DecodeConsult(consult_writer.bytes(), &consult));
  EXPECT_TRUE(consult.paths.empty());
}

TEST(ControlProtocolRobustnessTest, FlippedBytesNeverDecodeOutOfRangeActions) {
  // Flip each byte of a valid handoff in turn: decode either fails or yields
  // only in-range directive actions (the decoders' validation contract).
  HandoffMsg msg;
  msg.conn_id = 5;
  RequestDirective directive;
  directive.path = "/p.html";
  msg.directives = {directive};
  const std::string encoded = EncodeHandoff(msg);
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string mutated = encoded;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    HandoffMsg decoded;
    if (DecodeHandoff(mutated, &decoded)) {
      for (const RequestDirective& d : decoded.directives) {
        EXPECT_LE(static_cast<uint8_t>(d.action),
                  static_cast<uint8_t>(DirectiveAction::kMigrate));
      }
    }
  }
}

TEST(ControlProtocolRobustnessTest, TrailingJunkIsRejected) {
  // Each decoder must reject its own valid encoding with a byte appended
  // (framing guarantees exact payloads; Complete() enforces it).
  const std::vector<std::string> encodings = ValidEncodings();
  HandoffMsg handoff;
  EXPECT_FALSE(DecodeHandoff(encodings[0] + "!", &handoff));
  HandbackMsg handback;
  EXPECT_FALSE(DecodeHandback(encodings[1] + "!", &handback));
  ConsultMsg consult;
  EXPECT_FALSE(DecodeConsult(encodings[2] + "!", &consult));
  AssignmentsMsg assignments;
  EXPECT_FALSE(DecodeAssignments(encodings[3] + "!", &assignments));
  NodeStatusMsg status;
  EXPECT_FALSE(DecodeNodeStatus(encodings[4] + "!", &status));
  uint64_t v64;
  EXPECT_FALSE(DecodeU64(encodings[5] + "!", &v64));
  uint32_t v32;
  EXPECT_FALSE(DecodeU32(encodings[6] + "!", &v32));
}

// --- ContentStore ---

TEST(ContentStoreTest, BodyMatchesExpectedHelper) {
  TargetCatalog catalog;
  const TargetId id = catalog.Intern("/page1/index.html", 4096);
  ContentStore store(&catalog);
  const std::string body = store.BodyFor(id);
  EXPECT_EQ(body.size(), 4096u);
  EXPECT_EQ(body, ExpectedBody("/page1/index.html", 4096));
  // Header prefix embeds path and size.
  EXPECT_EQ(body.rfind("/page1/index.html#4096#", 0), 0u);
}

TEST(ContentStoreTest, DifferentPathsDifferentBodies) {
  EXPECT_NE(ExpectedBody("/a", 256), ExpectedBody("/b", 256));
}

TEST(ContentStoreTest, TinyBodyTruncatesHeader) {
  const std::string body = ExpectedBody("/long/path/name.html", 4);
  EXPECT_EQ(body.size(), 4u);
  EXPECT_EQ(body, "/lon");
}

TEST(ContentStoreTest, ZeroSizeBody) {
  EXPECT_TRUE(ExpectedBody("/x", 0).empty());
}

// The body definition written out byte by byte, independent of the slab:
// after the "<path>#<size>#" prefix, byte i is kFill[(i + rot) % 64] with
// rot = FNV-1a(path) % 64.
constexpr char kReferenceFill[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/";

uint64_t ReferenceRotation(const std::string& path) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : path) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h % 64;
}

std::string ReferenceBody(const std::string& path, uint64_t size) {
  std::string body = path + "#" + std::to_string(size) + "#";
  if (body.size() > size) {
    body.resize(size);
  }
  const uint64_t rot = ReferenceRotation(path);
  for (size_t i = body.size(); i < size; ++i) {
    body.push_back(kReferenceFill[(i + rot) % 64]);
  }
  return body;
}

// What the serve path puts on the wire: the prefix, then each slab view.
std::string JoinParts(const BodyParts& parts) {
  std::string out = parts.prefix;
  parts.ForEachFillView([&out](std::string_view view) {
    EXPECT_FALSE(view.empty());
    EXPECT_LE(view.size(), BodyParts::kMaxView);
    out.append(view);
  });
  return out;
}

TEST(ContentStoreTest, SlabViewsMatchTheReferenceAtEverySize) {
  const std::string path = "/page7/index.html";
  // The size whose body is exactly its own "<path>#<size>#" prefix.
  uint64_t exact = 0;
  for (uint64_t size = 1; size < 100; ++size) {
    if ((path + "#" + std::to_string(size) + "#").size() == size) {
      exact = size;
    }
  }
  ASSERT_GT(exact, 0u);
  const uint64_t k64 = BodyParts::kMaxView;
  for (const uint64_t size : {uint64_t{0}, uint64_t{1}, exact - 7, exact, exact + 1, k64 - 1, k64,
                              k64 + 1, (uint64_t{1} << 20) + 7}) {
    const std::string reference = ReferenceBody(path, size);
    const BodyParts parts = ContentStore::ExpectedParts(path, size);
    EXPECT_EQ(parts.size(), size);
    EXPECT_EQ(JoinParts(parts), reference) << "size " << size;
    EXPECT_EQ(ExpectedBody(path, size), reference) << "size " << size;
  }
}

TEST(ContentStoreTest, AllSixtyFourRotationsMatchTheReference) {
  std::set<uint64_t> rotations;
  for (int i = 0; rotations.size() < 64 && i < 100000; ++i) {
    const std::string path = "/doc" + std::to_string(i);
    if (!rotations.insert(ReferenceRotation(path)).second) {
      continue;
    }
    for (const uint64_t size : {uint64_t{200}, uint64_t{BodyParts::kMaxView} + 33}) {
      EXPECT_EQ(JoinParts(ContentStore::ExpectedParts(path, size)), ReferenceBody(path, size))
          << path << " size " << size;
    }
  }
  EXPECT_EQ(rotations.size(), 64u);
}

TEST(ContentStoreTest, EveryBodyBorrowsTheSameStaticSlab) {
  TargetCatalog catalog;
  const TargetId a = catalog.Intern("/a.html", 300000);
  const TargetId b = catalog.Intern("/some/other/document.bin", 5000);
  ContentStore store(&catalog);
  const BodyParts parts_a = store.PartsFor(a);
  const BodyParts parts_b = store.PartsFor(b);
  EXPECT_EQ(JoinParts(parts_a), store.BodyFor(a));
  EXPECT_EQ(JoinParts(parts_b), store.BodyFor(b));
  // Both views start within one pattern period of each other: one shared
  // slab, nothing built per body.
  const auto distance = parts_a.fill.data() > parts_b.fill.data()
                            ? parts_a.fill.data() - parts_b.fill.data()
                            : parts_b.fill.data() - parts_a.fill.data();
  EXPECT_LT(distance, 64);
  // Every fill view of a body is the same bytes: the period divides kMaxView.
  std::set<const char*> starts;
  parts_a.ForEachFillView([&starts](std::string_view view) { starts.insert(view.data()); });
  EXPECT_EQ(starts.size(), 1u);
}

TEST(ContentStoreTest, OwnedBodyIsAllPrefix) {
  const BodyParts parts = BodyParts::Owned("not found\n");
  EXPECT_EQ(parts.size(), 10u);
  EXPECT_EQ(JoinParts(parts), "not found\n");
  EXPECT_EQ(parts.Materialize(), "not found\n");
}

TEST(ContentStoreTest, ResolveFindsAndMisses) {
  TargetCatalog catalog;
  catalog.Intern("/exists", 10);
  ContentStore store(&catalog);
  EXPECT_NE(store.Resolve("/exists"), kInvalidTarget);
  EXPECT_EQ(store.Resolve("/missing"), kInvalidTarget);
}

}  // namespace
}  // namespace lard
