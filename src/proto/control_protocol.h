// Control-session protocol between the prototype front-end and back-ends
// (Section 7.1): the user-space analogue of the paper's handoff-protocol
// control connection. Carries connection handoffs (with the client socket fd
// attached — our TCP handoff), dispatcher consults and tagged-request
// replies, idle/close notifications, and each back-end's periodic node
// status: liveness, disk queue length, open connections and telemetry rows,
// all in one frame.
#ifndef SRC_PROTO_CONTROL_PROTOCOL_H_
#define SRC_PROTO_CONTROL_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/cluster_types.h"
#include "src/proto/wire.h"

namespace lard {

enum class ControlMsg : uint8_t {
  // FE -> BE. fd attached: the client socket. Payload: HandoffMsg.
  kHandoff = 1,
  // BE -> FE. Payload: ConsultMsg — the next pipelined batch of requests on
  // a handed-off connection (the analogue of the forwarding module's request
  // packet copies reaching the dispatcher).
  kConsult = 2,
  // FE -> BE. Payload: AssignmentsMsg — the dispatcher's tagged requests.
  kAssignments = 3,
  // BE -> FE. Payload: u64 conn_id. All responses flushed; connection idle.
  kIdle = 4,
  // BE -> FE. Payload: u64 conn_id. Client connection closed.
  kConnClosed = 5,
  // BE -> FE. Payload: NodeStatusMsg. The node's periodic status, broadcast
  // to every attached front-end: its arrival is the liveness signal (a node
  // silent past the front-end's heartbeat timeout is declared dead and
  // auto-removed), its fixed fields are the disk-queue feedback and the
  // open-connection count, and on telemetry ticks it carries that tick's
  // sample row for the front-end's mirror of the node's time series.
  kNodeStatus = 6,
  // BE -> FE. fd attached: the client socket, being handed *back*. Payload:
  // HandbackMsg. Two flavours share the message:
  //   * target_node >= 0 — migration to that node (TCP multiple handoff,
  //     Section 7.2's sketched extension); the FE relays it as a kHandoff.
  //   * target_node == kInvalidNode — reverse handoff from a draining or
  //     retiring node: the FE asks the dispatcher to *reassign* the
  //     connection and re-handoffs it to the chosen node.
  kHandback = 7,
  // FE -> BE. Payload: u32 flags (reserved, send 0). The node is draining or
  // retiring: give every persistent connection back to the front-end (a
  // kHandback with target_node == kInvalidNode) as soon as it is quiescent
  // between batches, instead of holding it until the client closes.
  kDrain = 9,
  // FE -> BE. Payload: u32 fe_id. First message on a control session from a
  // replicated front-end tier: identifies which front-end the session
  // belongs to (FE join). FE leave is the session's EOF — the back-end then
  // degrades that front-end's connections to autonomous local service.
  kFeHello = 10,
  // FE -> BE. fd attached: a dup of the client socket of a connection whose
  // handling node died *uncooperatively* (no kHandback — crash). Payload:
  // ReplayMsg — the journaled tail of idempotent requests whose responses
  // never fully reached the client, plus the byte offset of the first
  // response already relayed. The adopting node re-serves the tail and
  // splices its first response at that offset so the client sees one
  // uninterrupted P-HTTP stream.
  kReplay = 11,
  // BE -> FE. Payload: ReplayAckMsg. Journal progress: how many responses on
  // a replay-protected connection have fully reached the kernel socket at
  // this node, and how many bytes of the next one have. The front-end trims
  // its journal to the unacknowledged tail.
  kReplayAck = 12,
  // BE -> FE. Payload: JournalAppendMsg. A request parsed at the back-end
  // that the front-end never saw (pipelined after the handoff batch): its
  // serialized bytes join the front-end's replay journal so a later crash
  // can replay it.
  kJournalAppend = 13,
  // BE -> FE. Payload: JournalTailMsg — the back-end parser's current
  // *unparsed* buffer (the prefix of a request still incomplete), sent
  // whenever it changes. Without it, a crash that caught the node mid-read
  // would leave the request's consumed prefix unrecoverable: the surviving
  // node would see only the torn suffix from the socket and 400 the client.
  kJournalTail = 14,
};

// One request directive inside kHandoff / kAssignments.
enum class DirectiveAction : uint8_t {
  // Serve on the node holding the connection (path is the original path).
  kLocal = 0,
  // Back-end forwarding: path carries a "/__be<k>/..." tag; fetch laterally.
  kLateral = 1,
  // Multiple handoff: flush, then hand the connection back to the front-end
  // for migration to `node`; this request is served there.
  kMigrate = 2,
};

struct RequestDirective {
  DirectiveAction action = DirectiveAction::kLocal;
  // Migration target (kMigrate only).
  NodeId node = kInvalidNode;
  // The path the back-end server should act on: the original path for a
  // local serve or migrate, or a tagged path ("/__be<k>/...") instructing a
  // lateral fetch from node k (Section 7.3's URL-prefix tagging).
  std::string path;
  // Extended LARD's caching heuristic: when false, a local disk miss must not
  // populate the cache.
  bool cache_after_miss = true;
};

struct HandoffMsg {
  ConnId conn_id = 0;
  // When true the back-end serves all subsequent requests locally without
  // consulting the dispatcher — the connection-granularity mechanisms (WRR,
  // simple LARD over single handoff).
  bool autonomous = false;
  // Directives for the requests the FE already read before handing off
  // (batch 1: the first request plus any pipelined tail).
  std::vector<RequestDirective> directives;
  // Raw bytes the FE read but did not parse (suffix of a partial request);
  // must be replayed into the back-end's parser before new socket data.
  std::string unparsed_input;
  // The front-end journals this connection for crash replay: the back-end
  // must report response progress (kReplayAck) and ship requests the
  // front-end never parsed (kJournalAppend).
  bool replay_protected = false;
};

struct ConsultMsg {
  ConnId conn_id = 0;
  std::vector<std::string> paths;
  uint32_t disk_queue_len = 0;  // piggybacked feedback
};

struct AssignmentsMsg {
  ConnId conn_id = 0;
  std::vector<RequestDirective> directives;
};

// The hand-back: the connection (fd attached to the frame) plus everything
// the next node needs to continue it seamlessly. target_node names the
// migration destination, or kInvalidNode for a drain/retire giveback where
// the front-end's dispatcher picks the destination (ReassignConnection).
struct HandbackMsg {
  ConnId conn_id = 0;
  NodeId target_node = kInvalidNode;
  // Directives for the replayed requests, in order (the migrating request
  // first, rewritten as kLocal for the target).
  std::vector<RequestDirective> directives;
  // Serialized unserved requests followed by the unparsed input tail.
  std::string replay_input;
};

// Crash replay (kReplay): everything the adopting node needs to continue a
// connection whose handling node died without handing it back. The fd rides
// on the frame (a dup the front-end retained at handoff time).
struct ReplayMsg {
  ConnId conn_id = 0;
  // The dead node's identity. The spliced first response must be
  // byte-identical to what the dead node was sending, so the adopting node
  // emits it under this node's Server token.
  NodeId origin_node = kInvalidNode;
  // Bytes of the first replayed request's response that already reached the
  // client; the adopting node suppresses exactly this prefix of its
  // regenerated first response (the splice).
  uint64_t splice_offset = 0;
  // Serve without consulting the dispatcher (mirrors HandoffMsg.autonomous).
  bool autonomous = false;
  // One directive per replayed request, paired FIFO with replay_input.
  std::vector<RequestDirective> directives;
  // The journaled unacknowledged requests, re-serialized in order.
  std::string replay_input;
};

// Journal progress report (kReplayAck). `completed` counts responses fully
// flushed to the kernel socket at the reporting node since it adopted the
// connection; `partial_bytes` is how much of response `completed + 1` has.
struct ReplayAckMsg {
  ConnId conn_id = 0;
  uint64_t completed = 0;
  uint64_t partial_bytes = 0;
};

// Journal append (kJournalAppend): a request the back-end parsed beyond the
// handoff batch, re-serialized so the front-end's journal stays complete.
// Method and path ride along so the front-end applies its idempotency policy
// without re-parsing.
struct JournalAppendMsg {
  ConnId conn_id = 0;
  std::string method;
  std::string path;
  std::string request_bytes;
};

// Parser-buffer snapshot (kJournalTail): replaces the journal's stored
// partial tail for the connection (empty = the buffer drained into a
// complete, separately-appended request).
struct JournalTailMsg {
  ConnId conn_id = 0;
  std::string buffered;
};

// Node status (kNodeStatus). `seq` is monotonic per back-end so the
// front-end can spot silent restarts; `t_ms` is the producer's clock. Every
// value is absolute state, not a delta since the last frame, so a lost or
// reordered frame only costs staleness, never drift. `samples` is empty
// except on telemetry ticks, when it holds that tick's windowed values
// (rates per second, window quantiles) for the front-end to mirror
// verbatim, stamped t_ms.
struct StatusSample {
  std::string name;
  double value = 0.0;
};

struct NodeStatusMsg {
  uint64_t seq = 0;
  int64_t t_ms = 0;
  uint32_t disk_queue_len = 0;
  uint32_t open_conns = 0;
  std::vector<StatusSample> samples;
};

std::string EncodeNodeStatus(const NodeStatusMsg& msg);
bool DecodeNodeStatus(std::string_view payload, NodeStatusMsg* msg);

std::string EncodeHandoff(const HandoffMsg& msg);
bool DecodeHandoff(std::string_view payload, HandoffMsg* msg);

std::string EncodeReplay(const ReplayMsg& msg);
bool DecodeReplay(std::string_view payload, ReplayMsg* msg);

std::string EncodeReplayAck(const ReplayAckMsg& msg);
bool DecodeReplayAck(std::string_view payload, ReplayAckMsg* msg);

std::string EncodeJournalAppend(const JournalAppendMsg& msg);
bool DecodeJournalAppend(std::string_view payload, JournalAppendMsg* msg);

std::string EncodeJournalTail(const JournalTailMsg& msg);
bool DecodeJournalTail(std::string_view payload, JournalTailMsg* msg);

std::string EncodeHandback(const HandbackMsg& msg);
bool DecodeHandback(std::string_view payload, HandbackMsg* msg);

std::string EncodeConsult(const ConsultMsg& msg);
bool DecodeConsult(std::string_view payload, ConsultMsg* msg);

std::string EncodeAssignments(const AssignmentsMsg& msg);
bool DecodeAssignments(std::string_view payload, AssignmentsMsg* msg);

std::string EncodeU64(uint64_t value);
bool DecodeU64(std::string_view payload, uint64_t* value);

std::string EncodeU32(uint32_t value);
bool DecodeU32(std::string_view payload, uint32_t* value);

}  // namespace lard

#endif  // SRC_PROTO_CONTROL_PROTOCOL_H_
