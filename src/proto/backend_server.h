// Prototype back-end node (Sections 7.1–7.4), in user space:
//
//   * adopts client TCP connections handed off by the front-end (the fd
//     arrives over the control session — our in-kernel-handoff analogue) and
//     serves HTTP/1.0 and persistent HTTP/1.1 with pipelining on them,
//   * for non-autonomous connections, echoes every parsed batch of requests
//     to the front-end dispatcher (the forwarding module's packet-copy path)
//     and acts on the returned *tagged requests*: a "/__be<k>/..." tag makes
//     it fetch the content laterally from node k and relay the response on
//     its client connection (back-end request forwarding),
//   * serves its peers' lateral fetches as ordinary GETs: a peer's
//     connection is a client connection of the peer kind, autonomous and
//     with no front end, served by the same loop from its own cache/disk,
//   * reports its disk queue length to the front-end (piggybacked on
//     consults and in its periodic node-status frame), which is the
//     extended-LARD policy's only back-end feedback.
//
// The cache is an LruCache over target ids; a miss passes through the
// DiskGate (simulated disk, DESIGN.md §2). Lateral fetches never populate the
// fetching node's cache — preserving the paper's "NFS client caching
// disabled" semantics so LARD alone controls replication.
//
// Threading: everything runs on the node's EventLoop thread; stats counters
// are atomics readable from outside.
#ifndef SRC_PROTO_BACKEND_SERVER_H_
#define SRC_PROTO_BACKEND_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/cluster_types.h"
#include "src/core/lru_cache.h"
#include "src/http/request_parser.h"
#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/net/framed_channel.h"
#include "src/obs/samplers.h"
#include "src/proto/cluster_config.h"
#include "src/proto/content_store.h"
#include "src/proto/control_protocol.h"
#include "src/proto/disk_gate.h"
#include "src/proto/lateral_client.h"
#include "src/util/liveness.h"
#include "src/util/metrics.h"
#include "src/util/status.h"
#include "src/util/tracing.h"

namespace lard {

// A read view of one node's counts. The fields are references to the
// node's instruments in its registry, so the back end updates them in place
// and /metrics, telemetry and Cluster::Snapshot() all read the same counts.
// The instruments outlive the server.
struct BackendCounters {
  // Binds every field to node `node`'s "{node=\"k\"}" instrument in
  // `registry`, creating it on first use: the one place back-end counts are
  // named.
  BackendCounters(MetricsRegistry* registry, NodeId node);

  std::atomic<uint64_t>& connections_adopted;
  std::atomic<uint64_t>& replays_adopted;  // crash-replay connections (kReplay)
  std::atomic<uint64_t>& spliced_responses;  // responses emitted with a trimmed prefix
  std::atomic<uint64_t>& handbacks;  // connections migrated away (multiple handoff)
  std::atomic<uint64_t>& drain_handbacks;  // connections given back while draining
  std::atomic<uint64_t>& requests_served;     // responses written to clients
  std::atomic<uint64_t>& local_hits;
  std::atomic<uint64_t>& local_misses;
  std::atomic<uint64_t>& lateral_out;         // fetched from a peer
  std::atomic<uint64_t>& lateral_in;          // served on behalf of a peer
  std::atomic<uint64_t>& bytes_to_clients;
  std::atomic<uint64_t>& not_found;
  std::atomic<uint64_t>& idle_closes;  // adopted conns reaped by the idle sweep
  std::atomic<uint64_t>& heartbeats;   // node-status frames sent
};

class BackendServer {
 public:
  // Back-end `node_id` of the cluster `config` describes. `loop` and `store`
  // must outlive the server. Construct and Start() on the owner's thread
  // before the loop runs, or on the loop thread. `metrics` is the shared
  // registry, where per-node counts are kept under lard_backend_*{node="k"};
  // when null the back end keeps them in a registry of its own. `tracer`,
  // when set, records adopt/serve/disk/lateral/flush spans into the
  // "be<node_id>" ring; the sampling verdict depends only on the conn id, so
  // FE and BE record the same connections.
  BackendServer(const ClusterConfig& config, NodeId node_id, EventLoop* loop,
                const ContentStore* store, MetricsRegistry* metrics = nullptr,
                Tracer* tracer = nullptr);
  ~BackendServer();

  BackendServer(const BackendServer&) = delete;
  BackendServer& operator=(const BackendServer&) = delete;

  // Loop thread (or before the loop runs). Opens the lateral listener (port
  // returned via lateral_port()) and attaches front-end 0's control session;
  // a listen failure is returned with nothing attached.
  Status Start(UniqueFd control_fd);

  // Loop thread (or before the loop runs). Attaches the control session of
  // front-end `fe_id` of the replicated-FE tier. Every client connection
  // remembers which front-end handed it off, and its consults, idle/close
  // notifications and handbacks travel that front-end's session; node-status
  // frames broadcast to every attached front-end. When a session
  // dies (the front end crashed or stopped), that front-end's connections
  // degrade to autonomous local service instead of wedging on unanswerable
  // consults.
  void AttachFrontEnd(int fe_id, UniqueFd control_fd);

  // Loop thread (or before the loop runs). Connects lateral clients;
  // ports[i] is node i's lateral port
  // (entry for self ignored). Call after every node has started; the list may
  // be longer than the membership this node was configured with (nodes that
  // joined since).
  void ConnectPeers(const std::vector<uint16_t>& ports);

  // Loop thread. Registers (or replaces) the lateral route to one peer — the
  // dynamic-membership path: existing nodes learn a joining node's lateral
  // port without re-wiring the whole mesh.
  void AddPeer(NodeId node, uint16_t port);

  uint16_t lateral_port() const { return lateral_port_; }
  const BackendCounters& counters() const { return counters_; }
  int disk_queue_length() const { return disk_ == nullptr ? 0 : disk_->queue_length(); }
  bool draining() const { return draining_; }

 private:
  // Peer connections take ids with this bit set, which no front end mints
  // (front-end ids are fe_id << 48).
  static constexpr ConnId kPeerIdBit = ConnId{1} << 63;

  // A connection served by ProcessNext: a client connection handed off by a
  // front end, or a peer's lateral connection accepted on the lateral
  // listener. A peer connection is autonomous with no front end (fe = -1),
  // so it skips the client path's consults, idle reports, journal and
  // handbacks, and every request gets a default (local, cache-on-miss)
  // directive. It also counts lateral_in instead of the client counters,
  // is neither traced nor timed, is never reaped by the idle sweep and is
  // left out of the open-connection counts.
  struct ClientConn {
    ConnId id = 0;
    int fe = 0;  // the front-end that handed this conn off; -1 for a peer
    bool peer() const { return (id & kPeerIdBit) != 0; }
    std::unique_ptr<Connection> conn;
    RequestParser parser;
    bool autonomous = false;
    bool closed = false;
    // Crash-replay journal duty (the front-end journals this connection):
    // report response-flush progress (kReplayAck) and ship requests the
    // front-end never parsed (kJournalAppend).
    bool replay_protected = false;
    // Splice state of a kReplay adoption: suppress the first splice_remaining
    // bytes of the first response, emitted under the dead origin node's
    // Server token so the visible byte stream continues exactly where the
    // crashed node left off.
    uint64_t splice_remaining = 0;
    NodeId splice_origin = kInvalidNode;
    bool splice_pending = false;
    // Response-progress bookkeeping (replay_protected only): cumulative
    // enqueued-byte offset at which each in-flight response ends, compared
    // against Connection::bytes_flushed() to ack completed responses.
    std::deque<uint64_t> response_ends;
    uint64_t enqueued_total = 0;
    uint64_t completed_responses = 0;
    uint64_t last_completed_end = 0;
    uint64_t acked_completed = 0;
    uint64_t acked_partial = 0;
    bool ack_sent = false;
    // Last parser-buffer snapshot shipped to the front-end (kJournalTail);
    // re-sent only on change, so quiescent connections cost nothing. The
    // first parse always reports — the front-end may hold a stale tail from
    // before the adoption (a handback's consult-dropped remainder) that only
    // an explicit (possibly empty) report can clear.
    std::string tail_reported;
    bool tail_ever_reported = false;
    // Requests whose directives arrived with the handoff (batch 1): that many
    // parsed requests must not be re-consulted to the dispatcher.
    size_t preassigned_remaining = 0;
    // Parsed-but-unserved requests, paired FIFO with directives.
    std::deque<HttpRequest> requests;
    std::deque<RequestDirective> directives;
    // Paths parsed but not yet consulted (accumulates while one consult is in
    // flight; flushed as the next batch).
    std::vector<std::string> consult_backlog;
    // Paths of the consult currently in flight, kept until its kAssignments
    // reply lands — if the owning front-end dies first, these requests must
    // still get (local) directives or the FIFO request/directive pairing
    // skews forever.
    std::vector<std::string> consult_inflight;
    bool consult_outstanding = false;
    bool serving = false;       // a response is being produced (serial per conn)
    bool relaying = false;      // that response is a lateral fetch still in flight
    bool dispatching = false;   // ProcessNext's loop is on the stack
    bool migrating = false;     // hand-back in progress: no consults, no serves
    bool idle_reported = true;  // kIdle sent and nothing new since
    int64_t last_activity_ms = 0;
    uint64_t flushed_at_sweep = 0;  // bytes_flushed() seen by the last idle sweep
    // Tracing (verdicts cached at adoption). `traced` = spans recorded;
    // `timed` = per-request timestamps taken (traced, or the slow-request
    // log is armed — which must see every request, not just sampled ones).
    bool traced = false;
    bool timed = false;
    uint32_t trace_seq = 0;        // span ordinal within this connection
    int64_t serve_start_us = 0;    // dequeue time of the request being served
    char serve_cache = '-';        // 'h'it / 'm'iss / 'l'ateral for the kServe span
  };

  // Control sessions (one per front-end).
  void OnControlMessage(int fe, uint8_t type, std::string_view payload, UniqueFd fd);
  void AdoptConnection(int fe, HandoffMsg msg, UniqueFd fd);
  // Crash replay (kReplay): adopt a connection whose previous node died,
  // re-serving the journaled tail and splicing the first response.
  void AdoptReplay(int fe, ReplayMsg msg, UniqueFd fd);
  // Shared adoption plumbing for kHandoff, kReplay and peer connections.
  ClientConn* AdoptCommon(int fe, ConnId conn_id, bool autonomous, bool replay_protected,
                          std::vector<RequestDirective> directives, UniqueFd fd);
  // Adopts each pending connection on the lateral listener as a ClientConn
  // of the peer kind.
  void OnLateralAccept(uint32_t events);
  void OnAssignments(const AssignmentsMsg& msg);
  // The channel to front-end `fe`, or nullptr when absent/closed.
  FramedChannel* FeChannel(int fe);
  // Front-end `fe`'s control session died: degrade its connections.
  void OnFrontEndLost(int fe);

  // Client connections.
  void OnClientData(ClientConn* conn, std::string_view data);
  void OnClientClosed(ClientConn* conn);
  void MaybeConsult(ClientConn* conn);
  // Serves the ready part of the connection's batch, in a loop.
  void ProcessNext(ClientConn* conn);
  // Starts the next ready request (or a handback). Returns false when
  // nothing more can start now.
  bool StartNextRequest(ClientConn* conn);
  // Multiple handoff: flush outstanding responses, then detach the client
  // socket and hand it back to the front-end for migration (Section 7.2's
  // sketched design — "the handoff protocol at the backend can hand back the
  // connection to the frontend, which can further hand it to another
  // backend"; flushing first keeps the response pipeline from draining
  // mid-response).
  void StartHandback(ClientConn* conn);
  void DoHandback(ConnId conn_id);
  // Drain-state giveback: once `conn` is quiescent between batches, flush and
  // hand it back to the front-end with target kInvalidNode — the front-end's
  // dispatcher reassigns it to a surviving node (reverse handoff).
  void MaybeDrainHandback(ClientConn* conn);
  void ServeLocal(ClientConn* conn, const HttpRequest& request, const RequestDirective& directive);
  // One relayed response's progress, shared by its fetch's callbacks.
  struct Relay {
    ConnId conn_id = 0;
    NodeId peer = kInvalidNode;
    HttpRequest request;
    int64_t start_us = 0;
    bool head_seen = false;
    int status = 0;
    uint64_t length = 0;   // the peer's Content-Length
    uint64_t relayed = 0;  // body bytes received from the peer
    // Set once BeginResponse queued the head; unset when the client was gone.
    std::optional<uint64_t> wire_bytes;
  };
  // Relays `path` from `peer` cut-through: head, then each run of body
  // bytes as the peer's bytes are read.
  void ServeLateral(ClientConn* conn, const HttpRequest& request, NodeId peer,
                    const std::string& path);
  // The fetch ended (ok) or failed: end the response, fall back to a local
  // serve (no head yet), finish a cut body locally, or close the client.
  void EndRelay(const Relay& relay, bool ok);
  // Starts a response of `body_size` bytes: queues its head (unsent) and
  // does the per-response bookkeeping — counters, the replay splice skip,
  // the journal's response end. Returns the bytes it puts on the wire, or
  // nothing when the client is gone (the request is finished) or the splice
  // cannot be reconciled (the client is closed).
  std::optional<uint64_t> BeginResponse(ClientConn* conn, const HttpRequest& request, int status,
                                        uint64_t body_size);
  // Ends a begun response once its whole body is queued or sent: flushes,
  // records the spans, acks journal progress, then closes (Connection:
  // close) or finishes the request.
  void EndResponse(ClientConn* conn, const HttpRequest& request, int status,
                   uint64_t wire_bytes);
  // A local response: BeginResponse, the body's owned prefix and slab views
  // (borrowed, never copied), EndResponse — one gather write where the
  // socket allows.
  void WriteResponse(ClientConn* conn, const HttpRequest& request, int status, BodyParts body);
  // Replay-protected conns: compare flushed bytes against response
  // boundaries and report fresh progress to the owning front-end's journal.
  void MaybeSendReplayAck(ClientConn* conn);
  void FinishRequest(ClientConn* conn);
  void CloseClient(ClientConn* conn, bool notify_frontend);
  void ReportIdleIfQuiescent(ClientConn* conn);

  void Housekeeping();
  void SweepIdleConnections();
  // Broadcasts one node-status frame (carrying `samples`, possibly none) to
  // every attached front-end.
  void SendStatus(std::vector<StatusSample> samples);
  // One telemetry sampling tick (loop thread, self-rescheduling guarded
  // timer): samples a row and ships it in a status frame.
  void TelemetryTick();
  int64_t NowMs() const;

  // A lateral route to `node` exists. The mesh (peers_) grows as nodes join,
  // so this is the membership bound.
  bool HasPeer(NodeId node) const {
    return node >= 0 && static_cast<size_t>(node) < peers_.size() &&
           peers_[static_cast<size_t>(node)] != nullptr;
  }

  // The registry the back end keeps its counts in when none is shared;
  // metrics_ then points here. Declared first: metrics_ is initialized from
  // it.
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_;
  const ClusterConfig config_;
  const NodeId node_id_;
  EventLoop* loop_;
  const ContentStore* store_;
  // Guards deferred callbacks (posted erases, the housekeeping timer), which
  // the loop may run after an in-place server teardown. Invalidated first in
  // the destructor.
  LivenessToken alive_;
  bool draining_ = false;

  std::vector<std::unique_ptr<FramedChannel>> controls_;  // index = front-end id
  std::unique_ptr<DiskGate> disk_;
  LruCache cache_;

  UniqueFd lateral_listener_;
  uint16_t lateral_port_ = 0;
  std::vector<std::unique_ptr<LateralClient>> peers_;  // index = NodeId

  std::unordered_map<ConnId, std::unique_ptr<ClientConn>> conns_;
  // The requests parsed from one client read, cleared after each read so its
  // capacity (up to RequestParser::kKeepBatchRequests) carries over to the
  // next. Empty between reads.
  std::vector<HttpRequest> read_batch_;
  ConnId next_peer_id_ = kPeerIdBit | 1;
  size_t peer_conns_ = 0;  // entries of conns_ that are peers'

  BackendCounters counters_;

  Tracer* const tracer_;
  TraceRing* trace_ring_ = nullptr;

  MetricGauge* metric_open_conns_ = nullptr;
  uint64_t status_seq_ = 0;

  // Telemetry (telemetry_interval_ms > 0): the request latency histogram
  // (null while telemetry is off) and the window samplers feeding the rows,
  // loop-confined.
  MetricHistogram* request_us_ = nullptr;
  CounterRateSampler rate_requests_;
  CounterRateSampler rate_hits_;
  CounterRateSampler rate_misses_;
  CounterRateSampler rate_lateral_;
  HistogramWindowSampler latency_window_;
  HistogramWindowSampler wakeup_window_;
  int64_t telemetry_last_ms_ = 0;
};

}  // namespace lard

#endif  // SRC_PROTO_BACKEND_SERVER_H_
