// Prototype front-end node (Sections 7.1–7.3): accepts client TCP
// connections, reads the first (batch of) request(s), runs the src/core
// Dispatcher, and
//
//   * in the handoff mechanisms, passes the client socket fd plus the bytes
//     received so far to the chosen back-end over that back-end's control
//     session (our user-space TCP single handoff), then keeps serving the
//     connection's dispatcher consults — answering with *tagged requests*
//     that direct the handling node to serve locally or fetch laterally
//     (back-end request forwarding);
//   * in the multiple-handoff mechanism, additionally relays kHandback
//     messages: a back-end that must migrate a connection flushes, detaches
//     the client fd and returns it here; we forward it to the target node as
//     a fresh handoff carrying the unserved-request replay (Section 7.2's
//     sketched design, which the paper's prototype did not implement);
//   * in the relaying mechanism, never hands off: it proxies every request to
//     a per-request back-end choice over persistent back-end connections and
//     relays the response bytes itself.
//
// The front-end is also the cluster's control plane anchor: it tracks
// back-end liveness via kNodeStatus frames on the control sessions, declares
// a silent node dead after `heartbeat_timeout_ms` and auto-removes it from
// the dispatcher (the kill-a-back-end scenario), and exposes the membership
// operations the admin API drives — AddNode, DrainNode, RemoveNode,
// SetPolicy.
//
// Threading model (reactor-per-core): the front-end runs on an EventLoopGroup
// of N epoll loops. Loop 0 is the control-plane loop — back-end control
// sessions, heartbeats/health sweeps, mesh gossip, the replay journal and the
// admin server all live there and nowhere else. Client connections shard
// across all N loops (per-loop SO_REUSEPORT listeners when the kernel allows,
// round-robin fd handoff from a single loop-0 listener otherwise); a
// connection, its parser and its raw-byte capture are pinned to the owning
// loop for their whole lifetime. The shared routing state (dispatcher,
// live-connection set, disk table, mesh table, gossip hints) sits behind one
// mutex — a thread-safe façade rather than per-loop shards — so every loop
// decides over the same coherent vcache/load view; see
// docs/ARCHITECTURE.md "Threading model" for why. A shard loop that hands a
// connection off finishes the loop-0-owned half (journal, control-session
// send) by posting a CompleteHandoff to loop 0. With one loop the group
// degenerates to the old single-threaded front-end, bit-for-bit.
#ifndef SRC_PROTO_FRONTEND_H_
#define SRC_PROTO_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/cluster_types.h"
#include "src/core/dispatcher.h"
#include "src/http/request_parser.h"
#include "src/mesh/mesh_state.h"
#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/net/event_loop_group.h"
#include "src/net/framed_channel.h"
#include "src/obs/process_stats.h"
#include "src/obs/samplers.h"
#include "src/obs/slo_watchdog.h"
#include "src/obs/time_series.h"
#include "src/proto/cluster_config.h"
#include "src/proto/control_protocol.h"
#include "src/proto/lateral_client.h"
#include "src/proto/replay_journal.h"
#include "src/trace/trace.h"
#include "src/util/liveness.h"
#include "src/util/metrics.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/util/tracing.h"

namespace lard {

// A read view of one replica's counts. The fields are references to the
// replica's instruments in its registry, so the front end updates them in
// place and /metrics, telemetry and Cluster::Snapshot() all read the same
// counts.
struct FrontEndCounters {
  // Binds every field to replica `fe`'s "{fe=\"k\"}" instrument in `registry`,
  // creating it on first use: the one place front-end counts are named.
  FrontEndCounters(MetricsRegistry* registry, int fe);

  std::atomic<uint64_t>& connections_accepted;
  std::atomic<uint64_t>& handoffs;
  std::atomic<uint64_t>& consults;
  std::atomic<uint64_t>& relayed_requests;
  std::atomic<uint64_t>& migrations;  // hand-backs relayed (multiple handoff)
  std::atomic<uint64_t>& rehandoffs;  // drain givebacks re-handed-off to a new node
  std::atomic<uint64_t>& replays;  // crashed-node conns re-handed-off with a journal replay
  std::atomic<uint64_t>& replay_giveups;  // orphans unreplayable (non-idempotent/overflow/no node)
  std::atomic<uint64_t>& heartbeats;
  std::atomic<uint64_t>& auto_removals;  // nodes declared dead by health tracking
  std::atomic<uint64_t>& rejected_no_backend;  // 503s with zero assignable nodes
  std::atomic<uint64_t>& idle_closes;  // FE-owned conns reaped at the idle deadline
  std::atomic<uint64_t>& gossip_sent;     // mesh deltas published to peers
  std::atomic<uint64_t>& gossip_applied;  // peer deltas accepted
};

class FrontEnd {
 public:
  // Replica `fe_id` of the tier `config` describes (only replica 0 binds
  // config.listen_port). `catalog` maps request paths to targets (sizes) for
  // the dispatcher's virtual caches; must outlive the front-end. `loops` is
  // the reactor group this front-end runs on (loop 0 = control plane; all
  // loops carry client connections); it must outlive the front-end too.
  // `metrics` is the shared registry (lard_fe_*, lard_cluster_* instruments);
  // when null the front end keeps its counts in a registry of its own.
  // `tracer`, when set, records accept/parse/policy/handoff/replay spans into
  // per-loop rings — "fe<fe_id>" for loop 0 and "fe<fe_id>.<k>" for shard
  // loop k — sampled by trace id, so FE and back-end spans of one connection
  // are kept or dropped together.
  FrontEnd(const ClusterConfig& config, int fe_id, EventLoopGroup* loops,
           const TargetCatalog* catalog, MetricsRegistry* metrics = nullptr,
           Tracer* tracer = nullptr);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  // Bring-up, on the owner's thread before the group's loops run.
  // control_fds[i] is the unix-socket end of node i's control session. Opens
  // and registers the client listener(s) (port() after); a bind failure is
  // returned with nothing attached.
  Status Start(std::vector<UniqueFd> control_fds);

  // Bring-up, like Start(); relaying mechanism only: connect to the
  // back-ends' HTTP (lateral) ports (every shard loop gets its own
  // persistent connections).
  void ConnectBackends(const std::vector<uint16_t>& backend_http_ports);

  // --- control plane (loop-0 thread; the admin server calls these) ---

  // Registers a freshly started back-end: control session + (relay mode) its
  // HTTP port + capacity weight. Returns the new node's id.
  NodeId AddNode(UniqueFd control_fd, uint16_t backend_http_port, double weight = 1.0);
  // Stops new assignments to `node` and asks it (kDrain) to give its idle
  // persistent connections back for re-handoff to surviving nodes.
  bool DrainNode(NodeId node);
  // Removes `node`. A live node with connections retires gracefully: drain +
  // giveback, then the hard removal once its connections have migrated (or
  // after retire_grace_ms). Dead/silent nodes are removed immediately. Safe
  // on live, draining and already-dead nodes (idempotent; returns false when
  // nothing changed).
  bool RemoveNode(NodeId node);
  // Invoked on the loop-0 thread after a node's removal completes (control
  // session torn down) — the harness stops the node's thread here.
  void set_on_node_removed(std::function<void(NodeId)> cb) { on_node_removed_ = std::move(cb); }
  // Runtime policy switch (future decisions only).
  void SetPolicy(Policy policy) LARD_EXCLUDES(state_mutex_);
  // The policy the dispatcher currently decides with.
  Policy policy() const LARD_EXCLUDES(state_mutex_);
  // Membership + health snapshot as the admin API's JSON body.
  std::string DescribeNodesJson() const LARD_EXCLUDES(state_mutex_);

  // --- the front-end mesh (replicated tier) ---

  // Loop-0 thread. Wires the gossip channel to peer front-end `peer_fe_id`
  // (one FramedChannel per peer pair; the harness builds the full mesh).
  void AttachPeer(uint32_t peer_fe_id, UniqueFd gossip_fd);
  // This replica's mesh state as JSON: epoch, gossip seq, per-peer lag/seq/
  // epoch/load, violation counters. Thread-safe (admin runs on FE 0's loop;
  // the snapshot is refreshed on every gossip tick under a mutex).
  std::string DescribeMeshJson() const LARD_EXCLUDES(mesh_json_mutex_);

  // --- telemetry (thread-safe; stores are internally synchronized) ---

  // This replica's own telemetry series (null when telemetry is disabled).
  const TimeSeriesStore* telemetry() const { return telemetry_.get(); }
  // The SLO watchdog (null when telemetry is disabled).
  const SloWatchdog* watchdog() const { return watchdog_.get(); }
  // Merged verdict for /cluster/health roll-ups; kOk when telemetry is off.
  HealthStatus health_status() const {
    return watchdog_ == nullptr ? HealthStatus::kOk : watchdog_->status();
  }
  // JSON object *fragment* ("\"fe0\":{...},\"be1\":{...}") mapping component
  // name to its series (GET /timeseries). `component` non-empty restricts to
  // that one component; `metric` filters series by substring; window_ms <= 0
  // renders full retention. include_nodes adds the mirrored back-end stores.
  std::string DescribeTimeSeriesJson(const std::string& metric, const std::string& component,
                                     int64_t window_ms, bool include_nodes) const
      LARD_EXCLUDES(telemetry_mutex_);
  // This replica's health view (GET /cluster/health): watchdog status +
  // reasons, freshest per-component samples. Refreshed every telemetry tick
  // under a mutex (the DescribeMeshJson pattern); "{}" when telemetry is off.
  std::string DescribeHealthJson() const LARD_EXCLUDES(health_json_mutex_);

  uint16_t port() const { return port_; }
  const FrontEndCounters& counters() const { return counters_; }

  // Runtime idle-deadline tuning (the idle_timeout_ms knob of POST /config;
  // thread-safe). New deadlines apply to the next arm/rearm of each
  // connection's timer; <= 0 stops reaping (already-armed timers fire once
  // and no-op).
  void set_idle_timeout_ms(int64_t ms) { idle_timeout_ms_.store(ms, std::memory_order_relaxed); }
  int64_t idle_timeout_ms() const { return idle_timeout_ms_.load(std::memory_order_relaxed); }
  // Per-state open-connection gauges (also telemetry series): connections
  // owned by this front-end's shards vs. handed off (dispatcher-tracked but
  // living at a back-end, journal state still held here). Both thread-safe;
  // the handed-off count derives from the dispatcher so every control-plane
  // path (handback, failure replay, giveup) is covered by construction.
  int64_t open_conns_fe_owned() const { return conns_fe_owned_.load(std::memory_order_relaxed); }
  int64_t open_conns_handed_off() const LARD_EXCLUDES(state_mutex_);
  // Lock-free view of the dispatcher for loop-0/test callers (via
  // InspectReplica, which serializes on this front-end's control-plane
  // loop); cross-thread readers must use DispatcherCountersSnapshot().
  const Dispatcher& dispatcher() const LARD_NO_THREAD_SAFETY_ANALYSIS {
    return *dispatcher_;
  }
  int fe_loops() const { return static_cast<int>(shards_.size()); }

  // Coherent cross-thread copy of the dispatcher's decision counters (and,
  // optionally, its open-connection count), taken under the routing-state
  // mutex — the shard loops mutate the counters concurrently, so a raw
  // counters() read from another thread would be torn.
  DispatcherCounters DispatcherCountersSnapshot(size_t* open_connections = nullptr) const
      LARD_EXCLUDES(state_mutex_);

  // Times a client-connection callback fired on a loop other than the one
  // the connection is pinned to, plus every off-thread touch of loop-confined
  // state the loops' own AssertInLoopThread() counted (release builds; debug
  // builds abort instead). Always 0 by construction; exported so the
  // pinning-under-churn tests can assert the invariant directly.
  uint64_t pinning_violations() const {
    uint64_t total = pinning_violations_.load(std::memory_order_relaxed);
    for (const auto& shard : shards_) {
      total += shard->loop->pinning_violations();
    }
    return total;
  }

 private:
  struct LoopShard;

  // Hot per-connection struct: at 100k+ connections per process its size is
  // the front-end's memory floor, so cold state is packed or heap-deferred.
  // The relay queue (relaying mode only — the handoff mechanisms never queue
  // here) is lazily allocated: a libstdc++ deque is ~80 bytes inline plus a
  // ~512-byte map block the moment it constructs, which would dwarf the rest
  // of the struct for every handed-off connection.
  struct FeConn {
    ConnId id = 0;
    LoopShard* shard = nullptr;  // owning loop; all callbacks fire there
    std::unique_ptr<Connection> conn;
    RequestParser parser;
    std::string raw_bytes;  // everything received (shipped on handoff)
    // Idle-deadline timer on the owning loop (0 = none armed). Bytes in/out
    // only store last_activity_ms; when the timer fires it compares that and
    // re-arms for the remainder, or reaps the connection.
    EventLoop::TimerId idle_timer = 0;
    int64_t last_activity_ms = 0;
    // Relaying mode queue of parsed-but-unserved requests (see above).
    std::unique_ptr<std::deque<std::pair<HttpRequest, NodeId>>> relay_queue;
    bool in_dispatcher = false;
    bool serving = false;
    bool closed = false;
  };

  // One reactor shard: a loop plus everything pinned to it. Client
  // connections never migrate between shards; only the detached fd leaves
  // (to a back-end, via loop 0). Shard 0 is loop 0 and also hosts the
  // control plane.
  struct LoopShard {
    EventLoop* loop = nullptr;
    int index = 0;
    UniqueFd listener;  // per-shard SO_REUSEPORT socket (or the fallback's)
    std::unordered_map<ConnId, std::unique_ptr<FeConn>> conns;
    ConnId next_conn_id = 0;
    TraceRing* trace_ring = nullptr;  // "fe<k>" for shard 0, "fe<k>.<n>" else
    std::vector<std::unique_ptr<LateralClient>> relays;  // relaying mode
    // The requests parsed from one read, cleared after each read so its
    // capacity (up to RequestParser::kKeepBatchRequests) carries over to the
    // next. Empty between reads.
    std::vector<HttpRequest> read_batch;
  };

  // The loop-0-owned half of a shard-initiated handoff: journal bookkeeping
  // plus the control-session send. Built on the shard loop (which owns the
  // parse and the fd dup), executed on loop 0 (which owns nodes_ and the
  // journal).
  struct PendingHandoff {
    NodeId node = kInvalidNode;
    HandoffMsg msg;
    UniqueFd client_fd;    // the detached socket to ship
    UniqueFd retained_fd;  // journal dup (invalid when unprotected/dup failed)
    std::vector<ReplayJournal::Entry> journal_entries;
    std::string partial_tail;
    TraceRing* trace_ring = nullptr;
    bool traced = false;
    size_t request_count = 0;
  };

  // Per-back-end control-plane state, indexed by NodeId (slots persist after
  // removal so ids stay stable). Loop-0 confined.
  struct NodeLink {
    std::unique_ptr<FramedChannel> control;
    int64_t last_heartbeat_ms = 0;   // bumped by every control frame
    bool heartbeat_seen = false;     // a kNodeStatus frame arrived (age is valid)
    uint64_t heartbeat_seq = 0;
    uint32_t reported_conns = 0;
    // Non-zero once this node's *detected* failure (heartbeat loss or
    // control EOF) has been processed. Heartbeat loss and session EOF can
    // both fire for one dead node; the epoch makes detection idempotent so
    // orphans are never replayed or reassigned twice.
    uint64_t failure_epoch = 0;
    MetricCounter* handoff_counter = nullptr;  // lard_fe_handoffs_total{node=...}
  };

  class DiskTable;

  void OnAccept(LoopShard* shard, uint32_t events);
  // Takes ownership of a fresh client socket on `shard`'s loop thread: the
  // shed-at-the-door check, FeConn construction, callback pinning.
  void AdoptClientFd(LoopShard* shard, UniqueFd fd);
  void OnClientData(FeConn* conn, std::string_view data);
  void OnClientClosed(FeConn* conn);
  void DestroyConn(FeConn* conn);

  // --- idle-deadline reaper (each call on the connection's shard loop) ---

  // Arms (or re-arms after a config change) `conn`'s idle timer.
  void ArmIdleTimer(FeConn* conn);
  // Bytes moved in either direction: store the activity time, and arm a
  // timer only when none is armed.
  void TouchIdleTimer(FeConn* conn);
  // The deadline fired with no intervening activity: close + reap.
  void OnIdleDeadline(LoopShard* shard, ConnId id);

  // `requests` is the shard's read batch and never empty: OnClientData
  // returns on an empty batch, and clears it after the flow returns.
  void HandoffFlow(FeConn* conn, const std::vector<HttpRequest>& requests);
  // Loop 0. Re-checks the target's control session (the shard's dispatcher
  // pick can race a node death), journals the retained dup, and ships the
  // connection. Sheds with a raw 503 when the target died in flight.
  void CompleteHandoff(PendingHandoff pending);
  // Moves the requests out of the shard's read batch into the relay queue.
  void RelayFlow(FeConn* conn, std::vector<HttpRequest>& requests);
  void ProcessNextRelay(LoopShard* shard, ConnId id);

  void OnControlMessage(NodeId node, uint8_t type, std::string_view payload, UniqueFd fd)
      LARD_EXCLUDES(state_mutex_);
  // Locked (state_mutex_) helpers — callers hold the lock.
  void HandleConsult(NodeId node, const ConsultMsg& msg) LARD_REQUIRES(state_mutex_);
  // Giveback (target kInvalidNode) or dead-target handback: reassign via the
  // dispatcher and re-handoff; 503-close the client when no node is
  // assignable.
  void RehandoffConnection(NodeId from_node, HandbackMsg msg, UniqueFd fd)
      LARD_REQUIRES(state_mutex_);
  // Asks the dispatcher for a live placement of `conn`, processing stale
  // dead-pick removals along the way (shared by the drain re-handoff and the
  // crash-replay paths). Returns kInvalidNode when nothing is assignable.
  NodeId PickLiveNode(ConnId conn, const std::vector<TargetId>& pending,
                      Dispatcher::ReassignReason reason) LARD_REQUIRES(state_mutex_);

  // --- crash-transparent replay (all loop 0) ---

  // The journal applies to handed-off connections only (never relaying).
  bool ReplayEligible() const {
    return config_.replay_enabled && config_.mechanism != Mechanism::kRelayingFrontEnd;
  }
  // Restarts `conn`'s journal from the unserved requests a handback carries
  // (cooperative node change: drain giveback or migration relay).
  void RebuildJournalFromHandback(ConnId conn, const HandbackMsg& msg)
      LARD_REQUIRES(state_mutex_);
  // Crash path for one orphaned connection of `dead_node`: replay the
  // journaled idempotent tail onto a surviving node over kReplay, or give up
  // cleanly (best-effort 502/close, counted).
  void TryReplayOrphan(ConnId conn, NodeId dead_node) LARD_REQUIRES(state_mutex_);
  // Completes a graceful admin removal once `node`'s connections migrated
  // away (or its grace period expired).
  void MaybeFinalizeRetire(NodeId node) LARD_REQUIRES(state_mutex_);
  // Connection-granularity policies/mechanisms never consult per request.
  // Callers hold state_mutex_ (reads the dispatcher's policy).
  bool AutonomousHandoffs() const LARD_REQUIRES(state_mutex_) {
    return !(PolicyTableRow(dispatcher_->policy()).per_request &&
             (config_.mechanism == Mechanism::kBackEndForwarding ||
              config_.mechanism == Mechanism::kMultipleHandoff));
  }

  // Wires one control session into nodes_[node] (creates the slot).
  void AttachControl(NodeId node, UniqueFd control_fd);
  // Health sweep: auto-remove nodes whose heartbeats stopped.
  void CheckNodeHealth() LARD_EXCLUDES(state_mutex_);
  // Shared removal path for admin removes, heartbeat timeouts and control
  // EOFs. `reason` goes to the log and the removal counters. Caller holds
  // state_mutex_.
  bool RemoveNodeInternal(NodeId node, const char* reason) LARD_REQUIRES(state_mutex_);
  // Loop 0 only: nodes_ (and the channels in it) are loop-0 confined.
  bool NodeLive(NodeId node) const {
    return node >= 0 && node < static_cast<NodeId>(nodes_.size()) &&
           nodes_[static_cast<size_t>(node)].control != nullptr &&
           nodes_[static_cast<size_t>(node)].control->open();
  }

  std::vector<TargetId> PathsToTargets(const std::vector<std::string>& paths) const;
  RequestDirective DirectiveFor(const std::string& path, const Assignment& assignment) const;
  int64_t NowMs() const;
  // Periodic heartbeat sweep; reschedules itself while the front-end lives.
  void ScheduleHealthSweep(int64_t period_ms);
  // One telemetry tick (loop 0, self-rescheduling guarded timer): samples
  // this replica's rates/gauges into telemetry_, evaluates the watchdog over
  // the freshest local + mirrored values, refreshes the health snapshot.
  void TelemetryTick() LARD_EXCLUDES(state_mutex_, telemetry_mutex_, health_json_mutex_);
  // The mirror store for back-end `node` (created on first telemetry row).
  TimeSeriesStore* NodeTelemetry(NodeId node) LARD_EXCLUDES(telemetry_mutex_);

  // Mesh internals (loop 0; locked helpers note their caller's lock).
  bool MeshEnabled() const { return mesh_ != nullptr; }
  // Queues (node, target) vcache news for the next outgoing gossip delta.
  // Caller holds state_mutex_.
  void RecordFetchHints(const std::vector<TargetId>& targets,
                        const std::vector<Assignment>& assignments)
      LARD_REQUIRES(state_mutex_);
  void OnPeerMessage(uint32_t peer, uint8_t type, std::string_view payload)
      LARD_EXCLUDES(state_mutex_);
  void OnPeerClosed(uint32_t peer) LARD_REQUIRES(state_mutex_);
  // One gossip tick: publish this replica's delta, refresh the /mesh
  // snapshot and the labelled gauges; reschedules itself.
  void GossipTick() LARD_EXCLUDES(state_mutex_);
  void UpdateMeshSnapshot() LARD_REQUIRES(state_mutex_) LARD_EXCLUDES(mesh_json_mutex_);

  // The registry the front end keeps its counts in when none is shared;
  // metrics_ then points here. Declared first: metrics_ is initialized from
  // it.
  std::unique_ptr<MetricsRegistry> own_metrics_;
  MetricsRegistry* metrics_;
  const ClusterConfig config_;
  const int fe_id_;
  EventLoopGroup* loops_;
  EventLoop* loop_;  // loops_->loop(0): the control-plane loop
  const TargetCatalog* catalog_;
  // Guards deferred callbacks (posted erases, health/retire timers), which
  // the loops may drain after this front-end is torn down. Invalidated first
  // in the destructor.
  LivenessToken alive_;

  // The routing-state façade lock: dispatcher_, live_in_dispatcher_,
  // disk_table_, mesh_ and pending_hints_ are mutated from every shard loop
  // (client batches) and loop 0 (control traffic, membership, gossip), and
  // all of them feed one LARD decision, so they share one mutex. Uncontended
  // with fe_loops=1. nodes_, journal_ and the fe_peers_ channels are NOT
  // under this lock — they are loop-0 confined by design (checked by
  // AssertInLoopThread() and the concurrency linter, not TSA).
  mutable Mutex state_mutex_;
  std::unique_ptr<DiskTable> disk_table_ LARD_PT_GUARDED_BY(state_mutex_);
  std::unique_ptr<Dispatcher> dispatcher_ LARD_PT_GUARDED_BY(state_mutex_);
  // Written by Start() before any loop runs; immutable afterwards.
  uint16_t port_ = 0;
  std::vector<NodeLink> nodes_;  // index = NodeId; loop-0 confined

  // Reactor shards (size = loops_->size()); shard 0 runs on loop 0.
  std::vector<std::unique_ptr<LoopShard>> shards_;

  // Conns with dispatcher state.
  std::set<ConnId> live_in_dispatcher_ LARD_GUARDED_BY(state_mutex_);
  // Admin-removed live nodes awaiting giveback.
  std::set<NodeId> retiring_ LARD_GUARDED_BY(state_mutex_);
  std::function<void(NodeId)> on_node_removed_;

  // Crash replay: the retained client fds + unacknowledged request tails.
  // Loop-0 confined (mutated alongside nodes_ on the control plane).
  ReplayJournal journal_;
  // Monotone counter stamped into NodeLink::failure_epoch per detected death.
  uint64_t next_failure_epoch_ LARD_GUARDED_BY(state_mutex_) = 1;
  // The connection PickLiveNode is currently placing (0 = none): a nested
  // stale-pick removal must leave it to the outer caller instead of
  // replaying it a second time.
  ConnId placement_in_progress_ LARD_GUARDED_BY(state_mutex_) = 0;

  // The mesh (num_frontends > 1; null otherwise — the pointer itself is set
  // once in the constructor, so MeshEnabled() may read it lock-free).
  std::unique_ptr<MeshStateTable> mesh_ LARD_PT_GUARDED_BY(state_mutex_);
  std::map<uint32_t, std::unique_ptr<FramedChannel>> fe_peers_;  // loop-0 confined
  // (node << 32) | target
  std::unordered_set<uint64_t> pending_hints_ LARD_GUARDED_BY(state_mutex_);
  uint64_t gossip_seq_ LARD_GUARDED_BY(state_mutex_) = 0;
  mutable Mutex mesh_json_mutex_;
  // Refreshed each tick; read by the admin thread.
  std::string mesh_json_ LARD_GUARDED_BY(mesh_json_mutex_);

  // Telemetry: this replica's own store + one mirror store per back-end
  // (fed by kNodeStatus rows on loop 0, read by the admin thread). The store
  // objects are internally synchronized; the mirror map itself needs the
  // mutex because loop 0 inserts while admin readers iterate.
  std::unique_ptr<TimeSeriesStore> telemetry_;
  std::unique_ptr<SloWatchdog> watchdog_;
  mutable Mutex telemetry_mutex_;
  std::map<NodeId, std::unique_ptr<TimeSeriesStore>> node_telemetry_
      LARD_GUARDED_BY(telemetry_mutex_);
  mutable Mutex health_json_mutex_;
  std::string health_json_ LARD_GUARDED_BY(health_json_mutex_);
  // Window samplers + scratch (loop-0 confined, like nodes_).
  CounterRateSampler rate_conns_;
  CounterRateSampler rate_handoffs_;
  CounterRateSampler rate_consults_;
  CounterRateSampler rate_replays_;
  CounterRateSampler rate_giveups_;
  CounterRateSampler rate_rejected_;
  CounterRateSampler rate_idle_closes_;
  std::vector<HistogramWindowSampler> wakeup_windows_;  // one per loop
  std::unique_ptr<ProcessMetrics> process_metrics_;
  std::vector<std::pair<int, double>> telemetry_scratch_;
  int64_t telemetry_last_ms_ = 0;

  Tracer* const tracer_;
  TraceRing* trace_ring_ = nullptr;  // shard 0's ring; control-plane spans

  FrontEndCounters counters_;
  std::atomic<uint64_t> pinning_violations_{0};
  // Runtime-tunable idle deadline (seeded from config_.idle_timeout_ms);
  // read on every arm/rearm from the shard loops, written by the admin path.
  std::atomic<int64_t> idle_timeout_ms_{0};
  // Shard-owned open connections (accepted, pre-handoff or relaying).
  // Atomic — bumped on the shard loops, read by telemetry and tests. The
  // handed-off twin is derived from the dispatcher (open_conns_handed_off).
  std::atomic<int64_t> conns_fe_owned_{0};
  MetricGauge* metric_active_nodes_ = nullptr;
  // Mesh gauges (num_frontends > 1; null otherwise).
  MetricGauge* metric_mesh_epoch_ = nullptr;
  MetricGauge* metric_mesh_lag_ms_ = nullptr;
  MetricGauge* metric_mesh_peers_ = nullptr;
  MetricGauge* metric_mesh_divergence_ = nullptr;
};

}  // namespace lard

#endif  // SRC_PROTO_FRONTEND_H_
