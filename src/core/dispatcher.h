// The front-end dispatcher: the mechanism-side decision engine shared
// verbatim by the discrete-event simulator (src/sim) and the socket
// prototype (src/proto) so that simulated and measured policy behaviour is
// the same code. *Which node* serves a request is delegated to a pluggable
// RoutingPolicy (src/core/policy.h — WRR, LARD, extended LARD, weighted
// extended LARD or LARD/R); the dispatcher owns all state the policies
// decide over and applies their decisions' side effects.
//
// The dispatcher never touches sockets or simulated hardware; it consumes
// connection-lifecycle events and emits Assignments. It maintains:
//   * per-node load in the paper's load units: 1 per active handed-off
//     connection on its handling node, plus 1/N per remote node serving
//     requests of an N-request pipelined batch, held for the batch service
//     time (Section 4.2's accounting),
//   * per-node *virtual caches* (LRU over target ids, same sizes as the
//     back-end caches): the front-end's model of what each back-end caches —
//     the paper's target->node mappings, "updated each time a target is
//     fetched from a backend node",
//   * per-connection state: handling node, activity, outstanding fractional
//     loads,
//   * per-node capacity weights (heterogeneous node speeds; weighted
//     policies compare load/weight),
//   * per-node membership state (active / draining / dead): the control
//     plane's dynamic view of the cluster. `config.num_nodes` is only the
//     *initial* membership; nodes join via AddNode and leave via
//     DrainNode/RemoveNode at runtime. Node ids are stable and never reused.
//
// Not thread-safe: the simulator is single-threaded and the prototype drives
// it from its single dispatcher thread (mirroring the kernel dispatcher
// module, which serializes on the control session).
//
// Concurrency contract (docs/CONCURRENCY.md): the dispatcher carries no lock
// of its own. The prototype serializes every call through
// FrontEnd::state_mutex_ (the FrontEnd is the capability); the simulator is
// single-threaded. That external guard is not expressible as a GUARDED_BY on
// members here, so this class stays annotation-free by design.
#ifndef SRC_CORE_DISPATCHER_H_
#define SRC_CORE_DISPATCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/cluster_types.h"
#include "src/core/lard_params.h"
#include "src/core/lru_cache.h"
#include "src/core/policy.h"
#include "src/trace/trace.h"
#include "src/util/metrics.h"

namespace lard {

struct DispatcherConfig {
  Policy policy = Policy::kExtendedLard;
  Mechanism mechanism = Mechanism::kBackEndForwarding;
  LardParams params;
  int num_nodes = 1;  // initial membership: nodes [0, num_nodes) start active
  // Capacity weight of initial node i (1.0 = baseline; 2.0 = twice the
  // speed). Shorter than num_nodes is padded with 1.0; weights must be > 0.
  // Weighted policies ("wextlard") compare load/weight instead of raw load.
  std::vector<double> node_weights;
  // Capacity of the dispatcher's per-node virtual cache; should match the
  // back-ends' file-cache size.
  uint64_t virtual_cache_bytes = 85ull * 1024 * 1024;
  // Optional: decision counters and per-node load gauges are published here
  // (lard_dispatcher_* and lard_node_load{node="k"}).
  MetricsRegistry* metrics = nullptr;
  // Optional replicated-front-end overlay: per-node load gossiped by the
  // *other* dispatchers of a front-end mesh, added on top of this
  // dispatcher's own accounting in every policy's view (must outlive the
  // dispatcher). Null = single front-end, overlay is zero.
  const RemoteLoadProvider* remote_loads = nullptr;
};

// Aggregate decision counters, for tests, metrics and EXPERIMENTS.md tables.
struct DispatcherCounters {
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t handoffs = 0;
  uint64_t local_serves = 0;
  uint64_t forwards = 0;
  uint64_t migrations = 0;
  uint64_t relays = 0;
  uint64_t served_without_caching = 0;  // extLARD "disk busy, don't cache"
  // Control plane.
  uint64_t nodes_added = 0;
  uint64_t nodes_drained = 0;
  uint64_t nodes_removed = 0;
  uint64_t orphaned_connections = 0;  // open conns whose handling node died
  uint64_t reassignments = 0;  // connections moved off a draining/retiring node
  // Subset of `reassignments` made because the previous handling node
  // *crashed* (failure replay), as opposed to cooperative drain givebacks.
  uint64_t failure_reassignments = 0;

  // Field-wise sum: the simulator totals its front ends' dispatchers, the
  // cluster's /metrics bridge its replicas'.
  DispatcherCounters& operator+=(const DispatcherCounters& other) {
    connections += other.connections;
    requests += other.requests;
    handoffs += other.handoffs;
    local_serves += other.local_serves;
    forwards += other.forwards;
    migrations += other.migrations;
    relays += other.relays;
    served_without_caching += other.served_without_caching;
    nodes_added += other.nodes_added;
    nodes_drained += other.nodes_drained;
    nodes_removed += other.nodes_removed;
    orphaned_connections += other.orphaned_connections;
    reassignments += other.reassignments;
    failure_reassignments += other.failure_reassignments;
    return *this;
  }
};

class Dispatcher {
 public:
  // `catalog` supplies target sizes for the virtual caches; `stats` supplies
  // back-end disk-queue lengths (extended LARD's only back-end feedback).
  // Both must outlive the dispatcher.
  Dispatcher(const DispatcherConfig& config, const TargetCatalog* catalog,
             const BackendStatsProvider* stats);

  // A client connection was accepted (no request content seen yet).
  void OnConnectionOpen(ConnId conn);

  // The next batch of pipelined requests arrived on `conn`. Returns one
  // assignment per target, in order. The first assignment ever returned for
  // a connection is the handoff decision (kHandoff / kRelay). Arrival of a
  // batch also tells the dispatcher that the previous batch on this
  // connection has been fully served (the paper's batch-service estimate),
  // so the previous batch's fractional remote loads are released.
  std::vector<Assignment> OnBatch(ConnId conn, const std::vector<TargetId>& targets);

  // The connection went idle (client ACK silence): the current batch is
  // done; release its load. The connection stays open and may receive more
  // batches.
  void OnConnectionIdle(ConnId conn);

  // The connection closed. Releases all load and state.
  void OnConnectionClose(ConnId conn);

  // --- membership (the control plane) ---

  // Adds a node with an empty virtual cache, zero load and the given
  // capacity weight; returns its (freshly allocated, never-recycled) id. The
  // node is immediately assignable.
  NodeId AddNode(double weight = 1.0);

  // Stops new assignments (handoffs, forwards, migrations, relays) to
  // `node`; its active persistent connections keep being served. Returns
  // false when `node` is not an active node or is the last active node
  // (draining it would leave nothing to assign to).
  bool DrainNode(NodeId node);

  // Removes `node` (admin action or detected failure): evicts its virtual
  // cache, zeroes its load and forgets every connection it was handling.
  // The orphaned connection ids are appended to *orphans (when non-null) so
  // the caller can fail them over or tear them down; their dispatcher state
  // is gone either way. Returns false when `node` is already dead or
  // invalid. Removing the last active node is allowed — failures don't ask
  // permission — after which OnBatch must not be called for new work until a
  // node is added (see active_node_count()).
  bool RemoveNode(NodeId node, std::vector<ConnId>* orphans = nullptr);

  // Moves `conn` onto a fresh assignable node — the reverse-handoff path: a
  // draining or retiring back-end gave the connection back to the front-end,
  // which asks for a new placement instead of orphaning the state. Preserves
  // the connection's accounting: an active 1-unit load moves from the old
  // handling node to the new one, remote batch fractions stay where they are,
  // and the new node's virtual cache is seeded with `pending_targets` (the
  // connection's unserved requests, so LARD affinity guides the pick).
  // Returns the new handling node, or kInvalidNode when the connection is
  // unknown or no node is assignable (caller falls back to 503/close).
  // `reason` only affects counter attribution: kFailure marks a crash-replay
  // reassignment (the old node died uncooperatively) on top of the shared
  // reassignment count.
  enum class ReassignReason { kDrain, kFailure };
  NodeId ReassignConnection(ConnId conn, const std::vector<TargetId>& pending_targets = {},
                            ReassignReason reason = ReassignReason::kDrain);

  // Merges a gossip hint from a peer front-end: `target` was (or is about to
  // be) fetched into `node`'s real cache by a connection some other
  // dispatcher placed there. Keeps this dispatcher's virtual-cache model of
  // the shared back-ends converging on reality so LARD affinity survives
  // replication. No load or counter side effects; dead nodes are ignored.
  void NoteRemoteFetch(NodeId node, TargetId target);

  // Runtime policy switch (the policy knob of admin POST /config). Existing
  // connections keep their handling nodes and the round-robin cursor
  // persists; only future decisions use the new policy. Switching to the
  // current policy is a no-op, so stateful policies keep their state (e.g.
  // LARD/R's replica sets).
  void SetPolicy(Policy policy);

  // --- introspection (tests, metrics, admin API) ---
  Policy policy() const { return config_.policy; }
  // Total node slots ever allocated (including drained/dead ids).
  int num_node_slots() const { return static_cast<int>(states_.size()); }
  // Monotone counter of membership mutations (AddNode/DrainNode/RemoveNode).
  // The front-end mesh gossips it so replicas can order membership news:
  // a delta carrying a lower epoch than previously seen from the same peer
  // is stale and must be dropped.
  uint64_t membership_epoch() const { return membership_epoch_; }
  // The gossip overlay's answer for `node` (0 when no mesh is configured).
  double RemoteNodeLoad(NodeId node) const {
    return config_.remote_loads == nullptr ? 0.0 : config_.remote_loads->RemoteLoad(node);
  }
  int active_node_count() const;
  NodeState node_state(NodeId node) const;
  double NodeLoad(NodeId node) const;
  double NodeWeight(NodeId node) const;
  // Load per unit of capacity (load/weight) — the admin API's heterogeneity
  // signal.
  double NormalizedNodeLoad(NodeId node) const;
  NodeId HandlingNode(ConnId conn) const;
  // Compact "id:normalized_load" summary of the assignable membership — the
  // candidate set the policy weighed for its last decision. Bounded to
  // `max_nodes` entries ("+" marks truncation) so it fits a trace span's
  // fixed detail buffer.
  std::string DescribeLoads(int max_nodes = 6) const;
  // Open connections currently handled by `node` (retire bookkeeping).
  size_t ConnectionCountOn(NodeId node) const;
  bool TargetCachedAt(NodeId node, TargetId target) const;
  uint64_t VirtualCacheBytes(NodeId node) const;
  const DispatcherCounters& counters() const { return counters_; }
  const DispatcherConfig& config() const { return config_; }
  size_t open_connections() const { return conns_.size(); }

 private:
  struct ConnState {
    NodeId handling = kInvalidNode;
    bool active = false;               // contributes 1 load unit to handling
    std::vector<NodeId> remote_nodes;  // fractional loads of the current batch
    double remote_fraction = 0.0;      // the 1/N each of them carries
  };

  // The read-only window the active RoutingPolicy decides over: the real
  // capacity weights for a weighted policy, unit weights otherwise.
  DispatcherView View() const;
  // Applies a policy's SubsequentDecision: maps it to a serve-local /
  // forward / migrate assignment per the mechanism and performs the load
  // accounting and counter updates.
  Assignment ApplySubsequent(ConnState& conn_state, TargetId target,
                             const SubsequentDecision& decision);

  // Applies the cache-model side effects of serving `target` per `assignment`.
  void ApplyCacheEffects(TargetId target, const Assignment& assignment);

  void ReleaseBatchLoads(ConnState& conn_state);

  // True when new work may be assigned to `node`.
  bool Assignable(NodeId node) const {
    return states_[static_cast<size_t>(node)] == NodeState::kActive;
  }
  bool Dead(NodeId node) const {
    return states_[static_cast<size_t>(node)] == NodeState::kDead;
  }
  // All load_ mutations go through here so the published gauges track.
  void AddLoad(NodeId node, double delta);
  // All handling-node changes go through here so handled_counts_ stays exact
  // (ConnectionCountOn is O(1) and queried per control message during
  // retires).
  void SetHandling(ConnState& conn_state, NodeId node);

  bool Cached(NodeId node, TargetId target) const { return vcaches_[node].Contains(target); }
  uint64_t SizeOf(TargetId target) const { return catalog_->Get(target).size_bytes; }

  DispatcherConfig config_;
  const TargetCatalog* catalog_;
  const BackendStatsProvider* stats_;
  std::unique_ptr<RoutingPolicy> policy_;
  PolicyState policy_state_;  // shared rr cursor; survives policy switches

  std::vector<double> load_;
  std::vector<double> weights_;  // capacity weight per node slot
  std::vector<LruCache> vcaches_;
  std::vector<NodeState> states_;
  std::vector<uint64_t> handled_counts_;  // open connections per handling node
  std::vector<MetricGauge*> load_gauges_;  // nullptrs when metrics disabled
  std::unordered_map<ConnId, ConnState> conns_;
  DispatcherCounters counters_;
  uint64_t membership_epoch_ = 0;
};

}  // namespace lard

#endif  // SRC_CORE_DISPATCHER_H_
