// Trace-driven cluster simulator (Section 6): a front-end plus N back-ends,
// each back-end a CPU + disk + LRU main-memory file cache, driven closed-loop
// by a Trace and distributing requests through the shared src/core Dispatcher.
//
// Like the paper's simulator, the network is infinitely fast and data
// transmission is continuous (no TCP slow-start); throughput is limited by
// back-end CPU and disk. Front-end CPU is *accounted* (for the scalability
// experiment) but only throttles when `model_front_end_limit` is set — except
// under the relaying mechanism, where the FE data path always limits.
#ifndef SRC_SIM_CLUSTER_SIM_H_
#define SRC_SIM_CLUSTER_SIM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/cluster_types.h"
#include "src/core/dispatcher.h"
#include "src/core/lard_params.h"
#include "src/core/lru_cache.h"
#include "src/mesh/mesh_state.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/resources.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace lard {

// A scripted control-plane event, replayed at a fixed simulated time — the
// simulator's deterministic twin of the prototype's admin API and heartbeat
// detector. kFail removes the node instantly (crash + detection, with the
// detection latency abstracted away); its in-flight requests complete but its
// connections are failed over: each affected session finishes the current
// batch, then re-opens as a fresh connection that the dispatcher re-assigns.
// kNodeDrain mirrors the prototype's reverse handoff: each connection on the
// draining node finishes its in-flight batch, then *migrates* — the
// dispatcher reassigns it to a surviving node (ReassignConnection) instead of
// pinning it until the client closes.
enum class MembershipAction { kNodeJoin, kNodeDrain, kNodeFailure };

struct MembershipEvent {
  SimTimeUs at_us = 0;
  MembershipAction action = MembershipAction::kNodeFailure;
  NodeId node = kInvalidNode;  // ignored for kNodeJoin (ids are allocated)
  // kNodeJoin only: the joining node's capacity weight (dispatcher view) and
  // true hardware speed (CPU + disk service times divide by it).
  double weight = 1.0;
  double speed = 1.0;
};

struct ClusterSimConfig {
  int num_nodes = 4;
  Policy policy = Policy::kExtendedLard;
  // Heterogeneous clusters. `node_speeds[i]` scales node i's real hardware:
  // CPU and disk service times divide by it (2.0 = twice as fast).
  // `node_weights[i]` is what the *dispatcher believes* about node i's
  // capacity — weighted policies normalize load by it. Keeping the two
  // separate lets benches measure what happens when belief and hardware
  // disagree (e.g. unweighted extLARD on a skewed cluster: weights all 1.0,
  // speeds skewed). Both are padded with 1.0 to num_nodes.
  std::vector<double> node_weights;
  std::vector<double> node_speeds;
  Mechanism mechanism = Mechanism::kBackEndForwarding;
  LardParams lard_params;
  ServerCostModel server_costs = ApacheCosts();
  DiskCostModel disk_costs;
  FrontEndCostModel fe_costs;

  // Back-end main-memory file cache (and the dispatcher's model of it).
  uint64_t backend_cache_bytes = 85ull * 1024 * 1024;

  // Closed-loop client population: this many sessions are kept in flight per
  // back-end node ("the request arrival rate was matched to the aggregate
  // throughput of the server").
  int concurrent_sessions_per_node = 64;

  // When false (default) the P-HTTP session structure of the trace is used;
  // when true the trace is flattened to one connection per request.
  bool http10 = false;

  // Replay the trace's inter-batch think times instead of sending the next
  // batch as soon as the previous one completes.
  bool use_think_times = false;

  // Serialize front-end work through a real CPU (otherwise only accounted).
  bool model_front_end_limit = false;

  // Reactor-per-core front ends: event loops (cores) per front-end, the
  // simulator's twin of ClusterConfig::fe_loops. Each session is pinned to
  // one loop of its front-end for life (as in the prototype) and, when
  // model_front_end_limit is set, each loop is its own serialized CPU — so
  // an FE saturates at ~fe_loops times the single-loop knee. 1 = the
  // classic single-loop front-end, bit-identical to before.
  int fe_loops = 1;

  // Replicated front-end tier (the mesh). Sessions are dealt round-robin
  // across this many front-ends, each with its own Dispatcher — its own load
  // accounting, virtual caches and (when model_front_end_limit is set) its
  // own CPU — kept approximately consistent by gossip. 1 = the classic
  // single-dispatcher simulator, bit-identical to before the mesh existed.
  int num_frontends = 1;
  // Mesh sync period: every interval each front-end's delta (per-node local
  // load, weights, membership epoch, vcache hints) is encoded through the
  // real gossip wire codec and applied by every peer. Larger intervals mean
  // staler remote state — the multi_frontend bench sweeps this.
  SimTimeUs gossip_interval_us = 5000;

  // Control-plane scenario to replay (sorted or not; scheduled by at_us).
  std::vector<MembershipEvent> membership_events;

  // Failure replay — the deterministic twin of the prototype's
  // crash-transparent request replay. When set, a NodeFailure no longer lets
  // the dead node's in-flight work complete: each orphaned connection is
  // reassigned to a survivor at the crash instant (same ReassignConnection
  // path as the prototype), its in-flight *idempotent* requests re-issue
  // there (counted in `replayed_requests`), and its non-idempotent ones are
  // lost (client-visible failure; `lost_requests`). The shared invariant
  // with the prototype: lost_requests == non_idempotent_in_flight.
  bool failure_replay = false;
  // Fraction of requests carrying a non-idempotent method (POST-like);
  // decided per request with a deterministic RNG.
  double non_idempotent_fraction = 0.0;
  uint64_t replay_seed = 1234;
};

struct BackendSimMetrics {
  uint64_t requests = 0;       // requests whose response this node produced
  uint64_t cache_hits = 0;
  uint64_t disk_reads = 0;
  uint64_t bytes_sent = 0;
  double cpu_busy_us = 0.0;
  double disk_busy_us = 0.0;
  double cpu_utilization = 0.0;
  double disk_utilization = 0.0;
};

struct ClusterSimMetrics {
  double sim_seconds = 0.0;
  uint64_t total_requests = 0;
  uint64_t total_connections = 0;
  double throughput_rps = 0.0;
  double throughput_mbps = 0.0;
  double cache_hit_rate = 0.0;
  double mean_batch_latency_ms = 0.0;
  // Utilization of the *bottleneck* front-end (== the only one when
  // num_frontends is 1); per_fe_utilization has every front-end's figure.
  double fe_utilization = 0.0;
  std::vector<double> per_fe_utilization;
  double mean_cpu_idle = 0.0;   // across back-ends (final membership)
  double mean_disk_idle = 0.0;  // across back-ends (final membership)
  std::vector<BackendSimMetrics> per_node;
  DispatcherCounters dispatcher;
  // Control plane.
  uint64_t nodes_joined = 0;
  uint64_t nodes_failed = 0;
  uint64_t nodes_drained = 0;
  uint64_t failovers = 0;    // connections re-opened after their node died
  uint64_t rehandoffs = 0;   // connections migrated off a draining node
  // Failure replay (config.failure_replay only; all zero otherwise).
  uint64_t replayed_connections = 0;  // orphans continued on a survivor
  uint64_t replayed_requests = 0;     // idempotent in-flight requests re-issued
  uint64_t lost_requests = 0;         // non-idempotent in-flight requests dropped
  uint64_t non_idempotent_in_flight = 0;  // at crash instants; == lost_requests
  uint64_t replay_unplaceable = 0;    // orphans with no assignable survivor
  // Scripted events dropped by validation (non-positive/non-finite weight
  // or speed on a NodeJoin).
  uint64_t rejected_membership_events = 0;

  // Front-end mesh (num_frontends > 1; zero/true otherwise).
  int frontends = 1;
  uint64_t gossip_rounds = 0;
  uint64_t gossip_deltas_applied = 0;
  uint64_t gossip_bytes = 0;         // encoded delta bytes shipped peer-to-peer
  uint64_t gossip_stale_drops = 0;
  // Applied deltas whose membership/weight beliefs disagreed with the
  // receiver's. The sim applies membership events to every replica at the
  // same instant, so this must stay 0 there; in the prototype transient
  // divergence is normal (the lard_mesh_divergence gauge tracks it).
  uint64_t gossip_divergent_deltas = 0;
  double max_gossip_lag_us = 0.0;    // oldest peer state observed at any round
  // Invariants the multi_frontend bench (and tests) assert on:
  uint64_t mesh_epoch_regressions = 0;   // monotone membership epochs: must be 0
  uint64_t ownership_violations = 0;     // a conn claimed by >1 dispatcher: must be 0
  bool mesh_epochs_converged = true;     // all dispatchers ended on one epoch
  bool mesh_load_conserved = true;       // every dispatcher's load drained to 0
};

class ClusterSim {
 public:
  // `trace` must outlive the simulator. When config.http10 is set, a
  // flattened copy is made internally.
  ClusterSim(const ClusterSimConfig& config, const Trace* trace);
  ~ClusterSim();

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  // Replays the whole trace to completion and returns the metrics.
  // Call at most once.
  ClusterSimMetrics Run();

 private:
  struct Backend;
  struct SessionRun;
  class DiskQueueStats;

  void StartNextSession();
  void ApplyMembershipEvent(const MembershipEvent& event);
  // Failure-replay mode: continue one orphaned run on a survivor at the
  // crash instant — reassign the connection, re-issue its idempotent
  // in-flight requests there, drop (and count) the non-idempotent ones.
  void ReplayOrphanedRun(SessionRun* run);
  // Completion trampoline for failure-replay mode: drops stale completions
  // from a crashed node (the replacement was already issued or the request
  // was declared lost) and survives the run finishing early.
  void OnGuardedResponseDone(uint64_t run_id, size_t index, uint32_t generation);
  SessionRun* FindRun(uint64_t run_id);
  // Re-opens a fresh dispatcher connection for a run whose node died.
  void ReopenIfLost(SessionRun* run);
  // Migrates a run off a draining node (reverse handoff) before its next
  // batch; `targets` seed the new node's virtual cache.
  void RehandoffIfDraining(SessionRun* run, const std::vector<TargetId>& targets);
  void ProcessBatch(SessionRun* run);
  void IssueRequest(SessionRun* run, size_t index, TargetId target, const Assignment& assignment);
  // Serves one request at `node`: per-request CPU, then (for a model-declared
  // miss) the disk, then transmit CPU. `cached` is the dispatcher model's
  // verdict carried by the assignment.
  void ServeAtNode(NodeId node, TargetId target, bool cached, double extra_cpu_us,
                   std::function<void()> done);
  void OnResponseDone(SessionRun* run);
  void FinishSession(SessionRun* run);
  // Runs `done` after charging `cost_us` of CPU at front-end `fe`'s event
  // loop `loop` (serialized or merely accounted, per config).
  void FrontEndWork(int fe, int loop, double cost_us, std::function<void()> done);

  // The dispatcher owning `run`'s connection (its front-end's replica).
  Dispatcher& DispatcherFor(const SessionRun* run);
  // Mesh mode only: the authoritative verdict — is `target` resident in
  // `node`'s real cache? Updates the real cache per `cache_after_miss` and
  // queues a vcache gossip hint for `fe`'s next delta.
  bool TrueCacheServe(int fe, NodeId node, TargetId target, bool cache_after_miss);
  // One mesh round: every front-end's delta travels the wire codec to every
  // peer; also runs the unique-ownership audit. Reschedules itself while
  // sessions remain.
  void GossipRound();
  bool MeshMode() const { return config_.num_frontends > 1; }

  ClusterSimConfig config_;
  Trace http10_trace_;          // used only when config.http10
  const Trace* trace_;          // points at the caller's trace or http10_trace_
  EventQueue queue_;
  std::unique_ptr<DiskQueueStats> disk_stats_;
  // One dispatcher per front-end; [0] is the only one without a mesh.
  std::vector<std::unique_ptr<Dispatcher>> dispatchers_;
  std::vector<std::unique_ptr<MeshStateTable>> mesh_;  // empty when 1 FE
  std::vector<std::unique_ptr<Backend>> backends_;
  // Mesh mode: the back-ends' *authoritative* caches. With one front-end the
  // dispatcher's virtual caches are exact, so the simulator uses its verdicts
  // directly; with N replicas each dispatcher's view is approximate and
  // service outcomes must come from this single source of truth.
  std::vector<LruCache> true_caches_;
  // Per-front-end vcache hints accumulated since the last gossip round,
  // deduplicated ((node << 32) | target keys).
  std::vector<std::unordered_set<uint64_t>> pending_hints_;
  std::vector<uint64_t> gossip_seq_;
  // One serialized CPU per (front-end, loop) when FE limiting is on; slot
  // fe * fe_loops + loop.
  std::vector<std::unique_ptr<FifoServer>> fe_cpus_;
  std::vector<double> fe_accounted_us_;  // one slot per front-end
  std::vector<int> next_fe_loop_;        // per-FE round-robin loop dealing

  size_t next_session_ = 0;
  size_t sessions_done_ = 0;
  ConnId next_conn_id_ = 1;
  uint64_t next_run_id_ = 1;
  std::vector<std::unique_ptr<SessionRun>> active_runs_;
  // Failure-replay mode: run-id lookup for the guarded completion
  // trampoline, which fires once per response (O(1) beats scanning
  // active_runs_ on the hot path).
  std::unordered_map<uint64_t, SessionRun*> runs_by_id_;

  uint64_t total_requests_ = 0;
  uint64_t total_bytes_ = 0;
  StreamingStats batch_latency_us_;
  bool ran_ = false;

  // Control plane.
  uint64_t nodes_joined_ = 0;
  uint64_t nodes_failed_ = 0;
  uint64_t nodes_drained_ = 0;
  uint64_t failovers_ = 0;
  uint64_t rehandoffs_ = 0;
  uint64_t rejected_membership_events_ = 0;
  // Failure replay.
  std::unique_ptr<Rng> replay_rng_;  // per-request idempotency draws
  uint64_t replayed_connections_ = 0;
  uint64_t replayed_requests_ = 0;
  uint64_t lost_requests_ = 0;
  uint64_t non_idempotent_in_flight_ = 0;
  uint64_t replay_unplaceable_ = 0;

  // Mesh bookkeeping.
  uint64_t gossip_rounds_ = 0;
  uint64_t gossip_deltas_applied_ = 0;
  uint64_t gossip_bytes_ = 0;
  uint64_t gossip_divergent_deltas_ = 0;
  uint64_t ownership_violations_ = 0;
  double max_gossip_lag_us_ = 0.0;
};

}  // namespace lard

#endif  // SRC_SIM_CLUSTER_SIM_H_
