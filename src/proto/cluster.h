// In-process prototype cluster harness (Figure 12's testbed in one process):
// wires up one front-end and N back-ends, each on its own event-loop thread,
// connected by unix-socket control sessions, and exposes the front-end's TCP
// port. Used by the integration tests, the examples and the Figure 13 bench.
//
// The harness is also where the control plane becomes operable: it owns the
// shared MetricsRegistry, runs the AdminServer on the front-end's loop, and
// implements the membership verbs the admin API exposes — AddNode (spin up a
// back-end thread and join it), DrainNode, RemoveNode (graceful teardown) and
// KillNode (simulated crash: the node's loop stops dead, heartbeats cease,
// and the front-end's health tracker auto-removes it).
#ifndef SRC_PROTO_CLUSTER_H_
#define SRC_PROTO_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/admin/admin_server.h"
#include "src/core/cluster_types.h"
#include "src/net/event_loop_group.h"
#include "src/obs/process_stats.h"
#include "src/proto/backend_server.h"
#include "src/proto/cluster_config.h"
#include "src/proto/content_store.h"
#include "src/proto/frontend.h"
#include "src/trace/trace.h"
#include "src/util/metrics.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/util/tracing.h"

namespace lard {

// Snapshot of the whole cluster's counters.
struct ClusterSnapshot {
  uint64_t requests_served = 0;
  uint64_t local_hits = 0;
  uint64_t local_misses = 0;
  uint64_t lateral_out = 0;
  uint64_t bytes_to_clients = 0;
  uint64_t connections = 0;
  uint64_t consults = 0;
  uint64_t handoffs = 0;
  uint64_t migrations = 0;  // multiple-handoff hand-backs
  uint64_t rehandoffs = 0;  // drain/failure givebacks re-handed-off by the FE
  uint64_t drain_handbacks = 0;  // connections the back-ends gave back while draining
  uint64_t replays = 0;          // crashed-node conns replayed onto survivors
  uint64_t replay_giveups = 0;   // orphans that could not be replayed (clean 502/close)
  uint64_t replays_adopted = 0;  // kReplay adoptions counted at the back-ends
  uint64_t spliced_responses = 0;  // replayed responses emitted with a trimmed prefix
  uint64_t not_found = 0;
  uint64_t heartbeats = 0;
  uint64_t auto_removals = 0;
  double cache_hit_rate = 0.0;
  std::vector<uint64_t> requests_per_node;
};

class Cluster {
 public:
  // `catalog` (document tree) must outlive the cluster.
  Cluster(const ClusterConfig& config, const TargetCatalog* catalog);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Wires every loop on the calling thread, then starts the loop threads.
  // Returns once every loop is wired and running; listeners accept from their
  // loop's first iteration. A bind failure (e.g. a busy listen_port or
  // admin_port) is returned, not fatal: no thread has started, and the
  // destructor closes every fd opened so far.
  Status Start();
  // Stops all loops and joins the threads. Safe to call twice.
  void Stop();

  // --- membership (any thread; also wired to the admin API) ---

  // Starts a new back-end, joins it to the lateral mesh and registers it
  // with the front-end under the given capacity weight. Returns the new
  // node's id.
  NodeId AddNode(double weight = 1.0);
  // Stops new assignments to `node`; its persistent connections are given
  // back to the front-end and re-handed-off to surviving nodes.
  bool DrainNode(NodeId node);
  // Graceful removal: the node drains and gives its connections back first
  // (bounded by retire_grace_ms); once the front-end finishes the removal the
  // node's loop is shut down and its thread joined.
  bool RemoveNode(NodeId node);
  // Simulated crash: the node's loop stops dead — control session stays
  // open but falls silent, so the front-end must detect the death via
  // missed heartbeats and auto-remove it.
  bool KillNode(NodeId node);

  // Runs `fn` on replica `fe`'s control-plane loop (loop 0) and waits for
  // it — the thread-safe way for tests/tools to inspect a replica's
  // dispatcher state from outside.
  void InspectReplica(int fe, const std::function<void(const FrontEnd&)>& fn) const;

  // Front-end 0's client port (the only one with a single-FE tier).
  uint16_t port() const;
  // Every front-end's client port, for DNS/VIP-style client spraying.
  std::vector<uint16_t> ports() const;
  uint16_t admin_port() const;
  ClusterSnapshot Snapshot() const;
  const ContentStore& store() const { return store_; }
  const FrontEnd& frontend() const { return frontend(0); }
  const FrontEnd& frontend(int fe) const;
  MetricsRegistry* metrics() { return &metrics_; }
  Tracer* tracer() { return tracer_.get(); }

 private:
  struct Node;
  // One front-end replica: a group of fe_loops reactors (each on its own
  // thread, owned/joined by the group) + the server. Declaration order
  // matters: the loops must outlive the front-end. The tier is fixed at
  // boot: num_frontends replicas, none added or removed while running.
  //
  // Mutation rule: fes_ is written once, by Start(), under nodes_mutex_ and
  // before any loop thread exists. Readers on replica 0's loop need no lock;
  // readers on any other thread take nodes_mutex_.
  struct FeReplica {
    std::unique_ptr<EventLoopGroup> loops;
    std::unique_ptr<FrontEnd> frontend;
  };

  // Replica `fe`'s control-plane loop (loop 0 of its group).
  EventLoop* FeLoop(size_t fe) const { return fes_[fe]->loops->loop(0); }
  FrontEnd* Fe(size_t fe) const { return fes_[fe]->frontend.get(); }
  // Fe(fe) for fan-out closures running on replica fe's own loop, read
  // under nodes_mutex_ like every fes_ read off replica 0's loop. The
  // returned pointer outlives the closure — a replica is only destroyed
  // after its loops are joined.
  FrontEnd* FeFromReplicaLoop(size_t fe) const LARD_EXCLUDES(nodes_mutex_);

  // Creates one back-end and wires it on its not yet running loop (server
  // started, control sessions attached); the caller spawns the loop thread.
  // Returns one fe-side control fd per front-end through *fe_ends. Caller
  // holds nodes_mutex_.
  Status StartBackend(NodeId node_id, std::vector<UniqueFd>* fe_ends)
      LARD_REQUIRES(nodes_mutex_);
  // Builds front-end replica `fe`, whose loops are not started yet.
  std::unique_ptr<FeReplica> NewReplica(int fe);
  void StopNodeLocked(NodeId node, bool destroy_server) LARD_REQUIRES(nodes_mutex_);
  // Runs on a front-end loop when that replica finishes removing a node
  // (admin remove, retire completion, heartbeat timeout or control EOF).
  // The node's loop thread is torn down once *every* replica has let go.
  void OnNodeRemoved(NodeId node) LARD_EXCLUDES(nodes_mutex_);
  void RegisterAdminRoutes();
  void BridgeDispatcherMetrics();

  // Runs `action` on every front-end replica: on replica 0 inline (the
  // caller is on its loop) and posted to each other replica's loop,
  // fire-and-forget, because a blocking wait on a peer loop could deadlock
  // with a racing Stop(). Returns replica 0's answer.
  bool OnEveryReplica(const std::function<bool(size_t fe, FrontEnd* frontend)>& action);

  // One runtime knob of GET/POST /config. `parse` validates a value (false
  // rejects it), `apply` sets a parsed one on replica 0's loop, `render`
  // reads the current one as a JSON value and `expected` describes a valid
  // one for the 400 reply.
  struct RuntimeKnob {
    const char* key;
    bool (*parse)(const std::string& text, int64_t* value);
    void (*apply)(Cluster* cluster, int64_t value);
    std::string (*render)(const Cluster& cluster);
    std::string (*expected)();
  };
  static const RuntimeKnob kRuntimeKnobs[4];
  // {"<key>":<value>,...} over kRuntimeKnobs, from each row's getter.
  std::string RenderConfig() const;

  ClusterConfig config_;
  ContentStore store_;
  // Mutable: Snapshot() binds counter views, which find-or-create.
  mutable MetricsRegistry metrics_;
  ProcessMetrics process_metrics_{&metrics_};
  std::unique_ptr<Tracer> tracer_;

  // fes_ follows the hybrid discipline documented on FeReplica (written by
  // Start() under nodes_mutex_; replica-0-loop readers lock-free), which a
  // single GUARDED_BY cannot express — the lock-free
  // reads are legal and annotating them away with lock acquisitions would
  // deadlock replica-0-loop closures that run while Start()/AddNode() hold
  // nodes_mutex_. The runtime check is FeFromReplicaLoop + the loop-thread
  // serialization; see docs/CONCURRENCY.md.
  std::vector<std::unique_ptr<FeReplica>> fes_;
  std::unique_ptr<AdminServer> admin_;

  mutable Mutex nodes_mutex_;
  std::vector<std::unique_ptr<Node>> nodes_ LARD_GUARDED_BY(nodes_mutex_);
  // Per-node count of front-ends that completed the node's removal; teardown
  // happens once every front-end acked.
  std::unordered_map<NodeId, int> removal_acks_ LARD_GUARDED_BY(nodes_mutex_);
  bool started_ LARD_GUARDED_BY(nodes_mutex_) = false;
  bool stopped_ LARD_GUARDED_BY(nodes_mutex_) = false;
};

}  // namespace lard

#endif  // SRC_PROTO_CLUSTER_H_
