// Shared vocabulary for the cluster: node ids, the request-distribution
// mechanisms of Section 3, the policies of Section 4, and the per-request
// assignment a dispatcher produces.
#ifndef SRC_CORE_CLUSTER_TYPES_H_
#define SRC_CORE_CLUSTER_TYPES_H_

#include <cstdint>
#include <string>

#include "src/trace/trace.h"

namespace lard {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

using ConnId = uint64_t;

// Section 3's mechanisms for serving requests of one persistent connection on
// multiple back-ends. The mechanism constrains which assignments are legal
// after a connection has been handed off, and (in the simulator) which costs
// are charged.
enum class Mechanism {
  // FE proxies all request and response bytes; no handoff at all. Allows
  // per-request distribution but makes the FE a per-byte bottleneck.
  kRelayingFrontEnd,
  // TCP connection handed to one back-end once; every later request on the
  // connection must be served there (the ASPLOS'98 mechanism).
  kSingleHandoff,
  // Connection may be migrated between back-ends per request, paying a
  // handoff cost each time.
  kMultipleHandoff,
  // Single handoff + the connection-handling node laterally fetches content
  // from the node that caches it and relays the response (Section 3.3).
  kBackEndForwarding,
  // Benchmark ceiling: migration with zero overhead ("ideal handoff").
  kIdealHandoff,
};

// Section 2.2 / 4's distribution policies, plus this repo's extensions for
// heterogeneous and replicated clusters. The enum value is a policy's only
// identity; its key, display name and traits are its row of the policy
// table (src/core/policy.h).
enum class Policy {
  kWrr,           // weighted round-robin: pure load balancing, content-blind
  kLard,          // basic LARD (Fig. 4 cost metrics) at connection granularity
  kExtendedLard,  // Section 4.2: LARD extended for P-HTTP
  kWeightedExtendedLard,  // extLARD with per-node capacity weights: load
                          // comparisons normalize by weight (heterogeneous
                          // node speeds)
  kLardReplication,       // LARD/R: hot targets map to a replica *set*,
                          // splitting their load across nodes
};

const char* MechanismName(Mechanism mechanism);

// Lifecycle of a back-end node in the control plane. Node ids are stable:
// a removed node's id is never reused, so a NodeId seen in logs, metrics or
// admin responses always denotes the same machine.
//   kActive:   takes new connections and forwards.
//   kDraining: finishes its active persistent connections but receives no new
//              assignments of any kind.
//   kDead:     removed (admin action or missed heartbeats); its virtual cache
//              is evicted and its connections are failed over or dropped.
enum class NodeState { kActive, kDraining, kDead };

const char* NodeStateName(NodeState state);

// True when the mechanism lets the policy place each request independently
// (relaying, multiple handoff, ideal). Single handoff cannot; back-end
// forwarding can, but only via lateral fetches.
bool MechanismAllowsPerRequestDistribution(Mechanism mechanism);

// What the connection-handling path must do with one request.
enum class AssignmentAction {
  // Serve on the node currently handling the connection (cache or local disk).
  kServeLocal,
  // First request only: hand the connection off to `node`.
  kHandoff,
  // Back-end forwarding: handling node fetches from `node`, relays response.
  kForward,
  // Multiple handoff: migrate the connection to `node`, serve there.
  kMigrate,
  // Relaying FE: FE forwards the request to `node` over a back-end connection
  // and relays the response bytes itself.
  kRelay,
};

const char* AssignmentActionName(AssignmentAction action);

struct Assignment {
  AssignmentAction action = AssignmentAction::kServeLocal;
  // The node that produces the response bytes. For kServeLocal this is the
  // handling node; for kForward/kMigrate/kHandoff/kRelay the chosen node.
  NodeId node = kInvalidNode;
  // Whether the serving node should insert the target into its cache after a
  // cache miss (extended LARD's disk-utilization caching heuristic). Always
  // true for cache hits (no-op).
  bool cache_after_miss = true;
  // The dispatcher's model's verdict: will the serving node find the target
  // in its cache? The simulator uses this as *the* cache outcome (the paper's
  // simulator has a single cache model shared by policy and service); the
  // prototype ignores it and consults the back-end's real cache.
  bool served_from_cache = false;
};

// Narrow view of back-end state the dispatcher is allowed to see. In the
// paper the only back-end -> front-end feedback is the disk queue length,
// conveyed over the handoff-protocol control sessions; load is accounted at
// the front-end itself.
class BackendStatsProvider {
 public:
  virtual ~BackendStatsProvider() = default;
  // Number of queued disk events at `node` (the paper's "disk utilization").
  virtual int DiskQueueLength(NodeId node) const = 0;
};

// A provider for substrates with no disk feedback (always reports 0).
class NullBackendStats final : public BackendStatsProvider {
 public:
  int DiskQueueLength(NodeId) const override { return 0; }
};

// The one check every capacity weight passes through — the dispatcher's
// AddNode CHECK, the admin API's 400, and the simulator's membership-event
// validation all call this, so "positive and finite" is decided in exactly
// one place.
bool IsValidCapacityWeight(double weight);

// Per-node load contributed by *other* dispatchers — the replicated
// front-end tier's gossip overlay. A dispatcher accounts only the
// connections it placed itself; with N front-ends the policies must compare
// local + remote load, so DispatcherView::Load adds this provider's answer
// (when configured) on top of the local accounting. Implementations are
// staleness-bounded approximations (src/mesh's MeshStateTable), never exact.
class RemoteLoadProvider {
 public:
  virtual ~RemoteLoadProvider() = default;
  // Load units other front-ends currently believe they have placed on
  // `node`. Must tolerate any node id (return 0.0 for unknown slots).
  virtual double RemoteLoad(NodeId node) const = 0;
};

}  // namespace lard

#endif  // SRC_CORE_CLUSTER_TYPES_H_
