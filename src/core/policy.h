// The routing-policy API. The paper's policies (WRR, LARD, extended LARD)
// and this repo's extensions (weighted extended LARD, LARD/R) are
// RoutingPolicy implementations the Dispatcher decides through.
//
// Division of labour:
//   * The Dispatcher owns all *state mutation*: load accounting, virtual
//     caches, connection bookkeeping, membership, counters.
//   * A RoutingPolicy is a pure decision function over a read-only
//     DispatcherView (per-node load, capacity weight, membership state,
//     virtual-cache contents, back-end disk feedback). Policies may keep
//     their own private state (e.g. LARD/R's replica sets); the shared
//     round-robin cursor lives in PolicyState, owned by the dispatcher, so
//     rotation continuity survives runtime policy switches exactly as it did
//     when the cursor was a dispatcher member.
//
// A policy's only identity is its Policy enum value (src/core/cluster_types.h).
// Everything else about it — its key ("wrr", "lard", "extlard", "wextlard",
// "lardr"), its display name, whether it places per request, whether it
// decides over capacity weights and how to construct it — is one row of the
// policy table in policy.cc. Strings are parsed only at the edges (command
// lines, POST /config policy=<key>). To add a policy: an enum value, a
// RoutingPolicy subclass and a table row; see docs/ADMIN_API.md.
#ifndef SRC_CORE_POLICY_H_
#define SRC_CORE_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/cluster_types.h"
#include "src/core/lard_params.h"
#include "src/core/lru_cache.h"
#include "src/trace/trace.h"

namespace lard {

// Read-only window onto the dispatcher's state, handed to every policy call.
// Node ids index [0, num_node_slots()); dead/draining slots persist (ids are
// never reused) and are excluded from new work via Assignable().
//
// With a replicated front-end tier, `remote` overlays the load other
// dispatchers have gossiped for each node; Load() then answers local +
// remote so every policy transparently decides over the (approximate)
// *global* load without knowing the mesh exists. `remote` may be null
// (single front-end: the overlay is zero). `weights` null is the unit-weight
// view the dispatcher hands unweighted policies: every node weighs 1.0, so
// NormalizedLoad is the raw load bit for bit (x / 1.0 == x in IEEE-754).
class DispatcherView {
 public:
  DispatcherView(const std::vector<double>* loads, const std::vector<double>* weights,
                 const std::vector<NodeState>* states, const std::vector<LruCache>* vcaches,
                 const BackendStatsProvider* stats, const LardParams* params,
                 Mechanism mechanism, const RemoteLoadProvider* remote = nullptr)
      : loads_(loads),
        weights_(weights),
        states_(states),
        vcaches_(vcaches),
        stats_(stats),
        params_(params),
        mechanism_(mechanism),
        remote_(remote) {}

  int num_node_slots() const { return static_cast<int>(states_->size()); }
  NodeState state(NodeId node) const { return (*states_)[static_cast<size_t>(node)]; }
  // True when new work (handoffs, forwards, migrations, relays) may go to
  // `node`.
  bool Assignable(NodeId node) const { return state(node) == NodeState::kActive; }
  // The paper's load units: active handed-off connections plus fractional
  // batch loads — this dispatcher's own accounting plus (in a replicated
  // front-end tier) the gossip-learned load other dispatchers placed.
  double Load(NodeId node) const { return LocalLoad(node) + RemoteLoad(node); }
  // The load this dispatcher placed itself (exact, not gossip).
  double LocalLoad(NodeId node) const { return (*loads_)[static_cast<size_t>(node)]; }
  // The overlay other front-ends gossiped for `node` (0 without a mesh).
  double RemoteLoad(NodeId node) const {
    return remote_ == nullptr ? 0.0 : remote_->RemoteLoad(node);
  }
  // Capacity weight (1.0 = baseline machine; 2.0 = twice as fast).
  double Weight(NodeId node) const {
    return weights_ == nullptr ? 1.0 : (*weights_)[static_cast<size_t>(node)];
  }
  // Load per unit of capacity — what weighted policies compare and what the
  // admin API reports for heterogeneous clusters.
  double NormalizedLoad(NodeId node) const { return Load(node) / Weight(node); }
  // The dispatcher's model of the node's main-memory file cache.
  bool Cached(NodeId node, TargetId target) const {
    return (*vcaches_)[static_cast<size_t>(node)].Contains(target);
  }
  // Back-end disk-queue feedback (extended LARD's only back-end signal).
  int DiskQueueLength(NodeId node) const { return stats_->DiskQueueLength(node); }
  const LardParams& params() const { return *params_; }
  Mechanism mechanism() const { return mechanism_; }

 private:
  const std::vector<double>* loads_;
  const std::vector<double>* weights_;
  const std::vector<NodeState>* states_;
  const std::vector<LruCache>* vcaches_;
  const BackendStatsProvider* stats_;
  const LardParams* params_;
  Mechanism mechanism_;
  const RemoteLoadProvider* remote_;
};

// Mutable scratch state shared by all policies of one dispatcher. Keeping the
// round-robin cursor here (not inside a policy instance) preserves rotation
// continuity across runtime policy switches and lets the dispatcher's own
// catalog-miss fallback rotate the same cursor the policies do.
struct PolicyState {
  size_t rr_cursor = 0;
};

// A policy's verdict for a subsequent pipelined request on an established
// connection. node == the handling node means "serve locally";
// cache_after_miss=false is extended LARD's "disk busy and a copy exists
// elsewhere — serve without caching" heuristic.
struct SubsequentDecision {
  NodeId node = kInvalidNode;
  bool cache_after_miss = true;
};

class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  // Placement of the first request of a connection: the handoff decision
  // (and, under the relaying front-end, every request's placement). `target`
  // is always valid (catalog misses get a plain WrrPick).
  virtual NodeId PickFirstNode(const DispatcherView& view, PolicyState& state,
                               TargetId target) = 0;

  // Subsequent request on a connection handled by `handling`; called only
  // when the policy's table row places per request and the mechanism allows
  // it. Default: stay on the handling node.
  virtual SubsequentDecision DecideSubsequent(const DispatcherView& view, PolicyState& state,
                                              NodeId handling, TargetId target);
};

// --- Reusable pick primitives (building blocks for policies) ---
// Every load comparison uses NormalizedLoad: load per unit of capacity over
// a weighted view, the raw load over the unit-weight view.

// Least-loaded assignable node, ties broken in round-robin order from the
// shared cursor (an idle cluster still rotates). Aborts when no node is
// assignable — callers gate on active membership.
NodeId WrrPick(const DispatcherView& view, PolicyState& state);

// Basic LARD in its Fig. 4 cost form: minimum aggregate cost over assignable
// nodes; ties prefer a caching node, then lower load, then round-robin.
NodeId LardPick(const DispatcherView& view, PolicyState& state, TargetId target);

// Extended LARD's Section 4.2 per-request logic: serve locally when cached or
// the local disk is idle; otherwise weigh the handling node against every
// assignable node caching the target by aggregate cost.
SubsequentDecision ExtLardDecide(const DispatcherView& view, NodeId handling, TargetId target);

// --- The policy table ---

// One row per Policy value.
struct PolicyRow {
  Policy policy;
  // Command lines, POST /config and /nodes' "policy_key".
  const char* key;
  // Tables and /nodes' "policy" ("WRR", "extLARD", ...).
  const char* display;
  // Places individual requests of a persistent connection (when the
  // mechanism also allows it); false pins every subsequent request to the
  // handling node.
  bool per_request;
  // Decides over the nodes' capacity weights; false hands the policy the
  // unit-weight view.
  bool weighted;
  std::unique_ptr<RoutingPolicy> (*make)();
};

const PolicyRow& PolicyTableRow(Policy policy);

// The row's key and display name.
const char* PolicyKey(Policy policy);
const char* PolicyName(Policy policy);

// Parses a key (exact, case-sensitive); false on anything else.
bool ParsePolicyName(const std::string& name, Policy* policy);

// "wrr, lard, extlard, wextlard, lardr" — for flag help and error messages.
std::string PolicyKeysCsv();

}  // namespace lard

#endif  // SRC_CORE_POLICY_H_
