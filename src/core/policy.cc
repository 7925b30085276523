#include "src/core/policy.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "src/core/cost_metrics.h"
#include "src/util/logging.h"

namespace lard {

NodeId WrrPick(const DispatcherView& view, PolicyState& state) {
  // Weighted round-robin with load feedback: choose the least-loaded
  // assignable node, breaking ties in round-robin order so an idle cluster
  // still rotates. (With capacity weights, "least loaded" means least load
  // per unit of capacity, so a 2x node absorbs 2x the connections before
  // looking equally busy.)
  NodeId best = kInvalidNode;
  double best_load = kInfiniteCost;
  const size_t n = static_cast<size_t>(view.num_node_slots());
  for (size_t k = 0; k < n; ++k) {
    const NodeId node = static_cast<NodeId>((state.rr_cursor + k) % n);
    if (view.Assignable(node) && view.NormalizedLoad(node) < best_load) {
      best = node;
      best_load = view.NormalizedLoad(node);
    }
  }
  LARD_CHECK(best != kInvalidNode) << "no assignable node (all drained or dead)";
  state.rr_cursor = (static_cast<size_t>(best) + 1) % n;
  return best;
}

NodeId LardPick(const DispatcherView& view, PolicyState& state, TargetId target) {
  // Basic LARD in its Fig. 4 cost form: evaluate every assignable node,
  // assign to the minimum aggregate cost. Ties prefer a node that caches the
  // target, then the lower load. Remaining full ties (e.g. a cold target on
  // an idle cluster) rotate round-robin so initial placements spread — the
  // cost form is otherwise indifferent and piling cold targets onto node 0
  // would defeat the partitioning.
  NodeId best = kInvalidNode;
  double best_cost = kInfiniteCost;
  bool best_cached = false;
  const size_t n = static_cast<size_t>(view.num_node_slots());
  for (size_t k = 0; k < n; ++k) {
    const NodeId node = static_cast<NodeId>((state.rr_cursor + k) % n);
    if (!view.Assignable(node)) {
      continue;
    }
    const bool cached = view.Cached(node, target);
    const double cost = AggregateCost(view.NormalizedLoad(node), cached, view.params());
    const bool better =
        best == kInvalidNode || cost < best_cost ||
        (cost == best_cost && (cached && !best_cached)) ||
        (cost == best_cost && cached == best_cached &&
         view.NormalizedLoad(node) < view.NormalizedLoad(best));
    if (better) {
      best = node;
      best_cost = cost;
      best_cached = cached;
    }
  }
  LARD_CHECK(best != kInvalidNode) << "no assignable node (all drained or dead)";
  if (best_cost == kInfiniteCost) {
    for (NodeId node = 0; node < view.num_node_slots(); ++node) {
      if (view.Assignable(node) && view.NormalizedLoad(node) < view.NormalizedLoad(best)) {
        best = node;
      }
    }
  }
  if (!best_cached) {
    state.rr_cursor = (static_cast<size_t>(best) + 1) % n;
  }
  return best;
}

SubsequentDecision ExtLardDecide(const DispatcherView& view, NodeId handling, TargetId target) {
  // Extended LARD, Section 4.2.
  SubsequentDecision decision;
  decision.node = handling;

  if (view.Cached(handling, target)) {
    return decision;
  }
  if (view.DiskQueueLength(handling) < view.params().low_disk_queue_threshold) {
    // Local disk is idle enough: read locally, avoid forwarding overhead, and
    // cache the result (disk not thrashing => there is room to cache).
    return decision;
  }

  // Local disk is busy: consider the handling node and every *assignable*
  // node that currently caches the target (forwards are new work — draining
  // and dead nodes take none); pick the minimum aggregate cost.
  NodeId best = handling;
  double best_cost = AggregateCost(view.NormalizedLoad(handling),
                                   /*target_cached_at_node=*/false, view.params());
  bool any_remote_candidate = false;
  for (NodeId node = 0; node < view.num_node_slots(); ++node) {
    if (node == handling || !view.Assignable(node) || !view.Cached(node, target)) {
      continue;
    }
    any_remote_candidate = true;
    const double cost = AggregateCost(view.NormalizedLoad(node),
                                      /*target_cached_at_node=*/true, view.params());
    if (cost < best_cost ||
        (cost == best_cost && view.NormalizedLoad(node) < view.NormalizedLoad(best))) {
      best = node;
      best_cost = cost;
    }
  }
  if (!any_remote_candidate) {
    // Cached nowhere: this is a first placement, not replication — cache it
    // (the no-cache heuristic exists to bound *replication*; never caching a
    // cold target would freeze the cluster in its cold state).
    return decision;
  }
  if (best_cost == kInfiniteCost) {
    // Everything (including the handling node) is past L_overload; fall back
    // to the least-loaded candidate to stay work-conserving.
    for (NodeId node = 0; node < view.num_node_slots(); ++node) {
      const bool candidate =
          node == handling || (view.Assignable(node) && view.Cached(node, target));
      if (candidate && view.NormalizedLoad(node) < view.NormalizedLoad(best)) {
        best = node;
      }
    }
  }

  if (best == handling) {
    // Serve locally from a busy disk; do NOT cache (the heuristic: a busy
    // disk means the main-memory cache is already thrashing, and another
    // node holds a copy already).
    if (view.params().no_cache_when_busy) {
      decision.cache_after_miss = false;
    }
    return decision;
  }
  decision.node = best;
  return decision;
}

SubsequentDecision RoutingPolicy::DecideSubsequent(const DispatcherView&, PolicyState&,
                                                   NodeId handling, TargetId) {
  SubsequentDecision decision;
  decision.node = handling;
  return decision;
}

namespace {

// --- Built-in policies ---

class WrrPolicy final : public RoutingPolicy {
 public:
  NodeId PickFirstNode(const DispatcherView& view, PolicyState& state, TargetId) override {
    return WrrPick(view, state);
  }
};

class LardPolicy final : public RoutingPolicy {
 public:
  NodeId PickFirstNode(const DispatcherView& view, PolicyState& state, TargetId target) override {
    return LardPick(view, state, target);
  }
};

// Extended LARD. Its weighted row ("wextlard", for heterogeneous clusters)
// is the same class over the real capacity weights: every load comparison —
// the Fig. 4 cost metrics, the busy-disk forwarding choice, the WRR fallback
// for catalog misses — then uses load normalized by weight, so a 2x-speed
// node absorbs 2x the connections before it looks equally busy. With all
// weights at 1.0 the two rows decide identically (regression-checked in
// tests/policy_test.cc).
class ExtendedLardPolicy final : public RoutingPolicy {
 public:
  NodeId PickFirstNode(const DispatcherView& view, PolicyState& state, TargetId target) override {
    return LardPick(view, state, target);
  }
  SubsequentDecision DecideSubsequent(const DispatcherView& view, PolicyState&, NodeId handling,
                                      TargetId target) override {
    return ExtLardDecide(view, handling, target);
  }
};

// LARD with replication (the ASPLOS'98 LARD/R strategy adapted to this
// dispatcher): a target maps to a *set* of servers instead of exactly one.
// Connections for a target go to the set's least-loaded member; when that
// member is overloaded and spare capacity exists elsewhere, the set grows by
// the globally least-loaded node — a hot target's load splits across its
// replicas instead of melting one node. Sets decay: after
// LardParams::replica_decay_picks placements without growth, the most loaded
// member is retired (the classic policy's time-based decay, counted in picks
// because the dispatcher has no clock). Subsequent pipelined requests reuse
// extended LARD's forwarding logic, whose candidate set naturally includes
// every replica (they all cache the target).
class LardReplicationPolicy final : public RoutingPolicy {
 public:
  NodeId PickFirstNode(const DispatcherView& view, PolicyState& state, TargetId target) override {
    ReplicaSet& set = sets_[target];
    // Members that drained or died take no new work; forget them.
    set.nodes.erase(std::remove_if(set.nodes.begin(), set.nodes.end(),
                                   [&view](NodeId node) {
                                     return node >= view.num_node_slots() ||
                                            !view.Assignable(node);
                                   }),
                    set.nodes.end());
    if (set.nodes.empty()) {
      // First placement: the plain LARD cost pick seeds the set.
      const NodeId node = LardPick(view, state, target);
      set.nodes.push_back(node);
      set.picks_since_change = 0;
      return node;
    }

    NodeId least = set.nodes.front();
    for (const NodeId node : set.nodes) {
      if (view.Load(node) < view.Load(least)) {
        least = node;
      }
    }
    // Grow when the best replica is past T_high and real spare capacity
    // exists (or the replica is at twice T_high — then grow unconditionally
    // to stay work-conserving). T_high derives from the cost model the same
    // way the ASPLOS values do: l_overload ~ 2*T_high.
    const double t_high = view.params().l_overload / 2.0;
    if (view.Load(least) > t_high) {
      NodeId candidate = kInvalidNode;
      for (NodeId node = 0; node < view.num_node_slots(); ++node) {
        if (!view.Assignable(node) ||
            std::find(set.nodes.begin(), set.nodes.end(), node) != set.nodes.end()) {
          continue;
        }
        if (candidate == kInvalidNode || view.Load(node) < view.Load(candidate)) {
          candidate = node;
        }
      }
      if (candidate != kInvalidNode &&
          (view.Load(candidate) < view.params().l_idle ||
           view.Load(least) >= 2.0 * t_high)) {
        set.nodes.push_back(candidate);
        set.picks_since_change = 0;
        return candidate;
      }
    }

    // Decay: a set that stopped growing sheds its most loaded member, so
    // replication degree tracks current (not historical) popularity.
    ++set.picks_since_change;
    if (set.nodes.size() > 1 &&
        set.picks_since_change > static_cast<uint64_t>(view.params().replica_decay_picks)) {
      NodeId most = set.nodes.front();
      for (const NodeId node : set.nodes) {
        if (view.Load(node) > view.Load(most)) {
          most = node;
        }
      }
      set.nodes.erase(std::find(set.nodes.begin(), set.nodes.end(), most));
      set.picks_since_change = 0;
      if (most == least) {
        least = set.nodes.front();
        for (const NodeId node : set.nodes) {
          if (view.Load(node) < view.Load(least)) {
            least = node;
          }
        }
      }
    }
    return least;
  }

  SubsequentDecision DecideSubsequent(const DispatcherView& view, PolicyState&, NodeId handling,
                                      TargetId target) override {
    return ExtLardDecide(view, handling, target);
  }

 private:
  struct ReplicaSet {
    std::vector<NodeId> nodes;
    uint64_t picks_since_change = 0;
  };
  std::unordered_map<TargetId, ReplicaSet> sets_;
};

template <typename T>
std::unique_ptr<RoutingPolicy> Make() {
  return std::make_unique<T>();
}

// The policy table, in enum order (PolicyTableRow indexes it).
constexpr PolicyRow kPolicyTable[] = {
    {Policy::kWrr, "wrr", "WRR", false, false, &Make<WrrPolicy>},
    {Policy::kLard, "lard", "LARD", false, false, &Make<LardPolicy>},
    {Policy::kExtendedLard, "extlard", "extLARD", true, false, &Make<ExtendedLardPolicy>},
    {Policy::kWeightedExtendedLard, "wextlard", "wextLARD", true, true,
     &Make<ExtendedLardPolicy>},
    {Policy::kLardReplication, "lardr", "LARD/R", true, false, &Make<LardReplicationPolicy>},
};

constexpr bool TableFollowsEnumOrder() {
  for (size_t i = 0; i < std::size(kPolicyTable); ++i) {
    if (static_cast<size_t>(kPolicyTable[i].policy) != i) {
      return false;
    }
  }
  return true;
}
static_assert(TableFollowsEnumOrder(), "kPolicyTable rows must follow the Policy enum");

}  // namespace

const PolicyRow& PolicyTableRow(Policy policy) {
  const size_t index = static_cast<size_t>(policy);
  LARD_CHECK(index < std::size(kPolicyTable)) << "no table row for policy " << index;
  return kPolicyTable[index];
}

const char* PolicyKey(Policy policy) { return PolicyTableRow(policy).key; }

const char* PolicyName(Policy policy) { return PolicyTableRow(policy).display; }

bool ParsePolicyName(const std::string& name, Policy* policy) {
  for (const PolicyRow& row : kPolicyTable) {
    if (name == row.key) {
      *policy = row.policy;
      return true;
    }
  }
  return false;
}

std::string PolicyKeysCsv() {
  std::string csv;
  for (const PolicyRow& row : kPolicyTable) {
    if (!csv.empty()) {
      csv += ", ";
    }
    csv += row.key;
  }
  return csv;
}

}  // namespace lard
