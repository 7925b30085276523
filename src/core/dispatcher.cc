#include "src/core/dispatcher.h"

#include <algorithm>
#include <cstdio>

#include "src/util/capacity.h"
#include "src/util/logging.h"

namespace lard {

Dispatcher::Dispatcher(const DispatcherConfig& config, const TargetCatalog* catalog,
                       const BackendStatsProvider* stats)
    : config_(config), catalog_(catalog), stats_(stats) {
  // 0 initial nodes is legal: members can all join later via AddNode.
  LARD_CHECK(config_.num_nodes >= 0);
  LARD_CHECK(catalog_ != nullptr);
  LARD_CHECK(stats_ != nullptr);
  policy_ = PolicyTableRow(config_.policy).make();
  for (int i = 0; i < config_.num_nodes; ++i) {
    const double weight = static_cast<size_t>(i) < config_.node_weights.size()
                              ? config_.node_weights[static_cast<size_t>(i)]
                              : 1.0;
    AddNode(weight);
  }
  // The initial membership is a given, not a control-plane event.
  counters_.nodes_added = 0;
  membership_epoch_ = 0;
}

DispatcherView Dispatcher::View() const {
  return DispatcherView(&load_, PolicyTableRow(config_.policy).weighted ? &weights_ : nullptr,
                        &states_, &vcaches_, stats_, &config_.params, config_.mechanism,
                        config_.remote_loads);
}

NodeId Dispatcher::AddNode(double weight) {
  LARD_CHECK(IsValidCapacityWeight(weight))
      << "node weight must be positive and finite, got " << weight;
  const NodeId node = static_cast<NodeId>(states_.size());
  load_.push_back(0.0);
  weights_.push_back(weight);
  vcaches_.emplace_back(config_.virtual_cache_bytes);
  states_.push_back(NodeState::kActive);
  handled_counts_.push_back(0);
  load_gauges_.push_back(
      config_.metrics == nullptr
          ? nullptr
          : config_.metrics->Gauge(MetricsRegistry::WithNode("lard_node_load", node)));
  ++counters_.nodes_added;
  ++membership_epoch_;
  return node;
}

bool Dispatcher::DrainNode(NodeId node) {
  if (node < 0 || node >= num_node_slots() || !Assignable(node)) {
    return false;
  }
  if (active_node_count() <= 1) {
    return false;  // refuse to drain the last assignable node
  }
  states_[static_cast<size_t>(node)] = NodeState::kDraining;
  ++counters_.nodes_drained;
  ++membership_epoch_;
  return true;
}

bool Dispatcher::RemoveNode(NodeId node, std::vector<ConnId>* orphans) {
  if (node < 0 || node >= num_node_slots() || Dead(node)) {
    return false;
  }
  states_[static_cast<size_t>(node)] = NodeState::kDead;
  vcaches_[static_cast<size_t>(node)].Clear();
  ++counters_.nodes_removed;
  ++membership_epoch_;

  // Forget every connection the node was handling. Their remote fractions on
  // *other* nodes are released; the dead node's own load is simply zeroed
  // (fractions other connections parked on it die with it — ReleaseBatchLoads
  // skips dead nodes).
  std::vector<ConnId> victims;
  for (auto& [conn, state] : conns_) {
    if (state.handling == node) {
      victims.push_back(conn);
    }
  }
  for (const ConnId conn : victims) {
    ConnState& state = conns_[conn];
    state.active = false;  // the 1-unit load dies with the node's counter
    ReleaseBatchLoads(state);
    SetHandling(state, kInvalidNode);
    conns_.erase(conn);
    ++counters_.orphaned_connections;
    if (orphans != nullptr) {
      orphans->push_back(conn);
    }
  }
  load_[static_cast<size_t>(node)] = 0.0;
  if (load_gauges_[static_cast<size_t>(node)] != nullptr) {
    load_gauges_[static_cast<size_t>(node)]->Set(0.0);
  }
  return true;
}

NodeId Dispatcher::ReassignConnection(ConnId conn, const std::vector<TargetId>& pending_targets,
                                      ReassignReason reason) {
  auto it = conns_.find(conn);
  if (it == conns_.end() || active_node_count() == 0) {
    return kInvalidNode;
  }
  ConnState& conn_state = it->second;
  const NodeId old_node = conn_state.handling;

  // Place like a fresh connection: cache affinity on the first pending target
  // when there is one, a pure load-balance pick otherwise.
  TargetId affinity = kInvalidTarget;
  for (const TargetId target : pending_targets) {
    if (target != kInvalidTarget) {
      affinity = target;
      break;
    }
  }
  const DispatcherView view = View();
  const NodeId new_node = affinity != kInvalidTarget
                              ? policy_->PickFirstNode(view, policy_state_, affinity)
                              : WrrPick(view, policy_state_);
  if (new_node == kInvalidNode) {
    return kInvalidNode;
  }

  if (new_node != old_node && conn_state.active) {
    if (old_node != kInvalidNode && !Dead(old_node)) {
      AddLoad(old_node, -1.0);
    }
    AddLoad(new_node, 1.0);
  }
  SetHandling(conn_state, new_node);

  // Seed the new node's model: the targets this connection is about to fetch
  // there will be resident once served.
  for (const TargetId target : pending_targets) {
    if (target == kInvalidTarget) {
      continue;
    }
    LruCache& cache = vcaches_[static_cast<size_t>(new_node)];
    if (!cache.Touch(target)) {
      cache.Insert(target, SizeOf(target));
    }
  }
  ++counters_.reassignments;
  if (reason == ReassignReason::kFailure) {
    ++counters_.failure_reassignments;
  }
  return new_node;
}

void Dispatcher::NoteRemoteFetch(NodeId node, TargetId target) {
  if (node < 0 || node >= num_node_slots() || Dead(node) || target == kInvalidTarget) {
    return;
  }
  LruCache& cache = vcaches_[static_cast<size_t>(node)];
  if (!cache.Touch(target)) {
    cache.Insert(target, SizeOf(target));
  }
}

void Dispatcher::SetPolicy(Policy policy) {
  if (policy == config_.policy) {
    return;
  }
  policy_ = PolicyTableRow(policy).make();
  config_.policy = policy;
}

int Dispatcher::active_node_count() const {
  int count = 0;
  for (const NodeState state : states_) {
    if (state == NodeState::kActive) {
      ++count;
    }
  }
  return count;
}

NodeState Dispatcher::node_state(NodeId node) const {
  LARD_CHECK(node >= 0 && node < num_node_slots());
  return states_[static_cast<size_t>(node)];
}

void Dispatcher::SetHandling(ConnState& conn_state, NodeId node) {
  if (conn_state.handling != kInvalidNode) {
    uint64_t& count = handled_counts_[static_cast<size_t>(conn_state.handling)];
    LARD_CHECK(count > 0) << "handled-connection count underflow";
    --count;
  }
  if (node != kInvalidNode) {
    ++handled_counts_[static_cast<size_t>(node)];
  }
  conn_state.handling = node;
}

void Dispatcher::AddLoad(NodeId node, double delta) {
  double& load = load_[static_cast<size_t>(node)];
  load += delta;
  if (load > -1e-9 && load < 1e-9) {
    load = 0.0;  // scrub float dust (fractional releases don't cancel exactly)
  }
  if (load_gauges_[static_cast<size_t>(node)] != nullptr) {
    load_gauges_[static_cast<size_t>(node)]->Set(load);
  }
}

void Dispatcher::OnConnectionOpen(ConnId conn) {
  auto [it, inserted] = conns_.emplace(conn, ConnState{});
  LARD_CHECK(inserted) << "duplicate connection id " << conn;
  ++counters_.connections;
  (void)it;
}

std::vector<Assignment> Dispatcher::OnBatch(ConnId conn, const std::vector<TargetId>& targets) {
  auto it = conns_.find(conn);
  LARD_CHECK(it != conns_.end()) << "OnBatch for unknown connection " << conn;
  ConnState& conn_state = it->second;

  // A new batch implies the previous batch has been served ("the front-end
  // assumes that all previous requests have finished once a new batch of
  // requests arrives on the same connection").
  ReleaseBatchLoads(conn_state);

  std::vector<Assignment> assignments;
  ReserveRounded(&assignments, targets.size());
  const double fraction = targets.empty() ? 0.0
                          : config_.params.fractional_batch_load
                              ? 1.0 / static_cast<double>(targets.size())
                              : 1.0;
  conn_state.remote_fraction = fraction;

  for (const TargetId target : targets) {
    ++counters_.requests;
    Assignment assignment;

    if (target == kInvalidTarget) {
      // Path outside the catalog (will 404): load-balance it, skip all cache
      // modeling.
      if (config_.mechanism == Mechanism::kRelayingFrontEnd) {
        assignment.action = AssignmentAction::kRelay;
        assignment.node = WrrPick(View(), policy_state_);
        ++counters_.relays;
        AddLoad(assignment.node, fraction);
        conn_state.remote_nodes.push_back(assignment.node);
      } else if (conn_state.handling == kInvalidNode) {
        assignment.action = AssignmentAction::kHandoff;
        assignment.node = WrrPick(View(), policy_state_);
        SetHandling(conn_state, assignment.node);
        ++counters_.handoffs;
      } else {
        assignment.node = conn_state.handling;
        ++counters_.local_serves;
      }
      assignments.push_back(assignment);
      continue;
    }

    if (config_.mechanism == Mechanism::kRelayingFrontEnd) {
      // No handoff ever: the FE relays each request to a per-request choice.
      assignment.action = AssignmentAction::kRelay;
      assignment.node = policy_->PickFirstNode(View(), policy_state_, target);
      assignment.served_from_cache = Cached(assignment.node, target);
      ++counters_.relays;
      AddLoad(assignment.node, fraction);
      conn_state.remote_nodes.push_back(assignment.node);
    } else if (conn_state.handling == kInvalidNode) {
      // First request of the connection: the handoff decision.
      assignment.action = AssignmentAction::kHandoff;
      assignment.node = policy_->PickFirstNode(View(), policy_state_, target);
      assignment.served_from_cache = Cached(assignment.node, target);
      SetHandling(conn_state, assignment.node);
      ++counters_.handoffs;
    } else {
      // Subsequent pipelined request: per-request distribution only when the
      // policy wants it AND the mechanism supports it; otherwise the
      // connection is pinned to its handling node.
      SubsequentDecision decision;
      decision.node = conn_state.handling;
      if (PolicyTableRow(config_.policy).per_request &&
          MechanismAllowsPerRequestDistribution(config_.mechanism)) {
        decision = policy_->DecideSubsequent(View(), policy_state_, conn_state.handling, target);
      }
      assignment = ApplySubsequent(conn_state, target, decision);
    }

    ApplyCacheEffects(target, assignment);
    assignments.push_back(assignment);
  }

  // The connection-handling node carries one load unit while the batch is in
  // service.
  if (conn_state.handling != kInvalidNode && !conn_state.active && !targets.empty()) {
    conn_state.active = true;
    AddLoad(conn_state.handling, 1.0);
  }
  return assignments;
}

Assignment Dispatcher::ApplySubsequent(ConnState& conn_state, TargetId target,
                                       const SubsequentDecision& decision) {
  const NodeId handling = conn_state.handling;
  Assignment assignment;
  assignment.node = decision.node;
  assignment.cache_after_miss = decision.cache_after_miss;
  // The model's cache verdict falls out of the chosen node: a remote pick was
  // chosen *because* it caches the target; a local serve hits iff the
  // handling node's virtual cache holds it.
  assignment.served_from_cache = Cached(decision.node, target);

  if (decision.node == handling) {
    assignment.action = AssignmentAction::kServeLocal;
    ++counters_.local_serves;
    if (!decision.cache_after_miss) {
      ++counters_.served_without_caching;
    }
    return assignment;
  }

  if (config_.mechanism == Mechanism::kBackEndForwarding) {
    assignment.action = AssignmentAction::kForward;
    ++counters_.forwards;
    // Remote node carries 1/N for the batch service time.
    AddLoad(decision.node, conn_state.remote_fraction);
    conn_state.remote_nodes.push_back(decision.node);
  } else {
    // Multiple handoff (or the zero-cost ideal): the connection itself moves.
    assignment.action = AssignmentAction::kMigrate;
    ++counters_.migrations;
    if (conn_state.active) {
      AddLoad(conn_state.handling, -1.0);
      AddLoad(decision.node, 1.0);
    }
    SetHandling(conn_state, decision.node);
  }
  return assignment;
}

void Dispatcher::ApplyCacheEffects(TargetId target, const Assignment& assignment) {
  // The dispatcher updates its model of back-end cache contents "each time a
  // target is fetched from a backend node". The serving node ends up with the
  // target resident (MRU) — except when extended LARD decided not to cache on
  // a thrashing node.
  LruCache& cache = vcaches_[assignment.node];
  if (cache.Touch(target)) {
    return;
  }
  if (assignment.cache_after_miss) {
    cache.Insert(target, SizeOf(target));
  }
}

void Dispatcher::ReleaseBatchLoads(ConnState& conn_state) {
  for (const NodeId node : conn_state.remote_nodes) {
    if (Dead(node)) {
      continue;  // its load was zeroed wholesale at removal
    }
    AddLoad(node, -conn_state.remote_fraction);
  }
  conn_state.remote_nodes.clear();
}

void Dispatcher::OnConnectionIdle(ConnId conn) {
  auto it = conns_.find(conn);
  LARD_CHECK(it != conns_.end()) << "OnConnectionIdle for unknown connection " << conn;
  ConnState& conn_state = it->second;
  ReleaseBatchLoads(conn_state);
  if (conn_state.active) {
    conn_state.active = false;
    if (!Dead(conn_state.handling)) {
      AddLoad(conn_state.handling, -1.0);
    }
  }
}

void Dispatcher::OnConnectionClose(ConnId conn) {
  auto it = conns_.find(conn);
  LARD_CHECK(it != conns_.end()) << "OnConnectionClose for unknown connection " << conn;
  OnConnectionIdle(conn);
  SetHandling(it->second, kInvalidNode);
  conns_.erase(conn);
}

double Dispatcher::NodeLoad(NodeId node) const {
  LARD_CHECK(node >= 0 && node < num_node_slots());
  return load_[node];
}

double Dispatcher::NodeWeight(NodeId node) const {
  LARD_CHECK(node >= 0 && node < num_node_slots());
  return weights_[static_cast<size_t>(node)];
}

double Dispatcher::NormalizedNodeLoad(NodeId node) const {
  return NodeLoad(node) / NodeWeight(node);
}

NodeId Dispatcher::HandlingNode(ConnId conn) const {
  auto it = conns_.find(conn);
  return it == conns_.end() ? kInvalidNode : it->second.handling;
}

std::string Dispatcher::DescribeLoads(int max_nodes) const {
  std::string out;
  int listed = 0;
  for (NodeId node = 0; node < num_node_slots(); ++node) {
    if (!Assignable(node)) {
      continue;
    }
    if (listed == max_nodes) {
      out += "+";
      break;
    }
    char entry[32];
    std::snprintf(entry, sizeof(entry), "%s%d:%.2f", listed == 0 ? "" : ",", node,
                  NormalizedNodeLoad(node) + RemoteNodeLoad(node) / NodeWeight(node));
    out += entry;
    ++listed;
  }
  return out;
}

size_t Dispatcher::ConnectionCountOn(NodeId node) const {
  if (node < 0 || node >= num_node_slots()) {
    return 0;
  }
  return static_cast<size_t>(handled_counts_[static_cast<size_t>(node)]);
}

bool Dispatcher::TargetCachedAt(NodeId node, TargetId target) const {
  LARD_CHECK(node >= 0 && node < num_node_slots());
  return vcaches_[node].Contains(target);
}

uint64_t Dispatcher::VirtualCacheBytes(NodeId node) const {
  LARD_CHECK(node >= 0 && node < num_node_slots());
  return vcaches_[node].used_bytes();
}

}  // namespace lard
