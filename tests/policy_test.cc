// Tests for the routing-policy API (src/core/policy.h): the policy table,
// the weighted/unweighted bit-identity regression, weighted
// steering on heterogeneous weights, LARD/R replica sets, and runtime policy
// switching mid-workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/dispatcher.h"
#include "src/core/policy.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

// One decision as text, e.g. "forward->node2 (no-cache)".
std::string Describe(const Assignment& assignment) {
  std::string out = AssignmentActionName(assignment.action);
  out += "->node" + std::to_string(assignment.node);
  if (!assignment.cache_after_miss) {
    out += " (no-cache)";
  }
  return out;
}

class FakeDiskStats : public BackendStatsProvider {
 public:
  explicit FakeDiskStats(int num_nodes) : queues_(static_cast<size_t>(num_nodes), 0) {}
  int DiskQueueLength(NodeId node) const override {
    return static_cast<size_t>(node) < queues_.size() ? queues_[static_cast<size_t>(node)] : 0;
  }
  void Set(NodeId node, int length) {
    if (static_cast<size_t>(node) >= queues_.size()) {
      queues_.resize(static_cast<size_t>(node) + 1, 0);
    }
    queues_[static_cast<size_t>(node)] = length;
  }

 private:
  std::vector<int> queues_;
};

// --- The policy table ---

TEST(PolicyTableTest, EveryPolicyHasOneConsistentRow) {
  struct Expected {
    Policy policy;
    bool per_request;
    bool weighted;
  };
  const Expected expected[] = {
      {Policy::kWrr, false, false},
      {Policy::kLard, false, false},
      {Policy::kExtendedLard, true, false},
      {Policy::kWeightedExtendedLard, true, true},
      {Policy::kLardReplication, true, false},
  };
  std::set<std::string> keys;
  std::set<std::string> displays;
  for (const Expected& want : expected) {
    const PolicyRow& row = PolicyTableRow(want.policy);
    EXPECT_EQ(row.policy, want.policy);
    EXPECT_STREQ(PolicyKey(want.policy), row.key);
    EXPECT_STREQ(PolicyName(want.policy), row.display);
    // key -> enum -> key round-trips.
    Policy parsed;
    ASSERT_TRUE(ParsePolicyName(row.key, &parsed)) << row.key;
    EXPECT_EQ(parsed, want.policy);
    EXPECT_EQ(row.per_request, want.per_request) << row.key;
    EXPECT_EQ(row.weighted, want.weighted) << row.key;
    EXPECT_NE(row.make(), nullptr) << row.key;
    EXPECT_TRUE(keys.insert(row.key).second) << "duplicate key " << row.key;
    EXPECT_TRUE(displays.insert(row.display).second) << "duplicate display " << row.display;
    EXPECT_NE(PolicyKeysCsv().find(row.key), std::string::npos) << row.key;
  }
  // Unknown, empty and wrong-case names are rejected and leave the output
  // untouched.
  for (const char* bad : {"no-such-policy", "", "WRR", "extLARD", "LARD/R", " wrr"}) {
    Policy parsed = Policy::kLard;
    EXPECT_FALSE(ParsePolicyName(bad, &parsed)) << "'" << bad << "'";
    EXPECT_EQ(parsed, Policy::kLard);
  }
}

// --- Decision-trace harness ---

// Replays a synthetic P-HTTP trace through a dispatcher, interleaving a
// window of concurrent connections (so load builds up) and scripting the
// per-node disk-queue feedback (so extended LARD's busy-disk forwarding
// paths all fire). Every assignment is serialized into the returned decision
// trace; two configs are bit-identical iff their traces compare equal.
std::vector<std::string> DecisionTrace(const DispatcherConfig& base_config, const Trace& trace,
                                       int num_nodes) {
  FakeDiskStats stats(num_nodes);
  DispatcherConfig config = base_config;
  config.num_nodes = num_nodes;
  Dispatcher dispatcher(config, &trace.catalog(), &stats);

  std::vector<std::string> decisions;
  const size_t window = 24;  // concurrent connections
  struct Slot {
    const TraceSession* session = nullptr;
    size_t next_batch = 0;
    ConnId conn = 0;
  };
  std::vector<Slot> slots(window);
  size_t next_session = 0;
  ConnId next_conn = 1;
  uint64_t step = 0;

  auto refill = [&](Slot& slot) {
    while (next_session < trace.sessions().size()) {
      const TraceSession& session = trace.sessions()[next_session++];
      if (session.batches.empty()) {
        continue;
      }
      slot.session = &session;
      slot.next_batch = 0;
      slot.conn = next_conn++;
      dispatcher.OnConnectionOpen(slot.conn);
      return true;
    }
    slot.session = nullptr;
    return false;
  };
  for (Slot& slot : slots) {
    refill(slot);
  }

  bool progress = true;
  while (progress) {
    progress = false;
    for (Slot& slot : slots) {
      if (slot.session == nullptr) {
        continue;
      }
      progress = true;
      // Scripted, deterministic disk feedback: some nodes below the
      // low-queue threshold, some far above it, shifting every step.
      for (NodeId node = 0; node < num_nodes; ++node) {
        stats.Set(node, static_cast<int>((step + static_cast<uint64_t>(node) * 3) % 9));
      }
      ++step;
      const TraceBatch& batch = slot.session->batches[slot.next_batch++];
      const std::vector<Assignment> assignments = dispatcher.OnBatch(slot.conn, batch.targets);
      for (const Assignment& assignment : assignments) {
        decisions.push_back(Describe(assignment) +
                            (assignment.served_from_cache ? "+hit" : "+miss"));
      }
      if (slot.next_batch >= slot.session->batches.size()) {
        dispatcher.OnConnectionClose(slot.conn);
        refill(slot);
      }
    }
  }
  // Close out with the final aggregate state so load-accounting divergence
  // also fails the comparison.
  for (NodeId node = 0; node < num_nodes; ++node) {
    decisions.push_back("load:" + std::to_string(dispatcher.NodeLoad(node)));
  }
  const DispatcherCounters& counters = dispatcher.counters();
  decisions.push_back("counters:" + std::to_string(counters.handoffs) + "/" +
                      std::to_string(counters.local_serves) + "/" +
                      std::to_string(counters.forwards) + "/" +
                      std::to_string(counters.migrations) + "/" +
                      std::to_string(counters.served_without_caching));
  return decisions;
}

Trace RegressionTrace() {
  SyntheticTraceConfig config;
  config.seed = 7;
  config.num_pages = 300;
  config.num_sessions = 600;
  return GenerateSyntheticTrace(config);
}

// The acceptance regression: with every node weight at 1.0, weighted
// extended LARD must produce decision-for-decision identical assignments to
// extended LARD.
TEST(WeightedPolicyTest, EqualWeightsAreBitIdenticalToExtLard) {
  const Trace trace = RegressionTrace();
  const int nodes = 4;
  // Small caches relative to the footprint so eviction and forwarding happen.
  DispatcherConfig unweighted;
  unweighted.policy = Policy::kExtendedLard;
  unweighted.mechanism = Mechanism::kBackEndForwarding;
  unweighted.virtual_cache_bytes = 2ull * 1024 * 1024;

  DispatcherConfig weighted = unweighted;
  weighted.policy = Policy::kWeightedExtendedLard;
  weighted.node_weights = std::vector<double>(nodes, 1.0);

  const std::vector<std::string> a = DecisionTrace(unweighted, trace, nodes);
  const std::vector<std::string> b = DecisionTrace(weighted, trace, nodes);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "decision " << i << " diverged";
  }
  // The same must hold under multiple handoff (migration accounting).
  unweighted.mechanism = Mechanism::kMultipleHandoff;
  weighted.mechanism = Mechanism::kMultipleHandoff;
  EXPECT_EQ(DecisionTrace(unweighted, trace, nodes), DecisionTrace(weighted, trace, nodes));
}

// --- Weighted steering ---

TEST(WeightedPolicyTest, WeightsSteerPlacementTowardCapacity) {
  // Two nodes, 3:1 capacity. Cold targets tie on cost, so the normalized-load
  // tie-break allocates connections roughly 3:1.
  TargetCatalog catalog;
  FakeDiskStats stats(2);
  DispatcherConfig config;
  config.policy = Policy::kWeightedExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.num_nodes = 2;
  config.node_weights = {3.0, 1.0};
  Dispatcher dispatcher(config, &catalog, &stats);
  EXPECT_DOUBLE_EQ(dispatcher.NodeWeight(0), 3.0);
  EXPECT_DOUBLE_EQ(dispatcher.NodeWeight(1), 1.0);

  int on_fast = 0;
  int on_slow = 0;
  for (ConnId conn = 1; conn <= 40; ++conn) {
    const TargetId target = catalog.Intern("/cold" + std::to_string(conn), 1000);
    dispatcher.OnConnectionOpen(conn);
    const auto assignments = dispatcher.OnBatch(conn, {target});  // stays open: 1 load unit
    (assignments[0].node == 0 ? on_fast : on_slow)++;
  }
  EXPECT_EQ(on_fast + on_slow, 40);
  // Exact 3:1 modulo rotation start-up: the fast node must carry close to
  // three quarters of the connections.
  EXPECT_GE(on_fast, 27) << "fast=" << on_fast << " slow=" << on_slow;
  EXPECT_GE(on_slow, 5) << "fast=" << on_fast << " slow=" << on_slow;
  EXPECT_DOUBLE_EQ(dispatcher.NodeLoad(0), static_cast<double>(on_fast));
  EXPECT_NEAR(dispatcher.NormalizedNodeLoad(0), static_cast<double>(on_fast) / 3.0, 1e-9);
}

TEST(WeightedPolicyTest, AddNodeCarriesWeightThroughMembership) {
  TargetCatalog catalog;
  FakeDiskStats stats(1);
  DispatcherConfig config;
  config.policy = Policy::kWeightedExtendedLard;
  config.num_nodes = 1;
  Dispatcher dispatcher(config, &catalog, &stats);
  const NodeId heavy = dispatcher.AddNode(4.0);
  EXPECT_DOUBLE_EQ(dispatcher.NodeWeight(heavy), 4.0);
  EXPECT_DOUBLE_EQ(dispatcher.NodeWeight(0), 1.0);

  // The joined heavy node should absorb most new cold connections.
  int on_heavy = 0;
  for (ConnId conn = 1; conn <= 20; ++conn) {
    const TargetId target = catalog.Intern("/t" + std::to_string(conn), 500);
    dispatcher.OnConnectionOpen(conn);
    if (dispatcher.OnBatch(conn, {target})[0].node == heavy) {
      ++on_heavy;
    }
  }
  EXPECT_GE(on_heavy, 14);
}

// --- LARD/R ---

TEST(LardReplicationTest, HotTargetSplitsAcrossReplicaSet) {
  TargetCatalog catalog;
  FakeDiskStats stats(3);
  LardParams params;
  params.l_idle = 2.0;
  params.l_overload = 8.0;  // T_high = 4
  params.miss_cost = 4.0;
  DispatcherConfig config;
  config.policy = Policy::kLardReplication;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.num_nodes = 3;
  config.params = params;
  Dispatcher dispatcher(config, &catalog, &stats);

  const TargetId hot = catalog.Intern("/hot", 1000);
  std::set<NodeId> serving;
  for (ConnId conn = 1; conn <= 12; ++conn) {
    dispatcher.OnConnectionOpen(conn);
    serving.insert(dispatcher.OnBatch(conn, {hot})[0].node);  // conns stay open
  }
  // One node would sit at load 12 — far past T_high. The replica set must
  // have grown so the hot target's connections split across nodes.
  EXPECT_GE(serving.size(), 2u) << "hot target never replicated";
  // And the load actually split: no node carries everything.
  for (const NodeId node : serving) {
    EXPECT_LT(dispatcher.NodeLoad(node), 12.0);
  }
}

TEST(LardReplicationTest, ColdTargetsStayUnreplicated) {
  TargetCatalog catalog;
  FakeDiskStats stats(3);
  DispatcherConfig config;
  config.policy = Policy::kLardReplication;
  config.num_nodes = 3;
  Dispatcher dispatcher(config, &catalog, &stats);

  // Light traffic (loads below T_high): each target sticks to one node,
  // exactly like basic LARD.
  const TargetId t = catalog.Intern("/cold", 1000);
  const NodeId home = [&] {
    dispatcher.OnConnectionOpen(1);
    const NodeId node = dispatcher.OnBatch(1, {t})[0].node;
    dispatcher.OnConnectionClose(1);
    return node;
  }();
  for (ConnId conn = 2; conn <= 8; ++conn) {
    dispatcher.OnConnectionOpen(conn);
    EXPECT_EQ(dispatcher.OnBatch(conn, {t})[0].node, home);
    dispatcher.OnConnectionClose(conn);
  }
}

// --- Runtime policy switching (the policy knob of admin POST /config) ---

TEST(PolicySwitchTest, SwitchMidWorkloadConservesLoadAndConnections) {
  TargetCatalog catalog;
  FakeDiskStats stats(3);
  DispatcherConfig config;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.num_nodes = 3;
  Dispatcher dispatcher(config, &catalog, &stats);

  // A working set of open connections mid-batch.
  std::vector<TargetId> targets;
  for (int i = 0; i < 12; ++i) {
    targets.push_back(catalog.Intern("/doc" + std::to_string(i), 2000));
  }
  std::vector<NodeId> handling;
  for (ConnId conn = 1; conn <= 12; ++conn) {
    dispatcher.OnConnectionOpen(conn);
    dispatcher.OnBatch(conn, {targets[static_cast<size_t>(conn - 1)]});
    handling.push_back(dispatcher.HandlingNode(conn));
  }
  double total_before = 0.0;
  for (NodeId node = 0; node < 3; ++node) {
    total_before += dispatcher.NodeLoad(node);
  }

  dispatcher.SetPolicy(Policy::kWrr);
  EXPECT_EQ(dispatcher.policy(), Policy::kWrr);

  // Existing connections keep their handling nodes; loads are conserved.
  double total_after = 0.0;
  for (NodeId node = 0; node < 3; ++node) {
    total_after += dispatcher.NodeLoad(node);
  }
  EXPECT_DOUBLE_EQ(total_before, total_after);
  for (ConnId conn = 1; conn <= 12; ++conn) {
    EXPECT_EQ(dispatcher.HandlingNode(conn), handling[static_cast<size_t>(conn - 1)])
        << "conn " << conn << " moved on policy switch";
  }

  // Subsequent batches on existing connections stay pinned (WRR is
  // connection-granularity) and the per-node loads still sum correctly.
  for (ConnId conn = 1; conn <= 12; ++conn) {
    const auto assignments = dispatcher.OnBatch(conn, {targets[0]});
    EXPECT_EQ(assignments[0].node, handling[static_cast<size_t>(conn - 1)]);
  }

  // Every policy round-trips through the dispatcher by key...
  for (const Policy policy : {Policy::kWrr, Policy::kLard, Policy::kExtendedLard,
                              Policy::kWeightedExtendedLard, Policy::kLardReplication}) {
    const std::string name = PolicyKey(policy);
    Policy parsed = Policy::kWrr;
    ASSERT_TRUE(ParsePolicyName(name, &parsed)) << name;
    dispatcher.SetPolicy(parsed);
    EXPECT_EQ(dispatcher.policy(), policy);
    double total = 0.0;
    for (NodeId node = 0; node < 3; ++node) {
      total += dispatcher.NodeLoad(node);
    }
    EXPECT_DOUBLE_EQ(total, total_before) << "load leaked switching to " << name;
  }
  // ...and an unknown name does not parse.
  Policy unknown = Policy::kWrr;
  EXPECT_FALSE(ParsePolicyName("bogus", &unknown));

  // The workload continues cleanly after all the switching.
  for (ConnId conn = 1; conn <= 12; ++conn) {
    dispatcher.OnConnectionClose(conn);
  }
  for (NodeId node = 0; node < 3; ++node) {
    EXPECT_NEAR(dispatcher.NodeLoad(node), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace lard
