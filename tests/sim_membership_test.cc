// Deterministic control-plane scenarios in the discrete-event simulator:
// NodeFailure (with connection failover), NodeJoin and NodeDrain replayed at
// fixed simulated times, and run-to-run determinism of the whole scenario.
#include <gtest/gtest.h>

#include "src/sim/cluster_sim.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

Trace TestTrace(uint64_t seed = 3) {
  SyntheticTraceConfig config;
  config.seed = seed;
  config.num_pages = 120;
  config.num_sessions = 400;
  config.num_clients = 32;
  config.max_size_bytes = 64 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterSimConfig BaseConfig(int nodes) {
  ClusterSimConfig config;
  config.num_nodes = nodes;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 4ull * 1024 * 1024;
  config.concurrent_sessions_per_node = 16;
  return config;
}

TEST(SimMembershipTest, NodeFailureFailsOverAndFinishesTheTrace) {
  const Trace trace = TestTrace();
  ClusterSimConfig config = BaseConfig(4);
  config.membership_events = {{/*at_us=*/200000, MembershipAction::kNodeFailure, /*node=*/1}};
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();

  // Every session still completes (the CHECK inside Run guarantees it); the
  // failure is visible in the control-plane counters.
  EXPECT_EQ(metrics.total_requests, trace.total_requests());
  EXPECT_EQ(metrics.nodes_failed, 1u);
  EXPECT_GT(metrics.failovers, 0u) << "node 1 should have held connections at t=0.2s";
  EXPECT_EQ(metrics.dispatcher.nodes_removed, 1u);
  EXPECT_GT(metrics.dispatcher.orphaned_connections, 0u);

  // The dead node served strictly less than the survivors (it worked only
  // 0.2 simulated seconds of the run).
  const auto& failed = metrics.per_node[1];
  for (int node : {0, 2, 3}) {
    EXPECT_LT(failed.requests, metrics.per_node[static_cast<size_t>(node)].requests);
  }
}

TEST(SimMembershipTest, ScenarioIsDeterministic) {
  const Trace trace = TestTrace(17);
  auto run_once = [&trace]() {
    ClusterSimConfig config = BaseConfig(3);
    config.membership_events = {
        {100000, MembershipAction::kNodeFailure, 0},
        {150000, MembershipAction::kNodeJoin, kInvalidNode},
    };
    ClusterSim sim(config, &trace);
    return sim.Run();
  };
  const ClusterSimMetrics a = run_once();
  const ClusterSimMetrics b = run_once();
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, b.cache_hit_rate);
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (size_t i = 0; i < a.per_node.size(); ++i) {
    EXPECT_EQ(a.per_node[i].requests, b.per_node[i].requests) << "node " << i;
  }
}

TEST(SimMembershipTest, NodeJoinExpandsCapacityAndTakesLoad) {
  const Trace trace = TestTrace(23);
  ClusterSimConfig config = BaseConfig(2);
  config.membership_events = {{50000, MembershipAction::kNodeJoin, kInvalidNode}};
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.nodes_joined, 1u);
  ASSERT_EQ(metrics.per_node.size(), 3u);
  EXPECT_GT(metrics.per_node[2].requests, 0u) << "joined node took no work";
  EXPECT_EQ(metrics.total_requests, trace.total_requests());
}

TEST(SimMembershipTest, NodeDrainShedsNewWorkOnly) {
  const Trace trace = TestTrace(29);
  ClusterSimConfig config = BaseConfig(3);
  config.membership_events = {{100000, MembershipAction::kNodeDrain, 2}};
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.nodes_drained, 1u);
  EXPECT_EQ(metrics.failovers, 0u);  // drain loses no connections
  EXPECT_EQ(metrics.total_requests, trace.total_requests());
  // The drained node did some work (before + during drain-out) but clearly
  // less than the nodes that stayed active.
  EXPECT_GT(metrics.per_node[2].requests, 0u);
  for (int node : {0, 1}) {
    EXPECT_LT(metrics.per_node[2].requests,
              metrics.per_node[static_cast<size_t>(node)].requests);
  }
}

TEST(SimMembershipTest, FailureDuringThinkTimesStillCompletes) {
  // A node can die while sessions are parked in think-time waits (connection
  // established, no batch outstanding); those sessions must reconnect when
  // their next batch fires instead of tripping over erased dispatcher state.
  const Trace trace = TestTrace(41);
  ClusterSimConfig config = BaseConfig(3);
  config.use_think_times = true;
  config.membership_events = {{150000, MembershipAction::kNodeFailure, 0}};
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.total_requests, trace.total_requests());
  EXPECT_EQ(metrics.nodes_failed, 1u);
  EXPECT_GT(metrics.failovers, 0u);
}

TEST(SimMembershipTest, FailureOfWholeBatchNodeCompletes) {
  const Trace trace = TestTrace(31);
  ClusterSimConfig config = BaseConfig(3);
  config.membership_events = {{120000, MembershipAction::kNodeFailure, 1}};
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.total_requests, trace.total_requests());
  EXPECT_EQ(metrics.nodes_failed, 1u);
}

}  // namespace
}  // namespace lard
