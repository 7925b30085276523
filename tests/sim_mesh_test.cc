// Replicated-front-end-tier simulator tests: the mesh run completes with its
// invariants intact (unique connection ownership, monotone epochs, load
// conservation), gossip actually flows, membership events replay on every
// replica, and the shared capacity-weight validator rejects bad joins.
#include <gtest/gtest.h>

#include "src/sim/cluster_sim.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

Trace TestTrace(int sessions = 1200) {
  SyntheticTraceConfig config;
  config.seed = 7;
  config.num_pages = 150;
  config.num_sessions = sessions;
  config.max_size_bytes = 32 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterSimConfig MeshConfig(int frontends, int nodes = 4) {
  ClusterSimConfig config;
  config.num_nodes = nodes;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 4ull * 1024 * 1024;
  config.concurrent_sessions_per_node = 16;
  config.num_frontends = frontends;
  config.gossip_interval_us = 2000;
  return config;
}

void ExpectMeshInvariants(const ClusterSimMetrics& metrics) {
  EXPECT_EQ(metrics.ownership_violations, 0u) << "a connection was claimed by two dispatchers";
  EXPECT_EQ(metrics.mesh_epoch_regressions, 0u);
  // Membership events hit every replica at the same simulated instant, so
  // gossiped membership/weight beliefs must always agree.
  EXPECT_EQ(metrics.gossip_divergent_deltas, 0u);
  EXPECT_TRUE(metrics.mesh_epochs_converged);
  EXPECT_TRUE(metrics.mesh_load_conserved)
      << "a replica finished with leftover load or open connections";
}

TEST(SimMeshTest, TwoFrontEndsServeTheWholeTraceWithInvariantsIntact) {
  const Trace trace = TestTrace();
  ClusterSim sim(MeshConfig(2), &trace);
  const ClusterSimMetrics metrics = sim.Run();

  EXPECT_EQ(metrics.total_connections, trace.sessions().size());
  EXPECT_EQ(metrics.total_requests, trace.total_requests());
  EXPECT_EQ(metrics.dispatcher.requests, trace.total_requests());
  EXPECT_EQ(metrics.frontends, 2);
  ASSERT_EQ(metrics.per_fe_utilization.size(), 2u);
  EXPECT_GT(metrics.gossip_rounds, 0u);
  EXPECT_GT(metrics.gossip_deltas_applied, 0u);
  EXPECT_GT(metrics.gossip_bytes, 0u);
  EXPECT_EQ(metrics.gossip_stale_drops, 0u);  // in-order channels never reorder
  ExpectMeshInvariants(metrics);

  // Both replicas must have taken a meaningful share of the sessions.
  EXPECT_GT(metrics.per_fe_utilization[0], 0.0);
  EXPECT_GT(metrics.per_fe_utilization[1], 0.0);
}

TEST(SimMeshTest, SingleFrontEndTierMatchesLegacyBehaviour) {
  const Trace trace = TestTrace(600);
  // num_frontends = 1 must not change anything relative to a config that
  // never heard of the mesh — same decisions, same totals, no gossip.
  ClusterSimConfig legacy = MeshConfig(1);
  legacy.gossip_interval_us = 999999;  // irrelevant with one FE
  const ClusterSimMetrics a = ClusterSim(legacy, &trace).Run();
  const ClusterSimMetrics b = ClusterSim(MeshConfig(1), &trace).Run();
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.dispatcher.handoffs, b.dispatcher.handoffs);
  EXPECT_EQ(a.dispatcher.forwards, b.dispatcher.forwards);
  EXPECT_EQ(a.dispatcher.local_serves, b.dispatcher.local_serves);
  EXPECT_EQ(a.cache_hit_rate, b.cache_hit_rate);
  EXPECT_EQ(a.gossip_rounds, 0u);
  EXPECT_EQ(b.gossip_rounds, 0u);
}

TEST(SimMeshTest, MembershipEventsReplayOnEveryReplica) {
  const Trace trace = TestTrace();
  ClusterSimConfig config = MeshConfig(2, 3);
  config.membership_events.push_back({30000, MembershipAction::kNodeJoin, kInvalidNode, 2.0, 2.0});
  config.membership_events.push_back({60000, MembershipAction::kNodeDrain, 1});
  config.membership_events.push_back({90000, MembershipAction::kNodeFailure, 2});
  const ClusterSimMetrics metrics = ClusterSim(config, &trace).Run();

  EXPECT_EQ(metrics.nodes_joined, 1u);
  EXPECT_EQ(metrics.nodes_drained, 1u);
  EXPECT_EQ(metrics.nodes_failed, 1u);
  // Each of the two dispatchers performed the same three mutations.
  EXPECT_EQ(metrics.dispatcher.nodes_added, 2u);
  EXPECT_EQ(metrics.dispatcher.nodes_drained, 2u);
  EXPECT_EQ(metrics.dispatcher.nodes_removed, 2u);
  ExpectMeshInvariants(metrics);
}

TEST(SimMeshTest, InvalidJoinWeightIsRejectedNotFatal) {
  const Trace trace = TestTrace(300);
  ClusterSimConfig config = MeshConfig(2, 2);
  MembershipEvent bad;
  bad.at_us = 10000;
  bad.action = MembershipAction::kNodeJoin;
  bad.weight = -2.0;  // IsValidCapacityWeight says no
  bad.speed = 1.0;
  config.membership_events.push_back(bad);
  MembershipEvent bad_speed;
  bad_speed.at_us = 20000;
  bad_speed.action = MembershipAction::kNodeJoin;
  bad_speed.weight = 1.0;
  bad_speed.speed = 0.0;
  config.membership_events.push_back(bad_speed);
  const ClusterSimMetrics metrics = ClusterSim(config, &trace).Run();

  EXPECT_EQ(metrics.nodes_joined, 0u);
  EXPECT_EQ(metrics.rejected_membership_events, 2u);
  EXPECT_EQ(metrics.dispatcher.nodes_added, 0u);
  ExpectMeshInvariants(metrics);
}

TEST(SimMeshTest, FourFrontEndsStillConserveEverything) {
  const Trace trace = TestTrace(800);
  const ClusterSimMetrics metrics = ClusterSim(MeshConfig(4, 6), &trace).Run();
  EXPECT_EQ(metrics.total_connections, trace.sessions().size());
  EXPECT_EQ(metrics.frontends, 4);
  ASSERT_EQ(metrics.per_fe_utilization.size(), 4u);
  ExpectMeshInvariants(metrics);
}

}  // namespace
}  // namespace lard
