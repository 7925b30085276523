// End-to-end tests of the replicated front-end tier on the real prototype:
// two front-ends with their own listen ports and control sessions, the
// pairwise gossip mesh, per-FE metrics labels, GET /mesh, and membership
// operations fanned out across the replicas.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "src/admin/admin_client.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

Trace TestTrace(int sessions = 300) {
  SyntheticTraceConfig config;
  config.seed = 11;
  config.num_pages = 80;
  config.num_sessions = sessions;
  config.num_clients = 16;
  config.max_size_bytes = 32 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterConfig MeshConfig(int nodes, int frontends) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.num_frontends = frontends;
  config.gossip_interval_ms = 10;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.disk_time_scale = 0.02;
  config.heartbeat_timeout_ms = 2000;
  config.retire_grace_ms = 2000;
  return config;
}

TEST(ProtoMeshTest, TwoFrontEndsServeSprayedTrafficCorrectly) {
  const Trace trace = TestTrace();
  Cluster cluster(MeshConfig(3, 2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  const std::vector<uint16_t> ports = cluster.ports();
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_NE(ports[0], ports[1]);

  LoadGeneratorConfig load;
  load.ports = ports;  // clients spray across the tier
  load.num_clients = 8;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.responses_bad, 0u);
  EXPECT_EQ(result.transport_errors, 0u);

  // Both replicas took connections, and each connection has exactly one
  // owner (the tier-wide accepted count matches the per-replica sum).
  const uint64_t fe0 = cluster.frontend(0).counters().connections_accepted.load();
  const uint64_t fe1 = cluster.frontend(1).counters().connections_accepted.load();
  EXPECT_GT(fe0, 0u);
  EXPECT_GT(fe1, 0u);
  const ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_EQ(snapshot.connections, fe0 + fe1);
  EXPECT_EQ(snapshot.requests_served, trace.total_requests());

  // Gossip flowed: each replica applied deltas from the other and neither
  // saw an epoch regression.
  for (int fe = 0; fe < 2; ++fe) {
    const std::string mesh = cluster.frontend(fe).DescribeMeshJson();
    EXPECT_NE(mesh.find("\"peers\":[{"), std::string::npos) << mesh;
    EXPECT_NE(mesh.find("\"epoch_regressions\":0"), std::string::npos) << mesh;
  }
  cluster.Stop();
}

TEST(ProtoMeshTest, MeshEndpointAndPerFeMetricLabels) {
  const Trace trace = TestTrace(150);
  Cluster cluster(MeshConfig(2, 2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  LoadGeneratorConfig load;
  load.ports = cluster.ports();
  load.num_clients = 4;
  (void)RunLoad(load, trace);
  // Let at least one gossip tick refresh the snapshots.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  const AdminReply mesh = AdminRequest(cluster.admin_port(), "GET", "/mesh");
  EXPECT_EQ(mesh.status, 200) << mesh.body;
  EXPECT_NE(mesh.body.find("\"frontends\":2"), std::string::npos) << mesh.body;
  EXPECT_NE(mesh.body.find("\"fe_id\":0"), std::string::npos) << mesh.body;
  EXPECT_NE(mesh.body.find("\"fe_id\":1"), std::string::npos) << mesh.body;
  EXPECT_NE(mesh.body.find("\"membership_epoch\""), std::string::npos) << mesh.body;
  EXPECT_NE(mesh.body.find("\"gossip_lag_ms\""), std::string::npos) << mesh.body;

  const AdminReply metrics = AdminRequest(cluster.admin_port(), "GET", "/metrics");
  EXPECT_NE(metrics.body.find("lard_fe_connections_total{fe=\"0\"}"), std::string::npos);
  EXPECT_NE(metrics.body.find("lard_fe_connections_total{fe=\"1\"}"), std::string::npos);
  EXPECT_NE(metrics.body.find("lard_mesh_peers{fe=\"0\"}"), std::string::npos);
  EXPECT_NE(metrics.body.find("lard_mesh_deltas_sent_total{fe=\"1\"}"), std::string::npos);
  cluster.Stop();
}

TEST(ProtoMeshTest, MembershipOperationsFanOutToEveryReplica) {
  const Trace trace = TestTrace(150);
  Cluster cluster(MeshConfig(2, 2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  // Replica dispatchers are loop-thread-confined; every read below runs on
  // the owning loop via InspectReplica (a bare cluster.frontend(fe) read
  // from this thread would be a data race — ThreadSanitizer agrees).
  const auto node_slots = [&](int fe) {
    int slots = 0;
    cluster.InspectReplica(
        fe, [&](const FrontEnd& frontend) { slots = frontend.dispatcher().num_node_slots(); });
    return slots;
  };
  const auto node_state = [&](int fe, NodeId node) {
    NodeState state = NodeState::kActive;
    cluster.InspectReplica(
        fe, [&](const FrontEnd& frontend) { state = frontend.dispatcher().node_state(node); });
    return state;
  };

  // Join: both replicas must allocate the same id (replica 0 registers
  // synchronously, the fan-out to replica 1 is posted — poll for it).
  const NodeId added = cluster.AddNode(2.0);
  EXPECT_EQ(added, 2);
  EXPECT_EQ(node_slots(0), 3);
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (node_slots(1) == 3) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(node_slots(1), 3);
  for (int fe = 0; fe < 2; ++fe) {
    double weight = 0.0;
    cluster.InspectReplica(fe, [&](const FrontEnd& frontend) {
      weight = frontend.dispatcher().NodeWeight(added);
    });
    EXPECT_DOUBLE_EQ(weight, 2.0);
  }

  // Drain: every replica stops assigning to the node (replica 0 answers
  // synchronously; the fan-out to the others is posted, so poll).
  ASSERT_TRUE(cluster.DrainNode(added));
  EXPECT_EQ(node_state(0, added), NodeState::kDraining);
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (node_state(1, added) == NodeState::kDraining) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(node_state(1, added), NodeState::kDraining);

  // Remove: the node disappears from both replicas (and its thread only
  // stops after both have let go — Stop() would hang otherwise).
  ASSERT_TRUE(cluster.RemoveNode(added));
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (node_state(0, added) == NodeState::kDead && node_state(1, added) == NodeState::kDead) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (int fe = 0; fe < 2; ++fe) {
    EXPECT_EQ(node_state(fe, added), NodeState::kDead);
  }

  // The tier still serves after the churn.
  LoadGeneratorConfig load;
  load.ports = cluster.ports();
  load.num_clients = 4;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.transport_errors, 0u);
  cluster.Stop();
}

TEST(ProtoMeshTest, DrainUnderLoadMigratesInsteadOfResetting) {
  const Trace trace = TestTrace(800);
  Cluster cluster(MeshConfig(3, 2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  LoadResult result;
  std::thread load_thread([&]() {
    LoadGeneratorConfig load;
    load.ports = cluster.ports();
    load.num_clients = 8;
    load.recv_timeout_ms = 10000;
    result = RunLoad(load, trace);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(cluster.DrainNode(1));
  load_thread.join();

  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.responses_bad, 0u);
  EXPECT_EQ(result.transport_errors, 0u);
  cluster.Stop();
}

}  // namespace
}  // namespace lard
