// End-to-end tests of the reverse-handoff path: a draining or admin-removed
// back-end gives its in-flight persistent connections back to the front-end
// (kHandback with no target), the dispatcher reassigns them
// (ReassignConnection), and the front-end re-handoffs them to surviving
// nodes — with zero client-visible resets, and with the simulator's
// deterministic NodeDrain twin reporting the same migration semantics.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/http/response_parser.h"
#include "src/admin/admin_client.h"
#include "src/net/socket.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/sim/cluster_sim.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

Trace TestTrace(uint64_t seed = 42, int sessions = 300) {
  SyntheticTraceConfig config;
  config.seed = seed;
  config.num_pages = 60;
  config.num_sessions = sessions;
  config.num_clients = 16;
  config.max_size_bytes = 32 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterConfig BaseConfig(int nodes, Policy policy = Policy::kExtendedLard,
                         Mechanism mechanism = Mechanism::kBackEndForwarding) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = policy;
  config.mechanism = mechanism;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.disk_time_scale = 0.02;
  config.heartbeat_timeout_ms = 2000;
  config.retire_grace_ms = 1500;
  return config;
}

// One serialized GET on an existing socket; returns the parsed response.
bool RoundTrip(int fd, const std::string& path, HttpResponse* response) {
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    return false;
  }
  ResponseParser parser;
  std::vector<HttpResponse> responses;
  char buf[16384];
  while (responses.empty()) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      return false;
    }
    if (parser.Feed(std::string_view(buf, static_cast<size_t>(n)), &responses) ==
        ResponseParser::State::kError) {
      return false;
    }
  }
  *response = responses[0];
  return true;
}

bool WaitFor(const std::function<bool()>& predicate, int64_t timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return predicate();
}

TEST(ProtoRehandoffTest, IdleKeepAliveConnectionsMigrateOffDrainedNodes) {
  // Deterministic version of the rolling drain: six idle keep-alive
  // connections spread over three nodes; draining nodes 1 and 2 must migrate
  // their connections to node 0 and every connection must keep working with
  // zero client-visible resets.
  const Trace trace = TestTrace(7);
  Cluster cluster(BaseConfig(3), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  constexpr size_t kConns = 6;
  std::vector<UniqueFd> fds;
  for (size_t i = 0; i < kConns; ++i) {
    auto fd = ConnectTcp(cluster.port());
    ASSERT_TRUE(fd.ok());
    HttpResponse response;
    // Distinct cold targets rotate round-robin across the nodes.
    ASSERT_TRUE(RoundTrip(fd.value().get(), trace.catalog().Get(i).path, &response))
        << "conn " << i;
    EXPECT_EQ(response.status, 200);
    fds.push_back(std::move(fd.value()));
  }

  ASSERT_TRUE(cluster.DrainNode(1));
  ASSERT_TRUE(cluster.DrainNode(2));

  // The drained nodes' idle connections come home and get re-handed-off.
  ASSERT_TRUE(WaitFor([&]() { return cluster.Snapshot().rehandoffs >= 3; }))
      << "only " << cluster.Snapshot().rehandoffs << " re-handoffs";

  // Every connection — migrated or not — still serves correctly on the same
  // socket: the drain was invisible to the clients.
  for (size_t i = 0; i < kConns; ++i) {
    HttpResponse response;
    ASSERT_TRUE(RoundTrip(fds[i].get(), trace.catalog().Get(i + kConns).path, &response))
        << "conn " << i << " died across the drain";
    EXPECT_EQ(response.status, 200) << "conn " << i;
    EXPECT_EQ(response.body.size(), trace.catalog().Get(i + kConns).size_bytes) << "conn " << i;
  }

  cluster.Stop();
  const ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_GE(snapshot.drain_handbacks, snapshot.rehandoffs);
  // The FE's re-handoff count and the dispatcher's reassignment count are the
  // same events seen from the two layers.
  EXPECT_EQ(snapshot.rehandoffs, cluster.frontend().dispatcher().counters().reassignments);
}

TEST(ProtoRehandoffTest, DrainUnderLoadMigratesWithZeroResets) {
  // Sustained load-generator traffic while two of three nodes drain: every
  // request must still be answered correctly on its original connection.
  const Trace trace = TestTrace(11, 400);
  Cluster cluster(BaseConfig(3), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  LoadResult result;
  std::thread load_thread([&]() {
    LoadGeneratorConfig load;
    load.port = cluster.port();
    load.num_clients = 8;
    load.recv_timeout_ms = 5000;
    result = RunLoad(load, trace);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(cluster.DrainNode(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(cluster.DrainNode(2));
  load_thread.join();

  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.responses_bad, 0u);
  EXPECT_EQ(result.transport_errors, 0u);

  cluster.Stop();
  const ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_GT(snapshot.rehandoffs, 0u) << "drain should have migrated live connections";
  EXPECT_GT(snapshot.drain_handbacks, 0u);
  EXPECT_EQ(snapshot.rehandoffs, cluster.frontend().dispatcher().counters().reassignments);
}

TEST(ProtoRehandoffTest, SingleHandoffAutonomousConnectionsAlsoMigrate) {
  // The giveback path is mechanism-agnostic: WRR over single handoff
  // (autonomous connections, no per-request consults) migrates too.
  const Trace trace = TestTrace(13);
  Cluster cluster(BaseConfig(2, Policy::kWrr, Mechanism::kSingleHandoff), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  std::vector<UniqueFd> fds;
  for (size_t i = 0; i < 4; ++i) {
    auto fd = ConnectTcp(cluster.port());
    ASSERT_TRUE(fd.ok());
    HttpResponse response;
    ASSERT_TRUE(RoundTrip(fd.value().get(), trace.catalog().Get(i).path, &response));
    fds.push_back(std::move(fd.value()));
  }
  ASSERT_TRUE(cluster.DrainNode(0));
  ASSERT_TRUE(WaitFor([&]() { return cluster.Snapshot().rehandoffs >= 2; }));
  for (size_t i = 0; i < fds.size(); ++i) {
    HttpResponse response;
    ASSERT_TRUE(RoundTrip(fds[i].get(), trace.catalog().Get(i + 4).path, &response))
        << "conn " << i;
    EXPECT_EQ(response.status, 200);
  }
  cluster.Stop();
}

TEST(ProtoRehandoffTest, GracefulRemoveMigratesThenRemoves) {
  // Admin remove of a live node: its connections must migrate (retire) before
  // the node disappears, and the node must actually end up dead.
  const Trace trace = TestTrace(17);
  Cluster cluster(BaseConfig(3), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  std::vector<UniqueFd> fds;
  for (size_t i = 0; i < 6; ++i) {
    auto fd = ConnectTcp(cluster.port());
    ASSERT_TRUE(fd.ok());
    HttpResponse response;
    ASSERT_TRUE(RoundTrip(fd.value().get(), trace.catalog().Get(i).path, &response));
    fds.push_back(std::move(fd.value()));
  }

  ASSERT_TRUE(cluster.RemoveNode(1));
  // Retirement completes once the node's connections migrated away (well
  // before the grace period).
  ASSERT_TRUE(WaitFor([&]() {
    return cluster.metrics()
                   ->Gauge(MetricsRegistry::WithFe("lard_cluster_active_nodes", 0))
                   ->value() <= 2.0 &&
           cluster.Snapshot().rehandoffs >= 2;
  }));
  ASSERT_TRUE(WaitFor([&]() {
    return AdminRequest(cluster.admin_port(), "GET", "/nodes")
               .body.find("\"id\":1,\"state\":\"dead\"") != std::string::npos;
  })) << AdminRequest(cluster.admin_port(), "GET", "/nodes").body;

  // No client saw the removal.
  for (size_t i = 0; i < fds.size(); ++i) {
    HttpResponse response;
    ASSERT_TRUE(RoundTrip(fds[i].get(), trace.catalog().Get(i + 6).path, &response))
        << "conn " << i << " died across the graceful remove";
    EXPECT_EQ(response.status, 200);
  }
  EXPECT_EQ(cluster.Snapshot().auto_removals, 0u) << "retire must not count as a failure";
  cluster.Stop();
}

TEST(ProtoRehandoffTest, SnapshotKeepsARemovedNodesCounts) {
  // A node's counts live in the cluster's registry, not in its server: once
  // the removed node's server is destroyed, Snapshot() must still count what
  // it served, so no cluster total goes backwards.
  const Trace trace = TestTrace(31, 150);
  Cluster cluster(BaseConfig(3), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 8;
  ASSERT_EQ(RunLoad(load, trace).responses_ok, trace.total_requests());

  const ClusterSnapshot before = cluster.Snapshot();
  ASSERT_EQ(before.requests_per_node.size(), 3u);
  NodeId removed = 0;
  for (NodeId node = 1; node < 3; ++node) {
    if (before.requests_per_node[static_cast<size_t>(node)] >
        before.requests_per_node[static_cast<size_t>(removed)]) {
      removed = node;
    }
  }
  ASSERT_GT(before.requests_per_node[static_cast<size_t>(removed)], 0u);

  ASSERT_TRUE(cluster.RemoveNode(removed));
  // The front end marks the node dead and tears its server down in the same
  // loop-0 callback, so a dead node on loop 0 means the server is gone.
  ASSERT_TRUE(WaitFor([&]() {
    NodeState state = NodeState::kActive;
    cluster.InspectReplica(0, [&](const FrontEnd& frontend) {
      state = frontend.dispatcher().node_state(removed);
    });
    return state == NodeState::kDead;
  }));

  const ClusterSnapshot after = cluster.Snapshot();
  EXPECT_GE(after.requests_per_node[static_cast<size_t>(removed)],
            before.requests_per_node[static_cast<size_t>(removed)]);
  EXPECT_GE(after.requests_served, before.requests_served);
  EXPECT_GE(after.local_hits, before.local_hits);
  EXPECT_GE(after.local_misses, before.local_misses);
  EXPECT_GE(after.bytes_to_clients, before.bytes_to_clients);
  cluster.Stop();
}

TEST(ProtoRehandoffTest, SimNodeDrainMigratesInsteadOfPinning) {
  // The simulator's NodeDrain twin: draining migrates connections (rehandoffs
  // > 0, counted identically by the sim and the shared dispatcher) and loses
  // none (failovers == 0), and the drained node goes fully idle afterwards.
  const Trace trace = TestTrace(23, 500);
  ClusterSimConfig config;
  config.num_nodes = 3;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.concurrent_sessions_per_node = 16;
  config.membership_events = {{100000, MembershipAction::kNodeDrain, 1}};
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();

  EXPECT_EQ(metrics.total_requests, trace.total_requests());
  EXPECT_EQ(metrics.nodes_drained, 1u);
  EXPECT_EQ(metrics.failovers, 0u);
  EXPECT_GT(metrics.rehandoffs, 0u) << "drain must migrate the node's connections";
  // The same migrations seen from the sim layer and the shared dispatcher.
  EXPECT_EQ(metrics.rehandoffs, metrics.dispatcher.reassignments);
}

TEST(ProtoRehandoffTest, SimAndPrototypeDrainCountersAgreeInShape) {
  // Sim and prototype replay the same one-drain scenario; both must report
  // the migration through the same counter pair (rehandoffs ==
  // dispatcher.reassignments > 0) — the acceptance criterion that the two
  // implementations of NodeDrain share semantics.
  const Trace trace = TestTrace(29, 300);

  // Prototype. Three pinned keep-alive connections (one lands on each node —
  // cold targets rotate) guarantee the drained node holds a migratable
  // connection regardless of load timing.
  Cluster cluster(BaseConfig(3), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  std::vector<UniqueFd> pinned;
  for (size_t i = 0; i < 3; ++i) {
    auto fd = ConnectTcp(cluster.port());
    ASSERT_TRUE(fd.ok());
    HttpResponse response;
    ASSERT_TRUE(RoundTrip(fd.value().get(), trace.catalog().Get(i).path, &response));
    pinned.push_back(std::move(fd.value()));
  }
  LoadResult result;
  std::thread load_thread([&]() {
    LoadGeneratorConfig load;
    load.port = cluster.port();
    load.num_clients = 8;
    load.recv_timeout_ms = 5000;
    result = RunLoad(load, trace);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(cluster.DrainNode(1));
  load_thread.join();
  ASSERT_TRUE(WaitFor([&]() { return cluster.Snapshot().rehandoffs >= 1; }));
  // The pinned connections survived the drain on their original sockets.
  for (size_t i = 0; i < pinned.size(); ++i) {
    HttpResponse response;
    ASSERT_TRUE(RoundTrip(pinned[i].get(), trace.catalog().Get(i + 3).path, &response))
        << "pinned conn " << i;
    EXPECT_EQ(response.status, 200);
  }
  pinned.clear();
  cluster.Stop();
  const ClusterSnapshot snapshot = cluster.Snapshot();
  const uint64_t prototype_reassignments =
      cluster.frontend().dispatcher().counters().reassignments;

  // Simulator.
  ClusterSimConfig sim_config;
  sim_config.num_nodes = 3;
  sim_config.policy = Policy::kExtendedLard;
  sim_config.mechanism = Mechanism::kBackEndForwarding;
  sim_config.backend_cache_bytes = 2ull * 1024 * 1024;
  sim_config.concurrent_sessions_per_node = 16;
  sim_config.membership_events = {{100000, MembershipAction::kNodeDrain, 1}};
  ClusterSim sim(sim_config, &trace);
  const ClusterSimMetrics sim_metrics = sim.Run();

  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.transport_errors, 0u);
  EXPECT_GT(snapshot.rehandoffs, 0u);
  EXPECT_EQ(snapshot.rehandoffs, prototype_reassignments);
  EXPECT_GT(sim_metrics.rehandoffs, 0u);
  EXPECT_EQ(sim_metrics.rehandoffs, sim_metrics.dispatcher.reassignments);
  EXPECT_EQ(sim_metrics.failovers, 0u);
}

}  // namespace
}  // namespace lard
