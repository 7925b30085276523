// End-to-end integration tests of the prototype cluster: real sockets on
// localhost, real fd-passing handoff, real lateral fetches — compressed disk
// time so the suite stays fast.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <sys/time.h>

#include <chrono>
#include <future>
#include <thread>

#include "src/net/event_loop_group.h"
#include "src/net/socket.h"
#include "src/obs/process_stats.h"
#include "src/proto/cluster.h"
#include "src/proto/frontend.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

// Small but non-trivial workload: enough distinct pages to exceed the tiny
// back-end caches we configure, so the disk & lateral paths get exercised.
Trace TestTrace(uint64_t seed = 42) {
  SyntheticTraceConfig config;
  config.seed = seed;
  config.num_pages = 60;
  config.num_sessions = 120;
  config.num_clients = 16;
  config.max_size_bytes = 64 * 1024;  // keep bodies small for test speed
  return GenerateSyntheticTrace(config);
}

ClusterConfig BaseConfig(int nodes, Policy policy, Mechanism mechanism) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = policy;
  config.mechanism = mechanism;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.disk_time_scale = 0.02;  // 28.5 ms seeks -> ~0.6 ms
  return config;
}

LoadResult Drive(Cluster& cluster, const Trace& trace, bool http10 = false, int clients = 8) {
  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = clients;
  load.http10 = http10;
  return RunLoad(load, trace);
}

TEST(ProtoClusterTest, ServesWholeTraceCorrectly) {
  const Trace trace = TestTrace();
  Cluster cluster(BaseConfig(3, Policy::kExtendedLard, Mechanism::kBackEndForwarding),
                  &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const LoadResult result = Drive(cluster, trace);
  EXPECT_EQ(result.sessions, trace.sessions().size());
  EXPECT_EQ(result.requests, trace.total_requests());
  EXPECT_EQ(result.responses_ok, result.requests);
  EXPECT_EQ(result.responses_bad, 0u);
  EXPECT_EQ(result.transport_errors, 0u);
  EXPECT_GT(result.throughput_rps, 0.0);

  const ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_EQ(snapshot.requests_served, trace.total_requests());
  EXPECT_EQ(snapshot.not_found, 0u);
  EXPECT_EQ(snapshot.connections, trace.sessions().size());
  cluster.Stop();
}

TEST(ProtoClusterTest, EveryPolicyMechanismServesCorrectly) {
  struct Combo {
    Policy policy;
    Mechanism mechanism;
  };
  for (const Combo combo : {Combo{Policy::kWrr, Mechanism::kSingleHandoff},
                            Combo{Policy::kLard, Mechanism::kSingleHandoff},
                            Combo{Policy::kExtendedLard, Mechanism::kBackEndForwarding},
                            Combo{Policy::kExtendedLard, Mechanism::kRelayingFrontEnd}}) {
    const Trace trace = TestTrace(7);
    Cluster cluster(BaseConfig(2, combo.policy, combo.mechanism), &trace.catalog());
    ASSERT_TRUE(cluster.Start().ok());
    const LoadResult result = Drive(cluster, trace, /*http10=*/false, /*clients=*/6);
    EXPECT_EQ(result.responses_ok, trace.total_requests())
        << PolicyName(combo.policy) << "/" << MechanismName(combo.mechanism);
    EXPECT_EQ(result.responses_bad, 0u);
    cluster.Stop();
  }
}

TEST(ProtoClusterTest, Http10ModeWorks) {
  const Trace trace = TestTrace(11);
  Cluster cluster(BaseConfig(2, Policy::kLard, Mechanism::kSingleHandoff), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const LoadResult result = Drive(cluster, trace, /*http10=*/true);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  // One connection per request at the front-end.
  EXPECT_EQ(cluster.Snapshot().connections, trace.total_requests());
  cluster.Stop();
}

TEST(ProtoClusterTest, ExtLardUsesLateralFetches) {
  // Force forwarding: single hot page set cached on node A, connections
  // arriving with busy disks. With enough load and tiny caches the extended
  // LARD policy must forward at least some requests.
  SyntheticTraceConfig config;
  config.seed = 5;
  config.num_pages = 200;    // working set >> per-node cache
  config.num_sessions = 300;
  config.max_size_bytes = 64 * 1024;
  const Trace trace = GenerateSyntheticTrace(config);

  ClusterConfig cluster_config = BaseConfig(3, Policy::kExtendedLard,
                                            Mechanism::kBackEndForwarding);
  cluster_config.backend_cache_bytes = 1ull * 1024 * 1024;
  cluster_config.disk_time_scale = 0.05;  // slower disk -> busier queues
  cluster_config.params.low_disk_queue_threshold = 1;  // forward aggressively
  Cluster cluster(cluster_config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const LoadResult result = Drive(cluster, trace, false, 16);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  const ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_GT(snapshot.consults, 0u);
  EXPECT_GT(snapshot.lateral_out, 0u) << "expected some back-end forwarding";
  cluster.Stop();
}

TEST(ProtoClusterTest, UnknownPathsGet404) {
  Trace trace = TestTrace(13);
  Cluster cluster(BaseConfig(2, Policy::kExtendedLard, Mechanism::kBackEndForwarding),
                  &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  // Hand-rolled request for a path outside the catalog.
  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  const std::string request = "GET /no/such/file HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd.value().get(), request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd.value().get(), buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(reply.find("404"), std::string::npos);
  EXPECT_EQ(cluster.Snapshot().not_found, 1u);
  cluster.Stop();
}

// Reads one request off `fd` (up to its blank line).
void ReadOneRequest(int fd) {
  std::string request;
  char buf[4096];
  ssize_t n;
  while (request.find("\r\n\r\n") == std::string::npos &&
         (n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    request.append(buf, static_cast<size_t>(n));
  }
}

TEST(ProtoClusterTest, RelayingFrontEndClosesAClientWhoseRelayIsCutMidBody) {
  // A relaying front end over one stand-in back end. The back end's first
  // connection dies before answering: the client gets a 503 and keeps its
  // connection. Its second answers a head and part of the body, then dies:
  // the client is closed, never handed a short 200 followed by the next
  // pipelined response.
  TargetCatalog catalog;
  catalog.Intern("/doc", 100000);
  uint16_t backend_port = 0;
  auto listener = ListenTcp(0, &backend_port);
  ASSERT_TRUE(listener.ok());
  const std::string cut_reply =
      "HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n" + std::string(3000, 'b');
  std::thread backend([&]() {
    for (int round = 0; round < 2; ++round) {
      UniqueFd fd(::accept(listener.value().get(), nullptr, nullptr));
      ASSERT_TRUE(fd.valid());
      ReadOneRequest(fd.get());
      if (round == 1) {
        ASSERT_EQ(::send(fd.get(), cut_reply.data(), cut_reply.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(cut_reply.size()));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
  });

  ClusterConfig config;
  config.num_nodes = 1;
  config.mechanism = Mechanism::kRelayingFrontEnd;
  config.heartbeat_timeout_ms = 0;  // the stand-in sends no status frames
  config.telemetry_interval_ms = 0;
  EventLoopGroup loops(1);
  auto control = UnixPair();
  ASSERT_TRUE(control.ok());
  FrontEnd frontend(config, 0, &loops, &catalog);
  std::vector<UniqueFd> controls;
  controls.push_back(std::move(control.value().first));
  ASSERT_TRUE(frontend.Start(std::move(controls)).ok());
  frontend.ConnectBackends({backend_port});
  loops.Start();

  auto client = ConnectTcp(frontend.port());
  ASSERT_TRUE(client.ok());
  timeval tv{};
  tv.tv_sec = 10;
  ASSERT_EQ(::setsockopt(client.value().get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  const std::string get = "GET /doc HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::string unavailable =
      "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n";
  ASSERT_EQ(::send(client.value().get(), get.data(), get.size(), 0),
            static_cast<ssize_t>(get.size()));
  std::string reply;
  char buf[4096];
  while (reply.size() < unavailable.size()) {
    const ssize_t n = ::recv(client.value().get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    reply.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(reply, unavailable) << "a failure before the head is a 503";

  const std::string two = get + get;
  ASSERT_EQ(::send(client.value().get(), two.data(), two.size(), 0),
            static_cast<ssize_t>(two.size()));
  std::string wire;
  ssize_t n;
  while ((n = ::recv(client.value().get(), buf, sizeof(buf), 0)) > 0) {
    wire.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(n, 0) << "the client is closed";
  const std::string head = "HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n";
  EXPECT_EQ(wire.substr(0, head.size()), head.substr(0, wire.size()));
  EXPECT_LE(wire.size(), head.size() + 3000);
  EXPECT_EQ(wire.find("HTTP/1.1", 1), std::string::npos) << "no second response";

  backend.join();
  loops.Stop();
}

TEST(ProtoClusterTest, SingleNodeCluster) {
  const Trace trace = TestTrace(17);
  Cluster cluster(BaseConfig(1, Policy::kExtendedLard, Mechanism::kBackEndForwarding),
                  &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const LoadResult result = Drive(cluster, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(cluster.Snapshot().lateral_out, 0u);  // nowhere to forward
  cluster.Stop();
}

TEST(ProtoClusterTest, LardConcentratesTargetsPerNode) {
  // With LARD, each node should see a subset of the working set: total
  // distinct-target spread across nodes ~ partitioning. We verify via hit
  // rates: LARD's aggregate hit rate must beat WRR's on the same workload.
  SyntheticTraceConfig config;
  config.seed = 23;
  config.num_pages = 120;
  config.num_sessions = 400;
  config.max_size_bytes = 64 * 1024;
  const Trace trace = GenerateSyntheticTrace(config);

  double lard_hits = 0;
  double wrr_hits = 0;
  {
    Cluster cluster(BaseConfig(3, Policy::kLard, Mechanism::kSingleHandoff), &trace.catalog());
    ASSERT_TRUE(cluster.Start().ok());
    (void)Drive(cluster, trace, false, 12);
    lard_hits = cluster.Snapshot().cache_hit_rate;
    cluster.Stop();
  }
  {
    Cluster cluster(BaseConfig(3, Policy::kWrr, Mechanism::kSingleHandoff), &trace.catalog());
    ASSERT_TRUE(cluster.Start().ok());
    (void)Drive(cluster, trace, false, 12);
    wrr_hits = cluster.Snapshot().cache_hit_rate;
    cluster.Stop();
  }
  EXPECT_GT(lard_hits, wrr_hits) << "LARD should aggregate the node caches";
}

TEST(ProtoClusterTest, StopIsIdempotent) {
  const Trace trace = TestTrace(29);
  Cluster cluster(BaseConfig(2, Policy::kWrr, Mechanism::kSingleHandoff), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  cluster.Stop();
  cluster.Stop();
}

// A busy configured port fails Start() with the bind error instead of
// aborting, and the failed cluster destroys cleanly: no thread was started,
// and every fd it opened is closed again.
void ExpectBusyPortFailsStart(bool admin) {
  const Trace trace = TestTrace(31);
  uint16_t busy_port = 0;
  auto holder = ListenTcp(0, &busy_port);
  ASSERT_TRUE(holder.ok());
  const double fds = ReadProcessStats().open_fds;
  {
    ClusterConfig config = BaseConfig(2, Policy::kExtendedLard, Mechanism::kBackEndForwarding);
    (admin ? config.admin_port : config.listen_port) = busy_port;
    Cluster cluster(config, &trace.catalog());
    const Status status = cluster.Start();
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("bind"), std::string::npos) << status.ToString();
  }
  EXPECT_EQ(ReadProcessStats().open_fds, fds);
}

TEST(ProtoClusterTest, BusyListenPortFailsStart) { ExpectBusyPortFailsStart(/*admin=*/false); }

TEST(ProtoClusterTest, BusyAdminPortFailsStart) { ExpectBusyPortFailsStart(/*admin=*/true); }

TEST(DiskGateTest, FcfsOrderingAndQueueLength) {
  EventLoop loop;
  std::thread thread([&]() { loop.Run(); });
  DiskCostModel costs;
  costs.initial_latency_us = 20000;  // 20 ms
  DiskGate gate(&loop, costs, 0.1);  // -> 2 ms per read

  std::promise<void> done;
  std::vector<int> order;
  loop.Post([&]() {
    gate.Read(1024, [&]() { order.push_back(1); });
    gate.Read(1024, [&]() { order.push_back(2); });
    gate.Read(1024, [&]() {
      order.push_back(3);
      done.set_value();
    });
    EXPECT_EQ(gate.queue_length(), 3);
  });
  done.get_future().wait();
  loop.Stop();
  thread.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(gate.queue_length(), 0);
  EXPECT_EQ(gate.total_reads(), 3u);
}

}  // namespace
}  // namespace lard
