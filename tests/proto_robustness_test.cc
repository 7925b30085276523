// Robustness and edge-case tests of the prototype cluster: abrupt client
// disconnects, idle-timeout sweeping, pipelined bursts, relaying mode under
// concurrency, and keep-alive semantics over real sockets.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "src/http/response_parser.h"
#include "src/net/socket.h"
#include "src/obs/process_stats.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

Trace SmallTrace(uint64_t seed = 42) {
  SyntheticTraceConfig config;
  config.seed = seed;
  config.num_pages = 30;
  config.num_sessions = 40;
  config.max_size_bytes = 32 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterConfig FastCluster(int nodes, Policy policy = Policy::kExtendedLard,
                          Mechanism mechanism = Mechanism::kBackEndForwarding) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = policy;
  config.mechanism = mechanism;
  config.backend_cache_bytes = 4ull * 1024 * 1024;
  config.disk_time_scale = 0.01;
  return config;
}

// Reads until EOF or `want` bytes of parsed responses arrive.
std::string ReadAll(int fd) {
  std::string out;
  char buf[8192];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

TEST(ProtoRobustnessTest, AbruptClientDisconnectMidResponse) {
  const Trace trace = SmallTrace();
  Cluster cluster(FastCluster(2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  // Open, send a request, and slam the connection shut without reading.
  for (int i = 0; i < 20; ++i) {
    auto fd = ConnectTcp(cluster.port());
    ASSERT_TRUE(fd.ok());
    const std::string request = "GET " + trace.catalog().Get(0).path + " HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd.value().get(), request.data(), request.size(), 0), 0);
    fd.value().Reset();  // RST/EOF towards the cluster
  }
  // The cluster must still serve a well-behaved client correctly.
  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 4;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_bad, 0u);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  cluster.Stop();
}

TEST(ProtoRobustnessTest, GarbageRequestGets400) {
  const Trace trace = SmallTrace();
  Cluster cluster(FastCluster(1), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  const std::string garbage = "NOT-HTTP AT ALL\r\n\r\n";
  ASSERT_GT(::send(fd.value().get(), garbage.data(), garbage.size(), 0), 0);
  const std::string reply = ReadAll(fd.value().get());
  EXPECT_NE(reply.find("400"), std::string::npos);
  cluster.Stop();
}

TEST(ProtoRobustnessTest, PartialFirstBatchNeverCrashesTheFrontEnd) {
  // Regression: a first batch that parses to zero complete requests (a slow
  // or garbage client trickling bytes) must never reach the dispatcher's
  // non-empty-batch invariants and abort the front-end — the front end waits
  // for more bytes while the cluster keeps serving everyone else.
  const Trace trace = SmallTrace();
  Cluster cluster(FastCluster(2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  // A mix of slow clients: a bare partial request line, a partial header
  // block, and a lone CRLF, each left dangling and then closed.
  for (const std::string& fragment :
       {std::string("GET /page0.html"), std::string("GET /page0.html HTTP/1.1\r\nHost: x"),
        std::string("\r\n")}) {
    auto fd = ConnectTcp(cluster.port());
    ASSERT_TRUE(fd.ok());
    ASSERT_GT(::send(fd.value().get(), fragment.data(), fragment.size(), MSG_NOSIGNAL), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    fd.value().Reset();  // abandon mid-request
  }

  // The front-end survived and still serves a well-behaved workload.
  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 4;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.responses_bad, 0u);
  EXPECT_EQ(result.transport_errors, 0u);
  cluster.Stop();
}

TEST(ProtoRobustnessTest, IdleConnectionsSweptByServerTimeout) {
  const Trace trace = SmallTrace();
  ClusterConfig config = FastCluster(1);
  config.idle_close_ms = 150;  // aggressive idle close for the test
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  const std::string request = "GET " + trace.catalog().Get(0).path + " HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd.value().get(), request.data(), request.size(), 0), 0);
  // The server answers, then (after the idle window) closes: ReadAll
  // returning proves we got EOF rather than hanging forever.
  const std::string reply = ReadAll(fd.value().get());
  EXPECT_NE(reply.find("200"), std::string::npos);
  cluster.Stop();
}

TEST(ProtoRobustnessTest, DeepPipelineOneWrite) {
  // Many requests in a single write: responses must all arrive, in order.
  const Trace trace = SmallTrace();
  Cluster cluster(FastCluster(2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  std::string burst;
  const int kDepth = 32;
  for (int i = 0; i < kDepth; ++i) {
    const TargetId target = static_cast<TargetId>(i % trace.catalog().size());
    burst += "GET " + trace.catalog().Get(target).path + " HTTP/1.1\r\n";
    if (i + 1 == kDepth) {
      burst += "Connection: close\r\n";
    }
    burst += "\r\n";
  }
  ASSERT_GT(::send(fd.value().get(), burst.data(), burst.size(), 0), 0);
  const std::string wire = ReadAll(fd.value().get());
  ResponseParser parser;
  std::vector<HttpResponse> responses;
  ASSERT_EQ(parser.Feed(wire, &responses), ResponseParser::State::kNeedMore);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kDepth));
  for (int i = 0; i < kDepth; ++i) {
    const TargetId target = static_cast<TargetId>(i % trace.catalog().size());
    const Target& entry = trace.catalog().Get(target);
    EXPECT_EQ(responses[static_cast<size_t>(i)].body.size(), entry.size_bytes) << "response " << i;
    // In-order: each body's header names its own path.
    EXPECT_EQ(responses[static_cast<size_t>(i)].body.rfind(entry.path, 0), 0u) << "response " << i;
  }
  cluster.Stop();
}

TEST(ProtoRobustnessTest, RelayModeUnderConcurrency) {
  const Trace trace = SmallTrace(9);
  Cluster cluster(FastCluster(3, Policy::kExtendedLard, Mechanism::kRelayingFrontEnd),
                  &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 12;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.responses_bad, 0u);
  EXPECT_EQ(cluster.Snapshot().requests_served, trace.total_requests());
  cluster.Stop();
}

TEST(ProtoRobustnessTest, Http10ConnectionClosesAfterResponse) {
  const Trace trace = SmallTrace();
  Cluster cluster(FastCluster(1), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  const std::string request = "GET " + trace.catalog().Get(0).path + " HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd.value().get(), request.data(), request.size(), 0), 0);
  const std::string wire = ReadAll(fd.value().get());  // EOF proves close
  ResponseParser parser;
  std::vector<HttpResponse> responses;
  parser.Feed(wire, &responses);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].version, HttpVersion::kHttp10);
  ASSERT_NE(responses[0].headers.Find("Connection"), nullptr);
  EXPECT_EQ(*responses[0].headers.Find("Connection"), "close");
  cluster.Stop();
}

// With every back end dead, a new client is shed at the door
// (FrontEnd::AdoptClientFd): the exact 503 bytes, then EOF, one
// rejected_no_backend count, and no descriptor left open.
TEST(ProtoRobustnessTest, NoBackendLeftShedsAtTheDoor) {
  const Trace trace = SmallTrace();
  ClusterConfig config = FastCluster(2);
  config.heartbeat_timeout_ms = 200;
  // One accepting loop: each loop keeps a spare descriptor (AcceptAll) that
  // it opens on its first accept, and the count below must not see one.
  config.fe_loops = 1;
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  for (NodeId node = 0; node < 2; ++node) {
    ASSERT_TRUE(cluster.KillNode(node));
  }
  const auto all_dead = [&]() {
    bool dead = true;
    cluster.InspectReplica(0, [&](const FrontEnd& frontend) {
      for (NodeId node = 0; node < 2; ++node) {
        dead = dead && frontend.dispatcher().node_state(node) == NodeState::kDead;
      }
    });
    return dead;
  };
  for (int attempt = 0; attempt < 300 && !all_dead(); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(all_dead());

  // The first client opens the loop's spare descriptor; the count starts
  // from the second. The front end closes a shed socket only after the
  // shed's shutdown has sent its client EOF, so a count taken right after a
  // client finished may still include it: the start count is read until two
  // reads 50 ms apart agree, and the end count until it is back there.
  const auto settled_fds = []() {
    double last = ReadProcessStats().open_fds;
    for (int i = 0; i < 100; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const double now = ReadProcessStats().open_fds;
      if (now == last) {
        break;
      }
      last = now;
    }
    return last;
  };
  double fds = 0.0;
  for (int client_index = 0; client_index < 2; ++client_index) {
    if (client_index == 1) {
      fds = settled_fds();
    }
    const uint64_t rejected = cluster.frontend().counters().rejected_no_backend.load();
    auto fd = ConnectTcp(cluster.port());
    ASSERT_TRUE(fd.ok());
    const int client = fd.value().get();
    // The reply goes out on accept, before any byte is read. Wait for it and
    // the close before sending: a GET still unread when the front end closes
    // the socket would turn its FIN into a RST.
    pollfd ready{client, POLLRDHUP, 0};
    ASSERT_EQ(::poll(&ready, 1, 5000), 1);
    const std::string request = "GET " + trace.catalog().Get(0).path + " HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(client, request.data(), request.size(), MSG_NOSIGNAL), 0);
    std::string reply;
    char buf[256];
    ssize_t n;
    while ((n = ::recv(client, buf, sizeof(buf), 0)) > 0) {
      reply.append(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(n, 0) << "no EOF after the reply: " << std::strerror(errno);
    EXPECT_EQ(reply, "HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n");
    EXPECT_EQ(cluster.frontend().counters().rejected_no_backend.load(), rejected + 1);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ReadProcessStats().open_fds != fds && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ReadProcessStats().open_fds, fds);
  cluster.Stop();
}

TEST(ProtoRobustnessTest, DoorShedDiscardsTheQueuedRequestBeforeClosing) {
  // A client whose GET is already queued when the front end sheds it at the
  // door must read the 503 and then EOF. A socket closed with that GET
  // unread sends a RST, and the client reads ECONNRESET instead.
  const Trace trace = SmallTrace();
  ClusterConfig config = FastCluster(1);
  config.heartbeat_timeout_ms = 200;
  config.fe_loops = 1;  // the loop held below is the only accepting one
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.KillNode(0));
  const auto dead = [&]() {
    bool is_dead = false;
    cluster.InspectReplica(0, [&](const FrontEnd& frontend) {
      is_dead = frontend.dispatcher().node_state(0) == NodeState::kDead;
    });
    return is_dead;
  };
  for (int attempt = 0; attempt < 300 && !dead(); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(dead());

  // Hold the front end's loop so the connection waits in the accept queue
  // until its GET has arrived.
  std::promise<void> holding;
  std::promise<void> release;
  std::thread holder([&]() {
    cluster.InspectReplica(0, [&](const FrontEnd&) {
      holding.set_value();
      release.get_future().wait();
    });
  });
  holding.get_future().wait();
  auto fd = ConnectTcp(cluster.port());
  bool queued = false;
  if (fd.ok()) {
    const int client = fd.value().get();
    const std::string request = "GET " + trace.catalog().Get(0).path + " HTTP/1.1\r\n\r\n";
    if (::send(client, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      // Queued: the server's kernel has acknowledged every byte.
      int unacked = -1;
      for (int attempt = 0; attempt < 5000; ++attempt) {
        if (::ioctl(client, TIOCOUTQ, &unacked) != 0 || unacked == 0) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      queued = unacked == 0;
    }
  }
  release.set_value();
  holder.join();
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(queued);

  const int client = fd.value().get();
  timeval timeout{};
  timeout.tv_sec = 5;
  ASSERT_EQ(::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  std::string reply;
  char buf[256];
  ssize_t n;
  while ((n = ::recv(client, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(reply, "HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(n, 0) << "no EOF after the reply: " << std::strerror(errno);
  EXPECT_EQ(cluster.frontend().counters().rejected_no_backend.load(), 1u);
  cluster.Stop();
}

TEST(ProtoRobustnessTest, ManySmallClustersStartAndStop) {
  // Lifecycle churn: no leaked threads/fds preventing restarts.
  const Trace trace = SmallTrace();
  for (int round = 0; round < 5; ++round) {
    Cluster cluster(FastCluster(2), &trace.catalog());
    ASSERT_TRUE(cluster.Start().ok());
    auto fd = ConnectTcp(cluster.port());
    ASSERT_TRUE(fd.ok());
    cluster.Stop();
  }
}

// Keep-alive across policies, parameterized.
class ProtoPolicyParamTest : public ::testing::TestWithParam<Policy> {};

TEST_P(ProtoPolicyParamTest, SequentialKeepAliveRequests) {
  const Trace trace = SmallTrace(17);
  const Mechanism mechanism = GetParam() == Policy::kExtendedLard
                                  ? Mechanism::kBackEndForwarding
                                  : Mechanism::kSingleHandoff;
  Cluster cluster(FastCluster(2, GetParam(), mechanism), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());

  ResponseParser parser;
  for (int i = 0; i < 5; ++i) {
    const TargetId target = static_cast<TargetId>(i);
    const std::string request =
        "GET " + trace.catalog().Get(target).path + " HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_GT(::send(fd.value().get(), request.data(), request.size(), 0), 0);
    std::vector<HttpResponse> responses;
    char buf[16384];
    while (responses.empty()) {
      const ssize_t n = ::recv(fd.value().get(), buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "connection died mid keep-alive sequence";
      ASSERT_NE(parser.Feed(std::string_view(buf, static_cast<size_t>(n)), &responses),
                ResponseParser::State::kError);
    }
    EXPECT_EQ(responses[0].status, 200);
    EXPECT_EQ(responses[0].body.size(), trace.catalog().Get(target).size_bytes);
  }
  cluster.Stop();
}

INSTANTIATE_TEST_SUITE_P(Policies, ProtoPolicyParamTest,
                         ::testing::Values(Policy::kWrr, Policy::kLard, Policy::kExtendedLard));

}  // namespace
}  // namespace lard
