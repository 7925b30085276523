// End-to-end keep-alive deadline tests on the real prototype cluster: the
// front-end's idle reaper, activity pushing the deadline out, the back-end
// idle sweep's kConnClosed notification, and the idle_timeout_ms knob of
// POST /config. Real sockets throughout — an assertion that a connection "was
// reaped" means this process observed the FIN.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <string>
#include <thread>

#include "src/admin/admin_client.h"
#include "src/net/socket.h"
#include "src/proto/cluster.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

Trace TestTrace() {
  SyntheticTraceConfig config;
  config.seed = 31;
  config.num_pages = 20;
  config.num_sessions = 40;
  config.num_clients = 8;
  config.max_size_bytes = 16 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterConfig BaseConfig(Mechanism mechanism, int64_t fe_idle_ms, int64_t be_idle_ms) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.policy = Policy::kExtendedLard;
  config.mechanism = mechanism;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.disk_time_scale = 0.02;
  config.idle_timeout_ms = fe_idle_ms;
  config.idle_close_ms = be_idle_ms;
  return config;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// True once recv() reports EOF (the server closed); false on timeout while
// the connection is still open. Consumes and discards any payload bytes.
bool WaitForEof(int fd, int64_t timeout_ms) {
  const int64_t deadline = NowMs() + timeout_ms;
  timeval tv{};
  tv.tv_sec = 0;
  tv.tv_usec = 50 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[4096];
  while (NowMs() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      return true;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;  // RST counts as closed too
    }
  }
  return false;
}

bool SendAll(int fd, const std::string& data) {
  return ::send(fd, data.data(), data.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(data.size());
}

// One pipelined GET for the first catalog target, reading until the full
// body arrived (Content-Length honored), leaving the connection open.
bool FetchOnce(int fd, const Trace& trace) {
  const std::string path = trace.catalog().Get(0).path;
  if (!SendAll(fd, "GET " + path + " HTTP/1.1\r\nHost: cluster\r\n\r\n")) {
    return false;
  }
  std::string reply;
  char buf[8192];
  const int64_t deadline = NowMs() + 5000;
  while (NowMs() < deadline) {
    const size_t header_end = reply.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const size_t marker = reply.find("Content-Length: ");
      if (marker != std::string::npos && marker < header_end) {
        const size_t body_len =
            static_cast<size_t>(std::stoll(reply.substr(marker + 16)));
        if (reply.size() >= header_end + 4 + body_len) {
          return reply.compare(0, 12, "HTTP/1.1 200") == 0;
        }
      }
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      return false;
    }
    reply.append(buf, static_cast<size_t>(n));
  }
  return false;
}

TEST(ProtoIdleTimeoutTest, FrontEndReapsIdleConnectionAtDeadline) {
  const Trace trace = TestTrace();
  // Relay mode: every connection stays FE-owned for life, so the FE reaper
  // alone decides its fate (the BE sweep is off).
  Cluster cluster(BaseConfig(Mechanism::kRelayingFrontEnd, 300, 0), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  // Never sends a byte: the adoption-time deadline is the only clock.
  EXPECT_TRUE(WaitForEof(fd.value().get(), 5000)) << "idle connection never reaped";
  EXPECT_GE(cluster.frontend(0).counters().idle_closes.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(cluster.frontend(0).open_conns_fe_owned(), 0);
  cluster.Stop();
}

TEST(ProtoIdleTimeoutTest, ActivityRearmsTheDeadline) {
  const Trace trace = TestTrace();
  Cluster cluster(BaseConfig(Mechanism::kRelayingFrontEnd, 600, 0), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  // Keep fetching past several multiples of the deadline: every request
  // (bytes in) and response (bytes out) must push the deadline back.
  const int64_t start = NowMs();
  while (NowMs() - start < 2000) {
    ASSERT_TRUE(FetchOnce(fd.value().get(), trace)) << "live connection reaped mid-activity";
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  // Then stop touching it: the reap lands one deadline after the last byte.
  EXPECT_TRUE(WaitForEof(fd.value().get(), 5000)) << "connection never reaped after going idle";
  EXPECT_GE(cluster.frontend(0).counters().idle_closes.load(std::memory_order_relaxed), 1u);
  cluster.Stop();
}

TEST(ProtoIdleTimeoutTest, BackEndSweepClosesAdoptedConnAndNotifiesFrontEnd) {
  const Trace trace = TestTrace();
  // Handoff mode with the FE reaper off: after the first request the conn is
  // adopted by a back-end, whose idle sweep must close it AND tell the FE
  // (kConnClosed), so the FE-side journal/bookkeeping drains too.
  Cluster cluster(BaseConfig(Mechanism::kBackEndForwarding, 0, 300), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(FetchOnce(fd.value().get(), trace));
  EXPECT_EQ(cluster.frontend(0).open_conns_handed_off(), 1);
  EXPECT_TRUE(WaitForEof(fd.value().get(), 5000)) << "adopted connection never swept";
  // The FE heard about the close: the handed-off gauge (derived from the
  // dispatcher's live-connection table) must drain to zero.
  const int64_t deadline = NowMs() + 5000;
  while (cluster.frontend(0).open_conns_handed_off() != 0 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(cluster.frontend(0).open_conns_handed_off(), 0);
  EXPECT_EQ(cluster.frontend(0).open_conns_fe_owned(), 0);
  cluster.Stop();
}

TEST(ProtoIdleTimeoutTest, BackEndReapsClosingConnWhoseClientStopsReading) {
  // A Connection: close response far larger than the loopback socket
  // buffers, to a client that never reads: the response can never drain, so
  // the back-end's sweep must reap the stalled write and send kConnClosed.
  TargetCatalog catalog;
  const std::string path = "/big.bin";
  catalog.Intern(path, 32ull * 1024 * 1024);
  Cluster cluster(BaseConfig(Mechanism::kBackEndForwarding, 0, 300), &catalog);
  ASSERT_TRUE(cluster.Start().ok());

  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(SendAll(fd.value().get(),
                      "GET " + path + " HTTP/1.1\r\nHost: cluster\r\nConnection: close\r\n\r\n"));
  int64_t deadline = NowMs() + 5000;
  while (cluster.frontend(0).open_conns_handed_off() != 1 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(cluster.frontend(0).open_conns_handed_off(), 1);
  // The dispatcher drains once the sweep reaps the stalled response.
  deadline = NowMs() + 5000;
  while (cluster.frontend(0).open_conns_handed_off() != 0 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(cluster.frontend(0).open_conns_handed_off(), 0)
      << "closing connection with a non-reading client lingers";
  cluster.Stop();
}

TEST(ProtoIdleTimeoutTest, RuntimeKnobAppliesAtNextArm) {
  const Trace trace = TestTrace();
  // Reaping disabled at startup.
  Cluster cluster(BaseConfig(Mechanism::kRelayingFrontEnd, 0, 0), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  auto idle_before = ConnectTcp(cluster.port());
  ASSERT_TRUE(idle_before.ok());
  EXPECT_FALSE(WaitForEof(idle_before.value().get(), 700))
      << "reaped with the idle timeout disabled";

  EXPECT_EQ(AdminRequest(cluster.admin_port(), "POST", "/config", "idle_timeout_ms=300").status,
            200);
  EXPECT_EQ(
      AdminRequest(cluster.admin_port(), "POST", "/config", "idle_timeout_ms=not a number").status,
      400);

  // A connection adopted after the change arms the new deadline...
  auto adopted_after = ConnectTcp(cluster.port());
  ASSERT_TRUE(adopted_after.ok());
  EXPECT_TRUE(WaitForEof(adopted_after.value().get(), 5000))
      << "new connection not reaped under the runtime-set deadline";

  // ...while the pre-change conn (no timer armed: the knob was 0 at adopt)
  // stays open until its next byte of activity arms one.
  EXPECT_FALSE(WaitForEof(idle_before.value().get(), 200));
  ASSERT_TRUE(SendAll(idle_before.value().get(), "GET "));  // partial request = activity
  EXPECT_TRUE(WaitForEof(idle_before.value().get(), 5000))
      << "touched connection never armed the runtime deadline";

  EXPECT_GE(cluster.frontend(0).counters().idle_closes.load(std::memory_order_relaxed), 2u);
  cluster.Stop();
}

}  // namespace
}  // namespace lard
