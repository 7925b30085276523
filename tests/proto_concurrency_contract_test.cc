// Regression tests for the concurrency contract (docs/CONCURRENCY.md),
// covering the unguarded-access bugs the thread-safety annotation pass
// surfaced. Each test reproduces the original race shape; the file name
// keeps it inside the TSan CI job's test regex, so a regression shows up as
// a data-race report, not just a flaky assertion.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/socket.h"
#include "src/obs/process_stats.h"
#include "src/proto/cluster.h"
#include "src/proto/content_store.h"
#include "src/proto/disk_gate.h"
#include "src/sim/cost_model.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

// The body a client should see for a document: the store's one definition
// of a body's bytes, materialized.
std::string ExpectedBody(const std::string& path, uint64_t size_bytes) {
  return ContentStore::ExpectedParts(path, size_bytes).Materialize();
}

Trace SmallTrace() {
  SyntheticTraceConfig config;
  config.seed = 7;
  config.num_pages = 40;
  config.num_sessions = 50;
  config.num_clients = 8;
  config.max_size_bytes = 16 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterConfig SmallConfig() {
  ClusterConfig config;
  config.num_nodes = 2;
  config.num_frontends = 1;
  config.gossip_interval_ms = 20;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 1ull * 1024 * 1024;
  config.disk_time_scale = 0.02;
  config.heartbeat_timeout_ms = 2000;
  config.retire_grace_ms = 2000;
  return config;
}

// Live threads. A joined thread can stay listed for a moment while the
// kernel finishes its exit, but by then it is flagged PF_EXITING (the
// flags field of its stat line), so it is not counted.
size_t ThreadCount() {
  constexpr unsigned long kPfExiting = 0x4;
  size_t threads = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    if (!std::getline(stat, line) || line.rfind(')') == std::string::npos) {
      continue;  // reaped since the listing
    }
    // After "tid (comm)": state ppid pgrp session tty_nr tpgid flags.
    std::istringstream fields(line.substr(line.rfind(')') + 1));
    std::string skipped;
    for (int i = 0; i < 6; ++i) {
      fields >> skipped;
    }
    unsigned long flags = 0;
    fields >> flags;
    if ((flags & kPfExiting) == 0) {
      ++threads;
    }
  }
  return threads;
}

// One HTTP/1.0 GET of the trace's first document on a fresh connection;
// returns the whole reply (the server closes after it).
std::string GetFirstDocument(uint16_t port, const TargetCatalog& catalog) {
  auto client = ConnectTcp(port);
  if (!client.ok()) {
    return "<connect failed>";
  }
  timeval timeout{};
  timeout.tv_sec = 10;
  (void)::setsockopt(client.value().get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const std::string request = "GET " + catalog.Get(0).path + " HTTP/1.0\r\n\r\n";
  if (::send(client.value().get(), request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    return "<send failed>";
  }
  std::string reply;
  char buf[16384];
  ssize_t n;
  while ((n = ::recv(client.value().get(), buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  return reply;
}

// Start() wires every loop on the calling thread before any loop thread runs
// (docs/CONCURRENCY.md, "Bring-up"): a request sent the moment Start()
// returns, with no sleep or poll, is served whatever the loop layout, and the
// bring-up touches no running loop off its thread.
TEST(ConcurrencyContractTest, ClusterStartWiresEveryLoopBeforeRun) {
  const Trace trace = SmallTrace();
  const Target& doc = trace.catalog().Get(0);
  for (const int fe_loops : {1, 4}) {
    ClusterConfig config = SmallConfig();
    config.fe_loops = fe_loops;
    Cluster cluster(config, &trace.catalog());
    ASSERT_TRUE(cluster.Start().ok());
    const std::string reply = GetFirstDocument(cluster.port(), trace.catalog());
    EXPECT_NE(reply.substr(0, reply.find("\r\n")).find(" 200 "), std::string::npos)
        << "fe_loops=" << fe_loops << ": " << reply.substr(0, 200);
    const std::string body = ExpectedBody(doc.path, doc.size_bytes);
    ASSERT_GE(reply.size(), body.size());
    EXPECT_EQ(reply.substr(reply.size() - body.size()), body) << "fe_loops=" << fe_loops;
    EXPECT_EQ(cluster.frontend().pinning_violations(), 0u) << "fe_loops=" << fe_loops;
    cluster.Stop();
  }
}

// Construct/Start/Stop cycles give back every fd and thread they took.
TEST(ConcurrencyContractTest, StartStopCyclesLeakNothing) {
  const Trace trace = SmallTrace();
  const double fds = ReadProcessStats().open_fds;
  const size_t threads = ThreadCount();
  for (int cycle = 0; cycle < 50; ++cycle) {
    Cluster cluster(SmallConfig(), &trace.catalog());
    ASSERT_TRUE(cluster.Start().ok());
    cluster.Stop();
  }
  EXPECT_EQ(ReadProcessStats().open_fds, fds);
  EXPECT_EQ(ThreadCount(), threads);
}

// A DiskGate destroyed with a completion timer still pending must drop the
// completion (LivenessToken::Guard), not run it into the dead gate.
TEST(ConcurrencyContractTest, DiskGateDestructionDropsPendingCompletions) {
  EventLoop loop;
  std::thread runner([&loop]() { loop.Run(); });

  std::atomic<bool> completed{false};
  std::atomic<bool> destroyed{false};
  auto gate = std::make_unique<DiskGate>(&loop, DiskCostModel{}, /*time_scale=*/0.001);
  loop.Post([&]() {
    // Completion lands >= 1ms out; the gate dies in the same loop iteration,
    // so the timer is guaranteed to fire after ~DiskGate.
    gate->Read(4096, [&completed]() { completed.store(true); });
    gate.reset();
    destroyed.store(true);
  });
  while (!destroyed.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  EXPECT_FALSE(completed.load());
  loop.Stop();
  runner.join();
}

// Release builds count off-thread touches of loop-confined state instead of
// aborting; the counter is the health signal CI and ops scrape. Debug builds
// make the same touch fatal, so the counting path is release-only.
TEST(ConcurrencyContractTest, OffThreadLoopTouchIsCountedInRelease) {
#ifndef NDEBUG
  GTEST_SKIP() << "AssertInLoopThread is fatal in debug builds";
#else
  EventLoop loop;
  std::thread runner([&loop]() { loop.Run(); });
  std::atomic<bool> started{false};
  loop.Post([&started]() { started.store(true); });
  while (!started.load()) {
    std::this_thread::yield();
  }

  EXPECT_EQ(loop.pinning_violations(), 0u);
  // CancelTimer is a loop-confined API; with no timers registered the call
  // touches no state the loop thread also touches, so the only observable
  // effect is the violation count.
  loop.CancelTimer(12345);
  EXPECT_GE(loop.pinning_violations(), 1u);

  loop.Stop();
  runner.join();
#endif
}

// Before Run() and after Stop(), single-threaded setup/teardown from the
// owner thread is legal and must not count as a violation.
TEST(ConcurrencyContractTest, SetupBeforeRunDoesNotCountAsViolation) {
  EventLoop loop;
  const EventLoop::TimerId id = loop.ScheduleAfterMs(10'000, []() {});
  loop.CancelTimer(id);
  EXPECT_EQ(loop.pinning_violations(), 0u);
}

}  // namespace
}  // namespace lard
