// Reactor-per-core front-end tests: a multi-loop FE serves correctly, shards
// accepted connections across its loops, keeps every connection pinned to its
// owning loop for life (pinning_violations() stays 0 — the invariant the
// whole refactor rests on), and does all of that through randomized back-end
// membership churn. The explicit fe_loops=1 configuration must behave exactly
// like the classic single-loop harness regardless of LARD_FE_LOOPS.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"
#include "src/util/tracing.h"

namespace lard {
namespace {

Trace TestTrace(int sessions = 300) {
  SyntheticTraceConfig config;
  config.seed = 23;
  config.num_pages = 80;
  config.num_sessions = sessions;
  config.num_clients = 16;
  config.max_size_bytes = 32 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterConfig MultiLoopConfig(int nodes, int fe_loops, int frontends = 1) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.num_frontends = frontends;
  config.fe_loops = fe_loops;  // explicit: wins over LARD_FE_LOOPS
  config.gossip_interval_ms = 10;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.disk_time_scale = 0.02;
  config.heartbeat_timeout_ms = 2000;
  config.retire_grace_ms = 2000;
  return config;
}

// How many of FE `fe`'s per-loop trace rings ("fe<fe>" = loop 0,
// "fe<fe>.<k>" = shard k) recorded at least one span.
int LoopsWithTraffic(Cluster& cluster, int fe) {
  const std::string loop0 = "fe" + std::to_string(fe);
  const std::string shard_prefix = loop0 + ".";
  int active = 0;
  for (const TraceRingSnapshot& ring : cluster.tracer()->SnapshotAll()) {
    const bool mine = ring.name == loop0 ||
                      ring.name.compare(0, shard_prefix.size(), shard_prefix) == 0;
    if (mine && ring.recorded > 0) {
      ++active;
    }
  }
  return active;
}

TEST(ProtoMultiLoopTest, FourLoopFrontEndServesAndShardsConnections) {
  const Trace trace = TestTrace();
  ClusterConfig config = MultiLoopConfig(3, 4);
  config.trace_sample_every = 1;  // every connection leaves accept spans
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_EQ(cluster.frontend().fe_loops(), 4);

  LoadGeneratorConfig load;
  load.ports = cluster.ports();
  load.num_clients = 8;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.responses_bad, 0u);
  EXPECT_EQ(result.transport_errors, 0u);

  // The accepted connections really sharded: with hundreds of connections
  // dealt across 4 loops (SO_REUSEPORT or the round-robin fallback), more
  // than one loop must have taken traffic...
  EXPECT_GE(LoopsWithTraffic(cluster, 0), 2);
  // ...and not one callback fired off its connection's owning loop.
  EXPECT_EQ(cluster.frontend().pinning_violations(), 0u);

  const ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_EQ(snapshot.requests_served, trace.total_requests());
  cluster.Stop();
}

TEST(ProtoMultiLoopTest, ExplicitSingleLoopMatchesClassicHarness) {
  const Trace trace = TestTrace(150);
  Cluster cluster(MultiLoopConfig(2, /*fe_loops=*/1), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  // Even with LARD_FE_LOOPS exported (the CI matrix does), an explicit
  // fe_loops=1 must produce the classic one-loop front end.
  EXPECT_EQ(cluster.frontend().fe_loops(), 1);

  LoadGeneratorConfig load;
  load.ports = cluster.ports();
  load.num_clients = 4;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.transport_errors, 0u);
  EXPECT_EQ(cluster.frontend().pinning_violations(), 0u);
  cluster.Stop();
}

// The churn test: two 4-loop front-ends under sustained load while a
// seeded RNG adds, drains and removes back-ends. Connection pinning must
// survive all of it — every giveback, re-handoff and node teardown crosses
// loops via posted closures, and this asserts none of them ever touched a
// connection from the wrong loop.
TEST(ProtoMultiLoopTest, PinningHoldsUnderRandomizedBackendChurn) {
  const Trace trace = TestTrace(800);
  Cluster cluster(MultiLoopConfig(3, 4, /*frontends=*/2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  LoadResult result;
  std::thread load_thread([&]() {
    LoadGeneratorConfig load;
    load.ports = cluster.ports();
    load.num_clients = 8;
    load.recv_timeout_ms = 10000;
    result = RunLoad(load, trace);
  });

  std::mt19937 rng(17);
  std::vector<NodeId> added;
  for (int op = 0; op < 6; ++op) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30 + rng() % 50));
    if (added.empty() || rng() % 2 == 0) {
      added.push_back(cluster.AddNode(1.0 + (rng() % 2)));
    } else {
      const size_t victim = rng() % added.size();
      EXPECT_TRUE(cluster.DrainNode(added[victim]));
      EXPECT_TRUE(cluster.RemoveNode(added[victim]));
      added.erase(added.begin() + static_cast<long>(victim));
    }
  }
  load_thread.join();

  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.responses_bad, 0u);
  EXPECT_EQ(result.transport_errors, 0u);
  for (int fe = 0; fe < 2; ++fe) {
    EXPECT_EQ(cluster.frontend(fe).pinning_violations(), 0u) << "fe=" << fe;
  }
  cluster.Stop();
}

}  // namespace
}  // namespace lard
