#include <gtest/gtest.h>

#include "src/sim/cluster_sim.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

// A trace small enough for unit tests but with real cache pressure: the
// ~20 MB working set greatly exceeds one 2 MB node cache and roughly matches
// the aggregate cache of a mid-sized cluster.
Trace TestTrace() {
  SyntheticTraceConfig config;
  config.seed = 99;
  config.num_pages = 300;
  config.num_sessions = 1200;
  config.num_clients = 32;
  return GenerateSyntheticTrace(config);
}

ClusterSimConfig BaseConfig(int nodes, Policy policy, Mechanism mechanism) {
  ClusterSimConfig config;
  config.num_nodes = nodes;
  config.policy = policy;
  config.mechanism = mechanism;
  config.backend_cache_bytes = 2ull * 1024 * 1024;  // force cache pressure
  config.concurrent_sessions_per_node = 32;
  return config;
}

TEST(ClusterSimTest, ServesEveryRequestInTrace) {
  const Trace trace = TestTrace();
  ClusterSim sim(BaseConfig(4, Policy::kExtendedLard, Mechanism::kBackEndForwarding), &trace);
  const ClusterSimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.total_requests, trace.total_requests());
  EXPECT_EQ(metrics.total_connections, trace.sessions().size());
  EXPECT_GT(metrics.throughput_rps, 0.0);
  EXPECT_GT(metrics.sim_seconds, 0.0);
  // Every request the nodes saw is a hit or a disk read.
  uint64_t served = 0;
  for (const auto& node : metrics.per_node) {
    served += node.cache_hits + node.disk_reads;
  }
  EXPECT_GE(served, metrics.total_requests);
}

TEST(ClusterSimTest, DeterministicAcrossRuns) {
  const Trace trace = TestTrace();
  const ClusterSimConfig config =
      BaseConfig(3, Policy::kExtendedLard, Mechanism::kBackEndForwarding);
  ClusterSim sim_a(config, &trace);
  ClusterSim sim_b(config, &trace);
  const ClusterSimMetrics a = sim_a.Run();
  const ClusterSimMetrics b = sim_b.Run();
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, b.cache_hit_rate);
}

TEST(ClusterSimTest, Http10ModeCreatesConnectionPerRequest) {
  const Trace trace = TestTrace();
  ClusterSimConfig config = BaseConfig(2, Policy::kLard, Mechanism::kSingleHandoff);
  config.http10 = true;
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.total_connections, trace.total_requests());
}

TEST(ClusterSimTest, LardAggregatesCachesAcrossNodes) {
  // The ASPLOS'98 baseline claim (reproduced as Fig. 7's simple-LARD curve):
  // on HTTP/1.0, content-based distribution makes the cluster-wide hit rate
  // grow with node count while WRR's does not.
  const Trace trace = TestTrace();
  ClusterSimConfig config = BaseConfig(1, Policy::kLard, Mechanism::kSingleHandoff);
  config.http10 = true;
  ClusterSim lard1(config, &trace);
  config.num_nodes = 6;
  ClusterSim lard6(config, &trace);
  config.policy = Policy::kWrr;
  ClusterSim wrr6(config, &trace);
  const double hit1 = lard1.Run().cache_hit_rate;
  const double hit6 = lard6.Run().cache_hit_rate;
  const double wrr6_hit = wrr6.Run().cache_hit_rate;
  EXPECT_GT(hit6, hit1 + 0.1);
  EXPECT_GT(hit6, wrr6_hit + 0.1);
}

TEST(ClusterSimTest, LardBeatsWrrOnThroughputHttp10) {
  const Trace trace = TestTrace();
  ClusterSimConfig config = BaseConfig(6, Policy::kLard, Mechanism::kSingleHandoff);
  config.http10 = true;
  ClusterSim lard(config, &trace);
  config.policy = Policy::kWrr;
  ClusterSim wrr(config, &trace);
  EXPECT_GT(lard.Run().throughput_rps, 1.5 * wrr.Run().throughput_rps);
}

TEST(ClusterSimTest, SimpleLardLosesLocalityOnPersistentConnections) {
  // The paper's motivating negative result (Section 2.4 / Figs. 7-8): pinning
  // whole persistent connections to the first request's node degrades the
  // aggregate hit rate relative to per-request distribution (extended LARD
  // with back-end forwarding).
  const Trace trace = TestTrace();
  ClusterSim simple(BaseConfig(6, Policy::kLard, Mechanism::kSingleHandoff), &trace);
  ClusterSim extended(BaseConfig(6, Policy::kExtendedLard, Mechanism::kBackEndForwarding),
                      &trace);
  const ClusterSimMetrics simple_metrics = simple.Run();
  const ClusterSimMetrics extended_metrics = extended.Run();
  EXPECT_GT(extended_metrics.cache_hit_rate, simple_metrics.cache_hit_rate);
  EXPECT_GT(extended_metrics.throughput_rps, simple_metrics.throughput_rps);
}

TEST(ClusterSimTest, IdealHandoffIsUpperBoundForExtLard) {
  const Trace trace = TestTrace();
  ClusterSim ideal(BaseConfig(4, Policy::kExtendedLard, Mechanism::kIdealHandoff), &trace);
  ClusterSim forward(BaseConfig(4, Policy::kExtendedLard, Mechanism::kBackEndForwarding), &trace);
  const double ideal_rps = ideal.Run().throughput_rps;
  const double forward_rps = forward.Run().throughput_rps;
  // Zero-cost migration can only help (small tolerance for policy noise).
  EXPECT_GT(ideal_rps, 0.92 * forward_rps);
}

TEST(ClusterSimTest, ExtLardForwardsOnlyUnderBackEndForwarding) {
  const Trace trace = TestTrace();
  ClusterSim forward(BaseConfig(4, Policy::kExtendedLard, Mechanism::kBackEndForwarding), &trace);
  ClusterSim simple(BaseConfig(4, Policy::kLard, Mechanism::kSingleHandoff), &trace);
  const ClusterSimMetrics forward_metrics = forward.Run();
  const ClusterSimMetrics simple_metrics = simple.Run();
  EXPECT_EQ(simple_metrics.dispatcher.forwards, 0u);
  EXPECT_EQ(simple_metrics.dispatcher.migrations, 0u);
  EXPECT_EQ(forward_metrics.dispatcher.migrations, 0u);
}

TEST(ClusterSimTest, FrontEndUtilizationAccounted) {
  const Trace trace = TestTrace();
  ClusterSim sim(BaseConfig(4, Policy::kExtendedLard, Mechanism::kBackEndForwarding), &trace);
  const ClusterSimMetrics metrics = sim.Run();
  EXPECT_GT(metrics.fe_utilization, 0.0);
  EXPECT_LT(metrics.fe_utilization, 1.5);  // accounted, not throttled
}

TEST(ClusterSimTest, RelayMechanismThrottlesAtFrontEnd) {
  const Trace trace = TestTrace();
  ClusterSim relay(BaseConfig(4, Policy::kExtendedLard, Mechanism::kRelayingFrontEnd), &trace);
  const ClusterSimMetrics metrics = relay.Run();
  EXPECT_EQ(metrics.total_requests, trace.total_requests());
  EXPECT_GT(metrics.dispatcher.relays, 0u);
}

TEST(ClusterSimTest, ThinkTimesStretchSimulatedTime) {
  const Trace trace = TestTrace();
  ClusterSimConfig config = BaseConfig(2, Policy::kExtendedLard, Mechanism::kBackEndForwarding);
  ClusterSim eager(config, &trace);
  config.use_think_times = true;
  ClusterSim relaxed(config, &trace);
  EXPECT_GT(relaxed.Run().sim_seconds, eager.Run().sim_seconds);
}

TEST(ClusterSimTest, SingleNodeDegenerate) {
  const Trace trace = TestTrace();
  for (const Policy policy : {Policy::kWrr, Policy::kLard, Policy::kExtendedLard}) {
    ClusterSim sim(BaseConfig(1, policy, Mechanism::kSingleHandoff), &trace);
    const ClusterSimMetrics metrics = sim.Run();
    EXPECT_EQ(metrics.total_requests, trace.total_requests());
    EXPECT_EQ(metrics.per_node.size(), 1u);
    EXPECT_EQ(metrics.dispatcher.forwards, 0u);
  }
}

// Conservation across the full policy/mechanism matrix of Figs. 7/8.
struct SimCombo {
  Policy policy;
  Mechanism mechanism;
  bool http10;
};

class SimComboTest : public ::testing::TestWithParam<SimCombo> {};

TEST_P(SimComboTest, CompletesAndConserves) {
  const Trace trace = TestTrace();
  ClusterSimConfig config = BaseConfig(5, GetParam().policy, GetParam().mechanism);
  config.http10 = GetParam().http10;
  ClusterSim sim(config, &trace);
  const ClusterSimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.total_requests, trace.total_requests());
  EXPECT_GT(metrics.throughput_rps, 0.0);
  uint64_t node_requests = 0;
  for (const auto& node : metrics.per_node) {
    node_requests += node.requests;
  }
  EXPECT_GE(node_requests, metrics.total_requests);
}

INSTANTIATE_TEST_SUITE_P(
    FigureCombos, SimComboTest,
    ::testing::Values(SimCombo{Policy::kWrr, Mechanism::kSingleHandoff, true},
                      SimCombo{Policy::kWrr, Mechanism::kSingleHandoff, false},
                      SimCombo{Policy::kLard, Mechanism::kSingleHandoff, true},
                      SimCombo{Policy::kLard, Mechanism::kSingleHandoff, false},
                      SimCombo{Policy::kExtendedLard, Mechanism::kMultipleHandoff, false},
                      SimCombo{Policy::kExtendedLard, Mechanism::kBackEndForwarding, false},
                      SimCombo{Policy::kExtendedLard, Mechanism::kIdealHandoff, false},
                      SimCombo{Policy::kExtendedLard, Mechanism::kRelayingFrontEnd, false}));

}  // namespace
}  // namespace lard
