// Rolling-drain failover scenario bench: a cluster under sustained
// load-generator traffic has its back-ends drained (and optionally removed +
// replaced) one after another. The reverse-handoff machinery must migrate
// every in-flight P-HTTP connection to a surviving node with zero
// client-visible resets; this bench records the throughput curve across the
// rolling restart, the per-drain recovery latency (time until the drained
// node holds no client connections), and the migration counters — and checks
// that the simulator's deterministic twin of the scenario agrees with the
// prototype that drains migrate rather than drop.
//
// Output: a human-readable table plus (with --json) a machine-readable record
// so CI can track the trajectory. Exit code is non-zero when an invariant
// fails (client-visible resets, no migrations, sim/prototype disagreement).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"
#include "src/util/flags.h"
#include "src/util/table.h"

namespace lard {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Sample {
  int64_t t_ms = 0;
  uint64_t requests_total = 0;
};

// Per-request latency percentiles inside one sampling window. Every request
// of a pipelined batch experiences the batch's latency, so batch samples are
// expanded by their request count before ranking.
struct WindowSlo {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  uint64_t requests = 0;
};

WindowSlo SloOver(const std::vector<LatencySample>& samples, int64_t from_ms, int64_t to_ms) {
  PercentileTracker tracker;
  WindowSlo slo;
  for (const LatencySample& sample : samples) {
    if (sample.t_ms < from_ms || sample.t_ms >= to_ms) {
      continue;
    }
    slo.requests += sample.requests;
    for (uint32_t i = 0; i < sample.requests; ++i) {
      tracker.Add(sample.latency_ms);
    }
  }
  if (tracker.count() > 0) {
    slo.p50 = tracker.Percentile(50.0);
    slo.p95 = tracker.Percentile(95.0);
    slo.p99 = tracker.Percentile(99.0);
  }
  return slo;
}

struct DrainRecord {
  NodeId node = kInvalidNode;
  int64_t at_ms = 0;           // offset from load start
  int64_t recovery_ms = -1;    // time until the node held zero client conns
  uint64_t rehandoffs_after = 0;
};

int Main(int argc, char** argv) {
  FlagSet flags("drain_failover");
  int64_t nodes = 4;
  int64_t sessions = 6000;
  int64_t clients = 32;
  int64_t drain_interval_ms = 400;
  int64_t sample_interval_ms = 100;
  bool remove_after_drain = true;
  bool add_replacement = true;
  bool smoke = false;
  std::string json;
  std::string csv;
  flags.AddInt("nodes", &nodes, "initial cluster size");
  flags.AddInt("sessions", &sessions, "trace sessions to replay");
  flags.AddInt("clients", &clients, "concurrent load-generator clients");
  flags.AddInt("drain-interval-ms", &drain_interval_ms, "pause between rolling drains");
  flags.AddInt("sample-interval-ms", &sample_interval_ms, "throughput sampling period");
  flags.AddBool("remove", &remove_after_drain, "admin-remove each node once drained");
  flags.AddBool("add", &add_replacement, "join a replacement node after each removal");
  flags.AddBool("smoke", &smoke, "small fast configuration for CI");
  flags.AddString("json", &json, "write the scenario record as JSON here");
  flags.AddString("csv", &csv, "also write the throughput table as CSV here");
  flags.Parse(argc, argv);

  if (smoke) {
    nodes = 3;
    sessions = 1200;
    clients = 12;
    drain_interval_ms = 250;
  }

  SyntheticTraceConfig trace_config;
  trace_config.seed = 42;
  trace_config.num_pages = 200;
  trace_config.num_sessions = sessions;
  trace_config.num_clients = static_cast<int>(clients);
  trace_config.max_size_bytes = 32 * 1024;
  const Trace trace = GenerateSyntheticTrace(trace_config);

  ClusterConfig cluster_config;
  cluster_config.num_nodes = static_cast<int>(nodes);
  cluster_config.policy = Policy::kExtendedLard;
  cluster_config.mechanism = Mechanism::kBackEndForwarding;
  cluster_config.backend_cache_bytes = 4ull * 1024 * 1024;
  cluster_config.disk_time_scale = 0.02;
  cluster_config.heartbeat_timeout_ms = 2000;
  cluster_config.retire_grace_ms = 2000;
  Cluster cluster(cluster_config, &trace.catalog());
  Status status = cluster.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cluster start failed: %s\n", status.ToString().c_str());
    return 1;
  }

  LoadResult result;
  std::atomic<bool> load_done{false};
  std::thread load_thread([&]() {
    LoadGeneratorConfig load;
    load.port = cluster.port();
    load.num_clients = static_cast<int>(clients);
    load.recv_timeout_ms = 10000;
    load.record_latencies = true;  // the drain storm is judged by SLO curves
    result = RunLoad(load, trace);
    load_done.store(true, std::memory_order_release);
  });

  const int64_t start_ms = NowMs();
  std::vector<Sample> samples;
  std::vector<DrainRecord> drains;
  drains.reserve(static_cast<size_t>(nodes));  // `recovering` points into this
  MetricsRegistry* metrics = cluster.metrics();

  // Rolling drain: nodes 1..N-1 in sequence (node 0 stays so the cluster is
  // never empty), with throughput sampled throughout.
  NodeId next_victim = 1;
  int64_t next_drain_ms = start_ms + drain_interval_ms;
  DrainRecord* recovering = nullptr;

  while (!load_done.load(std::memory_order_acquire)) {
    samples.push_back({NowMs() - start_ms, cluster.Snapshot().requests_served});

    if (recovering != nullptr) {
      const double open =
          metrics
              ->Gauge(MetricsRegistry::WithNode("lard_backend_open_connections",
                                                recovering->node))
              ->value();
      if (open <= 0.0) {
        recovering->recovery_ms = NowMs() - start_ms - recovering->at_ms;
        recovering->rehandoffs_after = cluster.Snapshot().rehandoffs;
        if (remove_after_drain) {
          cluster.RemoveNode(recovering->node);
          if (add_replacement) {
            cluster.AddNode();
          }
        }
        recovering = nullptr;
      }
    }

    if (recovering == nullptr && next_victim < static_cast<NodeId>(nodes) &&
        NowMs() >= next_drain_ms) {
      if (cluster.DrainNode(next_victim)) {
        drains.push_back({next_victim, NowMs() - start_ms, -1, 0});
        recovering = &drains.back();
      }
      ++next_victim;
      next_drain_ms = NowMs() + drain_interval_ms;
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(sample_interval_ms));
  }
  load_thread.join();
  samples.push_back({NowMs() - start_ms, cluster.Snapshot().requests_served});
  const int64_t wall_ms = NowMs() - start_ms;

  const ClusterSnapshot snapshot = cluster.Snapshot();
  const uint64_t reassignments = cluster.frontend().dispatcher().counters().reassignments;
  cluster.Stop();

  // The simulator's deterministic twin: the same rolling drain replayed as
  // membership events. Drains must migrate, not drop (failovers == 0), and
  // the migration counter must equal the dispatcher's reassignment count.
  ClusterSimConfig sim_config;
  sim_config.num_nodes = static_cast<int>(nodes);
  sim_config.policy = Policy::kExtendedLard;
  sim_config.mechanism = Mechanism::kBackEndForwarding;
  sim_config.backend_cache_bytes = cluster_config.backend_cache_bytes;
  sim_config.concurrent_sessions_per_node = 16;
  for (NodeId victim = 1; victim < static_cast<NodeId>(nodes); ++victim) {
    sim_config.membership_events.push_back(
        {static_cast<SimTimeUs>(victim) * 100000, MembershipAction::kNodeDrain, victim});
  }
  ClusterSim sim(sim_config, &trace);
  const ClusterSimMetrics sim_metrics = sim.Run();

  // --- report ---
  // Latency SLO curve alongside the throughput curve: per-request
  // p50/p95/p99 inside each sampling window, so a drain-induced latency
  // storm shows up even when the mean barely moves.
  std::vector<WindowSlo> window_slos;
  Table table({"t (ms)", "cumulative req", "req/s (window)", "p50 ms", "p95 ms", "p99 ms"});
  for (size_t i = 1; i < samples.size(); ++i) {
    const double dt_s =
        static_cast<double>(samples[i].t_ms - samples[i - 1].t_ms) / 1000.0;
    const double window_rps =
        dt_s > 0.0
            ? static_cast<double>(samples[i].requests_total - samples[i - 1].requests_total) /
                  dt_s
            : 0.0;
    const WindowSlo slo = SloOver(result.latency_samples, samples[i - 1].t_ms, samples[i].t_ms);
    window_slos.push_back(slo);
    table.Row()
        .Cell(samples[i].t_ms)
        .Cell(static_cast<int64_t>(samples[i].requests_total))
        .Cell(window_rps, 0)
        .Cell(slo.p50, 1)
        .Cell(slo.p95, 1)
        .Cell(slo.p99, 1);
  }
  table.Print("Throughput and latency SLO across the rolling drain", csv);
  const WindowSlo overall_slo =
      SloOver(result.latency_samples, 0, std::numeric_limits<int64_t>::max());

  std::printf("\nrolling drain of %lld-node cluster: %llu requests in %.2fs (%.0f req/s)\n",
              static_cast<long long>(nodes), static_cast<unsigned long long>(result.requests),
              static_cast<double>(wall_ms) / 1000.0, result.throughput_rps);
  std::printf("per-request latency over the whole storm: p50=%.1fms p95=%.1fms p99=%.1fms\n",
              overall_slo.p50, overall_slo.p95, overall_slo.p99);
  for (const DrainRecord& drain : drains) {
    std::printf("  node %d drained at t=%lldms, recovered in %lldms\n", drain.node,
                static_cast<long long>(drain.at_ms), static_cast<long long>(drain.recovery_ms));
  }
  std::printf("prototype: rehandoffs=%llu drain_handbacks=%llu reassignments=%llu "
              "resets(bad=%llu transport=%llu)\n",
              static_cast<unsigned long long>(snapshot.rehandoffs),
              static_cast<unsigned long long>(snapshot.drain_handbacks),
              static_cast<unsigned long long>(reassignments),
              static_cast<unsigned long long>(result.responses_bad),
              static_cast<unsigned long long>(result.transport_errors));
  std::printf("simulator: rehandoffs=%llu reassignments=%llu failovers=%llu\n",
              static_cast<unsigned long long>(sim_metrics.rehandoffs),
              static_cast<unsigned long long>(sim_metrics.dispatcher.reassignments),
              static_cast<unsigned long long>(sim_metrics.failovers));

  if (!json.empty()) {
    std::ostringstream out;
    out << "{\"config\":{\"nodes\":" << nodes << ",\"sessions\":" << sessions
        << ",\"clients\":" << clients << ",\"drain_interval_ms\":" << drain_interval_ms
        << ",\"smoke\":" << (smoke ? "true" : "false") << "},";
    out << "\"samples\":[";
    for (size_t i = 0; i < samples.size(); ++i) {
      out << (i == 0 ? "" : ",") << "{\"t_ms\":" << samples[i].t_ms
          << ",\"requests_total\":" << samples[i].requests_total;
      if (i > 0 && i - 1 < window_slos.size()) {
        const WindowSlo& slo = window_slos[i - 1];
        out << ",\"p50_ms\":" << slo.p50 << ",\"p95_ms\":" << slo.p95
            << ",\"p99_ms\":" << slo.p99 << ",\"window_requests\":" << slo.requests;
      }
      out << "}";
    }
    out << "],\"slo\":{\"p50_ms\":" << overall_slo.p50 << ",\"p95_ms\":" << overall_slo.p95
        << ",\"p99_ms\":" << overall_slo.p99 << "},\"drains\":[";
    for (size_t i = 0; i < drains.size(); ++i) {
      out << (i == 0 ? "" : ",") << "{\"node\":" << drains[i].node
          << ",\"at_ms\":" << drains[i].at_ms << ",\"recovery_ms\":" << drains[i].recovery_ms
          << "}";
    }
    out << "],\"prototype\":{\"requests\":" << result.requests
        << ",\"responses_ok\":" << result.responses_ok
        << ",\"responses_bad\":" << result.responses_bad
        << ",\"transport_errors\":" << result.transport_errors
        << ",\"throughput_rps\":" << result.throughput_rps
        << ",\"rehandoffs\":" << snapshot.rehandoffs
        << ",\"drain_handbacks\":" << snapshot.drain_handbacks
        << ",\"reassignments\":" << reassignments << "},";
    out << "\"sim\":{\"rehandoffs\":" << sim_metrics.rehandoffs
        << ",\"reassignments\":" << sim_metrics.dispatcher.reassignments
        << ",\"failovers\":" << sim_metrics.failovers
        << ",\"throughput_rps\":" << sim_metrics.throughput_rps << "}}";
    std::ofstream file(json);
    file << out.str() << "\n";
    std::printf("wrote %s\n", json.c_str());
  }

  // --- invariants (the bench doubles as an end-to-end check) ---
  int failures = 0;
  if (result.responses_ok != result.requests || result.responses_bad != 0 ||
      result.transport_errors != 0) {
    std::fprintf(stderr, "FAIL: client-visible errors during the rolling drain "
                         "(ok=%llu/%llu bad=%llu transport=%llu)\n",
                 static_cast<unsigned long long>(result.responses_ok),
                 static_cast<unsigned long long>(result.requests),
                 static_cast<unsigned long long>(result.responses_bad),
                 static_cast<unsigned long long>(result.transport_errors));
    ++failures;
  }
  if (snapshot.rehandoffs == 0) {
    std::fprintf(stderr, "FAIL: no connections were re-handed-off during the drain\n");
    ++failures;
  }
  if (snapshot.rehandoffs != reassignments) {
    std::fprintf(stderr, "FAIL: prototype migration counters disagree (rehandoffs=%llu "
                         "reassignments=%llu)\n",
                 static_cast<unsigned long long>(snapshot.rehandoffs),
                 static_cast<unsigned long long>(reassignments));
    ++failures;
  }
  if (sim_metrics.rehandoffs == 0 || sim_metrics.rehandoffs != sim_metrics.dispatcher.reassignments) {
    std::fprintf(stderr, "FAIL: sim migration counters inconsistent (rehandoffs=%llu "
                         "reassignments=%llu)\n",
                 static_cast<unsigned long long>(sim_metrics.rehandoffs),
                 static_cast<unsigned long long>(sim_metrics.dispatcher.reassignments));
    ++failures;
  }
  if (sim_metrics.failovers != 0) {
    std::fprintf(stderr, "FAIL: sim drains must migrate, not drop (failovers=%llu)\n",
                 static_cast<unsigned long long>(sim_metrics.failovers));
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lard

int main(int argc, char** argv) { return lard::Main(argc, argv); }
