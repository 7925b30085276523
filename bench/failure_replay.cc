// Kill-storm failure-replay scenario bench: a cluster under sustained
// load-generator traffic has back-ends *killed* (uncooperative crash: the
// node's loop stops dead, no drain, no handback) one after another, each
// replaced by a fresh join. With crash-transparent replay the front-end's
// journal re-serves every in-flight idempotent request on a survivor over
// the same client TCP connection, so client-visible failures per crash drop
// to ~0; the same storm with replay disabled shows the paper's baseline —
// every request in flight on the crashed node is lost. The simulator's
// deterministic twin replays the storm as NodeFailure events with a
// non-idempotent request mix and must report the shared invariant
// lost == non_idempotent_in_flight.
//
// Output: throughput/goodput curve across the storm, per-kill recovery
// latency, requests-lost-per-crash with and without replay, and (with
// --json) a machine-readable record for CI's bench-invariant gate. Exit code
// is non-zero when an invariant fails.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/sim/cluster_sim.h"
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

struct KillRecord {
  NodeId node = kInvalidNode;
  int64_t at_ms = 0;
  int64_t recovery_ms = -1;  // time until goodput regained half its pre-kill rate
};

struct StormResult {
  LoadResult load;
  ClusterSnapshot snapshot;
  uint64_t failure_reassignments = 0;
  std::vector<Sample> samples;
  std::vector<KillRecord> kills;
  uint64_t lost_requests = 0;
};

double WindowRps(const std::vector<Sample>& samples, size_t i) {
  if (i == 0 || i >= samples.size()) {
    return 0.0;
  }
  const double dt_s =
      static_cast<double>(samples[i].t_ms - samples[i - 1].t_ms) / 1000.0;
  return dt_s > 0.0 ? static_cast<double>(samples[i].requests_total -
                                          samples[i - 1].requests_total) /
                          dt_s
                    : 0.0;
}

// One kill-storm run against a fresh cluster. `replay` toggles the journal.
StormResult RunStorm(const Trace& trace, int64_t nodes, int64_t clients, int64_t kills,
                     int64_t kill_interval_ms, int64_t sample_interval_ms,
                     int64_t heartbeat_timeout_ms, bool replay, bool add_replacement) {
  ClusterConfig config;
  config.num_nodes = static_cast<int>(nodes);
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 4ull * 1024 * 1024;
  config.disk_time_scale = 0.05;
  config.heartbeat_timeout_ms = heartbeat_timeout_ms;
  config.retire_grace_ms = 1000;
  config.replay_enabled = replay;
  Cluster cluster(config, &trace.catalog());
  Status status = cluster.Start();
  LARD_CHECK(status.ok()) << status.ToString();

  StormResult result;
  std::atomic<bool> load_done{false};
  std::thread load_thread([&]() {
    LoadGeneratorConfig load;
    load.port = cluster.port();
    load.num_clients = static_cast<int>(clients);
    // With replay the stall is bounded by crash detection (one heartbeat
    // timeout) + the re-handoff; without it, stranded reads must fail fast
    // so the baseline measures losses, not timeouts.
    load.recv_timeout_ms = replay ? 10000 : heartbeat_timeout_ms + 700;
    result.load = RunLoad(load, trace);
    load_done.store(true, std::memory_order_release);
  });

  const int64_t start_ms = NowMs();
  int node_slots = static_cast<int>(nodes);
  NodeId next_victim = 1;  // node 0 always survives
  int64_t next_kill_ms = start_ms + kill_interval_ms;
  int64_t kills_left = kills;

  while (!load_done.load(std::memory_order_acquire)) {
    result.samples.push_back({NowMs() - start_ms, cluster.Snapshot().requests_served});

    // Per-kill recovery: first sampling window after the kill whose goodput
    // regained half of the pre-kill rate.
    if (!result.kills.empty() && result.kills.back().recovery_ms < 0 &&
        result.samples.size() >= 2) {
      KillRecord& kill = result.kills.back();
      double pre = 0.0;
      int pre_windows = 0;
      for (size_t i = result.samples.size(); i-- > 1;) {
        if (result.samples[i].t_ms <= kill.at_ms && pre_windows < 3) {
          pre += WindowRps(result.samples, i);
          ++pre_windows;
        }
      }
      pre = pre_windows > 0 ? pre / pre_windows : 0.0;
      const size_t last = result.samples.size() - 1;
      if (result.samples[last].t_ms > kill.at_ms &&
          WindowRps(result.samples, last) >= 0.5 * pre) {
        kill.recovery_ms = result.samples[last].t_ms - kill.at_ms;
      }
    }

    if (kills_left > 0 && NowMs() >= next_kill_ms &&
        next_victim < static_cast<NodeId>(node_slots)) {
      if (cluster.KillNode(next_victim)) {
        result.kills.push_back({next_victim, NowMs() - start_ms, -1});
        --kills_left;
        if (add_replacement && cluster.AddNode() != kInvalidNode) {
          ++node_slots;
        }
      }
      ++next_victim;
      next_kill_ms = NowMs() + kill_interval_ms;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(sample_interval_ms));
  }
  load_thread.join();
  result.samples.push_back({NowMs() - start_ms, cluster.Snapshot().requests_served});

  result.snapshot = cluster.Snapshot();
  result.failure_reassignments =
      cluster.frontend().dispatcher().counters().failure_reassignments;
  result.lost_requests = result.load.requests - result.load.responses_ok;
  cluster.Stop();
  return result;
}

int Main(int argc, char** argv) {
  FlagSet flags("failure_replay");
  int64_t nodes = 4;
  int64_t sessions = 6000;
  int64_t clients = 32;
  int64_t kills = 3;
  int64_t kill_interval_ms = 900;
  int64_t sample_interval_ms = 100;
  int64_t heartbeat_timeout_ms = 500;
  bool add_replacement = true;
  bool baseline = true;
  bool smoke = false;
  std::string json;
  std::string csv;
  flags.AddInt("nodes", &nodes, "initial cluster size");
  flags.AddInt("sessions", &sessions, "trace sessions to replay (per storm)");
  flags.AddInt("clients", &clients, "concurrent load-generator clients");
  flags.AddInt("kills", &kills, "how many back-ends to kill");
  flags.AddInt("kill-interval-ms", &kill_interval_ms, "pause between kills");
  flags.AddInt("sample-interval-ms", &sample_interval_ms, "throughput sampling period");
  flags.AddInt("heartbeat-timeout-ms", &heartbeat_timeout_ms,
               "front-end crash-detection timeout");
  flags.AddBool("add", &add_replacement, "join a replacement node after each kill");
  flags.AddBool("baseline", &baseline, "also run the storm with replay disabled");
  flags.AddBool("smoke", &smoke, "small fast configuration for CI");
  flags.AddString("json", &json, "write the scenario record as JSON here");
  flags.AddString("csv", &csv, "also write the throughput table as CSV here");
  flags.Parse(argc, argv);

  if (smoke) {
    nodes = 3;
    sessions = 1500;
    clients = 12;
    kills = 2;
    kill_interval_ms = 600;
  }

  SyntheticTraceConfig trace_config;
  trace_config.seed = 42;
  trace_config.num_pages = 200;
  trace_config.num_sessions = sessions;
  trace_config.num_clients = static_cast<int>(clients);
  trace_config.max_size_bytes = 32 * 1024;
  const Trace trace = GenerateSyntheticTrace(trace_config);

  std::printf("=== kill storm WITH crash-transparent replay ===\n");
  const StormResult with_replay =
      RunStorm(trace, nodes, clients, kills, kill_interval_ms, sample_interval_ms,
               heartbeat_timeout_ms, /*replay=*/true, add_replacement);
  StormResult without_replay;
  if (baseline) {
    std::printf("=== kill storm WITHOUT replay (baseline) ===\n");
    without_replay =
        RunStorm(trace, nodes, clients, kills, kill_interval_ms, sample_interval_ms,
                 heartbeat_timeout_ms, /*replay=*/false, add_replacement);
  }

  // The simulator's deterministic twin: the same storm as scripted
  // NodeFailure events, with a non-idempotent request mix so the lost ==
  // non_idempotent invariant is exercised, plus a pure-GET run that must
  // lose nothing.
  ClusterSimConfig sim_config;
  sim_config.num_nodes = static_cast<int>(nodes);
  sim_config.policy = Policy::kExtendedLard;
  sim_config.mechanism = Mechanism::kBackEndForwarding;
  sim_config.backend_cache_bytes = 4ull * 1024 * 1024;
  sim_config.concurrent_sessions_per_node = 16;
  sim_config.failure_replay = true;
  sim_config.non_idempotent_fraction = 0.1;
  for (int64_t kill = 0; kill < kills && kill + 1 < nodes; ++kill) {
    sim_config.membership_events.push_back(
        {static_cast<SimTimeUs>(kill + 1) * 150000, MembershipAction::kNodeFailure,
         static_cast<NodeId>(kill + 1)});
  }
  ClusterSim sim(sim_config, &trace);
  const ClusterSimMetrics sim_metrics = sim.Run();

  ClusterSimConfig pure_config = sim_config;
  pure_config.non_idempotent_fraction = 0.0;
  ClusterSim pure_sim(pure_config, &trace);
  const ClusterSimMetrics pure_metrics = pure_sim.Run();

  // --- report ---
  Table table({"t (ms)", "cumulative req", "req/s (window)"});
  for (size_t i = 1; i < with_replay.samples.size(); ++i) {
    table.Row()
        .Cell(with_replay.samples[i].t_ms)
        .Cell(static_cast<int64_t>(with_replay.samples[i].requests_total))
        .Cell(WindowRps(with_replay.samples, i), 0);
  }
  table.Print("Goodput across the kill storm (replay enabled)", csv);

  const double kills_run = static_cast<double>(with_replay.kills.size());
  const double lost_per_crash_with =
      kills_run > 0 ? static_cast<double>(with_replay.lost_requests) / kills_run : 0.0;
  const double lost_per_crash_without =
      baseline && !without_replay.kills.empty()
          ? static_cast<double>(without_replay.lost_requests) /
                static_cast<double>(without_replay.kills.size())
          : 0.0;

  std::printf("\nkill storm on a %lld-node cluster (%zu kills):\n",
              static_cast<long long>(nodes), with_replay.kills.size());
  for (const KillRecord& kill : with_replay.kills) {
    std::printf("  node %d killed at t=%lldms, goodput recovered in %lldms\n", kill.node,
                static_cast<long long>(kill.at_ms),
                static_cast<long long>(kill.recovery_ms));
  }
  std::printf("with replay:    %llu requests, lost %llu (%.2f/crash), replays=%llu "
              "giveups=%llu adopted=%llu spliced=%llu\n",
              static_cast<unsigned long long>(with_replay.load.requests),
              static_cast<unsigned long long>(with_replay.lost_requests),
              lost_per_crash_with,
              static_cast<unsigned long long>(with_replay.snapshot.replays),
              static_cast<unsigned long long>(with_replay.snapshot.replay_giveups),
              static_cast<unsigned long long>(with_replay.snapshot.replays_adopted),
              static_cast<unsigned long long>(with_replay.snapshot.spliced_responses));
  if (baseline) {
    std::printf("without replay: %llu requests, lost %llu (%.2f/crash)\n",
                static_cast<unsigned long long>(without_replay.load.requests),
                static_cast<unsigned long long>(without_replay.lost_requests),
                lost_per_crash_without);
  }
  std::printf("sim twin: replayed_conns=%llu replayed_reqs=%llu lost=%llu "
              "non_idempotent_in_flight=%llu (invariant %s)\n",
              static_cast<unsigned long long>(sim_metrics.replayed_connections),
              static_cast<unsigned long long>(sim_metrics.replayed_requests),
              static_cast<unsigned long long>(sim_metrics.lost_requests),
              static_cast<unsigned long long>(sim_metrics.non_idempotent_in_flight),
              sim_metrics.lost_requests == sim_metrics.non_idempotent_in_flight ? "ok"
                                                                                 : "VIOLATED");

  if (!json.empty()) {
    std::ostringstream out;
    out << "{\"config\":{\"nodes\":" << nodes << ",\"sessions\":" << sessions
        << ",\"clients\":" << clients << ",\"kills\":" << kills
        << ",\"kill_interval_ms\":" << kill_interval_ms
        << ",\"heartbeat_timeout_ms\":" << heartbeat_timeout_ms
        << ",\"smoke\":" << (smoke ? "true" : "false") << "},";
    out << "\"samples\":[";
    for (size_t i = 0; i < with_replay.samples.size(); ++i) {
      out << (i == 0 ? "" : ",") << "{\"t_ms\":" << with_replay.samples[i].t_ms
          << ",\"requests_total\":" << with_replay.samples[i].requests_total << "}";
    }
    out << "],\"kills\":[";
    for (size_t i = 0; i < with_replay.kills.size(); ++i) {
      out << (i == 0 ? "" : ",") << "{\"node\":" << with_replay.kills[i].node
          << ",\"at_ms\":" << with_replay.kills[i].at_ms
          << ",\"recovery_ms\":" << with_replay.kills[i].recovery_ms << "}";
    }
    out << "],\"with_replay\":{\"requests\":" << with_replay.load.requests
        << ",\"responses_ok\":" << with_replay.load.responses_ok
        << ",\"responses_bad\":" << with_replay.load.responses_bad
        << ",\"transport_errors\":" << with_replay.load.transport_errors
        << ",\"lost_requests\":" << with_replay.lost_requests
        << ",\"lost_per_crash\":" << lost_per_crash_with
        << ",\"throughput_rps\":" << with_replay.load.throughput_rps
        << ",\"replays\":" << with_replay.snapshot.replays
        << ",\"replay_giveups\":" << with_replay.snapshot.replay_giveups
        << ",\"replays_adopted\":" << with_replay.snapshot.replays_adopted
        << ",\"spliced_responses\":" << with_replay.snapshot.spliced_responses
        << ",\"failure_reassignments\":" << with_replay.failure_reassignments
        << ",\"auto_removals\":" << with_replay.snapshot.auto_removals << "}";
    if (baseline) {
      out << ",\"without_replay\":{\"requests\":" << without_replay.load.requests
          << ",\"responses_ok\":" << without_replay.load.responses_ok
          << ",\"responses_bad\":" << without_replay.load.responses_bad
          << ",\"transport_errors\":" << without_replay.load.transport_errors
          << ",\"lost_requests\":" << without_replay.lost_requests
          << ",\"lost_per_crash\":" << lost_per_crash_without
          << ",\"throughput_rps\":" << without_replay.load.throughput_rps
          << ",\"replays\":" << without_replay.snapshot.replays << "}";
    }
    out << ",\"sim\":{\"nodes_failed\":" << sim_metrics.nodes_failed
        << ",\"replayed_connections\":" << sim_metrics.replayed_connections
        << ",\"replayed_requests\":" << sim_metrics.replayed_requests
        << ",\"lost_requests\":" << sim_metrics.lost_requests
        << ",\"non_idempotent_in_flight\":" << sim_metrics.non_idempotent_in_flight
        << ",\"replay_unplaceable\":" << sim_metrics.replay_unplaceable
        << ",\"failovers\":" << sim_metrics.failovers
        << ",\"failure_reassignments\":" << sim_metrics.dispatcher.failure_reassignments
        << ",\"pure_idempotent_lost\":" << pure_metrics.lost_requests << "}}";
    std::ofstream file(json);
    file << out.str() << "\n";
    std::printf("wrote %s\n", json.c_str());
  }

  // --- invariants (the bench doubles as an end-to-end check) ---
  int failures = 0;
  if (with_replay.load.responses_bad != 0 || with_replay.load.transport_errors != 0 ||
      with_replay.lost_requests != 0) {
    std::fprintf(stderr,
                 "FAIL: client-visible failures with replay enabled (lost=%llu bad=%llu "
                 "transport=%llu) — idempotent crashes must be invisible\n",
                 static_cast<unsigned long long>(with_replay.lost_requests),
                 static_cast<unsigned long long>(with_replay.load.responses_bad),
                 static_cast<unsigned long long>(with_replay.load.transport_errors));
    ++failures;
  }
  if (with_replay.snapshot.replays == 0) {
    std::fprintf(stderr, "FAIL: the kill storm triggered no journal replays\n");
    ++failures;
  }
  if (with_replay.snapshot.replays != with_replay.failure_reassignments) {
    std::fprintf(stderr,
                 "FAIL: replay counters disagree (fe replays=%llu dispatcher "
                 "failure_reassignments=%llu)\n",
                 static_cast<unsigned long long>(with_replay.snapshot.replays),
                 static_cast<unsigned long long>(with_replay.failure_reassignments));
    ++failures;
  }
  if (with_replay.snapshot.replay_giveups != 0) {
    std::fprintf(stderr, "FAIL: giveups on a pure-GET workload (%llu)\n",
                 static_cast<unsigned long long>(with_replay.snapshot.replay_giveups));
    ++failures;
  }
  if (baseline && without_replay.lost_requests == 0) {
    std::fprintf(stderr,
                 "FAIL: the no-replay baseline lost nothing — the storm is not "
                 "exercising the crash path\n");
    ++failures;
  }
  if (sim_metrics.lost_requests != sim_metrics.non_idempotent_in_flight) {
    std::fprintf(stderr,
                 "FAIL: sim invariant violated (lost=%llu non_idempotent=%llu)\n",
                 static_cast<unsigned long long>(sim_metrics.lost_requests),
                 static_cast<unsigned long long>(sim_metrics.non_idempotent_in_flight));
    ++failures;
  }
  if (pure_metrics.lost_requests != 0) {
    std::fprintf(stderr, "FAIL: sim lost requests on a pure-idempotent workload (%llu)\n",
                 static_cast<unsigned long long>(pure_metrics.lost_requests));
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lard

int main(int argc, char** argv) { return lard::Main(argc, argv); }
