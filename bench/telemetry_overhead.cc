// Telemetry-overhead bench: the cost and the value of the telemetry pipeline.
//
// 1. Overhead: the same load-generator workload against fresh clusters with
//    telemetry off (telemetry_interval_ms = 0: no stores, no per-request
//    latency histogram, no telemetry rows in the back-ends' status frames)
//    and on, reporting best-of-N throughput per mode. The CI gate
//    (check_bench_json.py) enforces the acceptance bound: telemetry-on
//    throughput >= 0.98x telemetry-off.
//
// 2. Watchdog detection latency: one cluster with a fast sampling interval
//    and a single p99-latency rule runs a cache-friendly steady workload
//    (asserting zero watchdog transitions), then switches to an uncachable
//    disk-bound workload that saturates the back-ends, and measures how many
//    sampling intervals pass before /cluster/health leaves "ok". The gate:
//    detection within 5 intervals, zero false transitions during steady
//    state.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/obs/slo_watchdog.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"
#include "src/util/flags.h"

namespace lard {
namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeResult {
  ModeResult(std::string name, int64_t interval_ms)
      : mode(std::move(name)), telemetry_interval_ms(interval_ms) {}

  std::string mode;
  int64_t telemetry_interval_ms;
  double best_rps = 0.0;
  std::vector<double> runs_rps;
  uint64_t fe_samples = 0;  // FE TimeSeriesStore rows across the runs
  uint64_t responses_ok = 0;
  uint64_t responses_bad = 0;
  uint64_t transport_errors = 0;
};

// One run of `result`'s mode against a fresh cluster, folded into its
// best-of-N and totals.
void RunOnce(const Trace& trace, int64_t nodes, int64_t clients, ModeResult* result) {
  ClusterConfig config;
  config.num_nodes = static_cast<int>(nodes);
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  // Mostly-cached regime: the overhead under test is per-request CPU
  // (latency histogram observes, sampler reads), so keep the disk out.
  config.backend_cache_bytes = 64ull * 1024 * 1024;
  config.disk_time_scale = 0.02;
  config.telemetry_interval_ms = result->telemetry_interval_ms;
  Cluster cluster(config, &trace.catalog());
  Status status = cluster.Start();
  LARD_CHECK(status.ok()) << status.ToString();

  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = static_cast<int>(clients);
  const LoadResult run = RunLoad(load, trace);
  result->runs_rps.push_back(run.throughput_rps);
  result->best_rps = std::max(result->best_rps, run.throughput_rps);
  result->responses_ok += run.responses_ok;
  result->responses_bad += run.responses_bad;
  result->transport_errors += run.transport_errors;
  if (result->telemetry_interval_ms > 0) {
    cluster.InspectReplica(0, [result](const FrontEnd& fe) {
      if (fe.telemetry() != nullptr) {
        result->fe_samples += fe.telemetry()->num_samples();
      }
    });
  }
  cluster.Stop();
}

// --- watchdog detection scenario ---

constexpr int kHotFiles = 32;           // 32 x 8 KB: fits the 2 MB cache
constexpr uint64_t kHotBytes = 8 * 1024;
constexpr int kColdFiles = 2000;        // 2000 x 64 KB: never fits, all misses
constexpr uint64_t kColdBytes = 64 * 1024;

// Both traces intern the same catalog (hot first, then cold) so either can be
// replayed against a cluster built from the other's catalog.
void InternHotCold(TargetCatalog* catalog) {
  for (int i = 0; i < kHotFiles; ++i) {
    catalog->Intern("/hot/" + std::to_string(i), kHotBytes);
  }
  for (int i = 0; i < kColdFiles; ++i) {
    catalog->Intern("/cold/" + std::to_string(i), kColdBytes);
  }
}

// Cache-friendly steady workload: persistent connections cycling the hot set.
Trace BuildHotTrace(int64_t sessions) {
  Trace trace;
  InternHotCold(&trace.catalog());
  for (int64_t s = 0; s < sessions; ++s) {
    TraceSession session;
    session.client_id = static_cast<uint32_t>(s);
    for (int b = 0; b < 4; ++b) {
      TraceBatch batch;
      batch.targets.push_back(static_cast<TargetId>((s * 4 + b) % kHotFiles));
      batch.targets.push_back(static_cast<TargetId>((s * 4 + b + 7) % kHotFiles));
      session.batches.push_back(std::move(batch));
    }
    trace.sessions().push_back(std::move(session));
  }
  return trace;
}

// Disk-bound saturation workload: every request a distinct cold file.
Trace BuildColdTrace(int64_t sessions) {
  Trace trace;
  InternHotCold(&trace.catalog());
  int64_t next = 0;
  for (int64_t s = 0; s < sessions; ++s) {
    TraceSession session;
    session.client_id = static_cast<uint32_t>(s);
    TraceBatch batch;
    for (int r = 0; r < 4; ++r) {
      batch.targets.push_back(static_cast<TargetId>(kHotFiles + (next++ % kColdFiles)));
    }
    session.batches.push_back(std::move(batch));
    trace.sessions().push_back(std::move(session));
  }
  return trace;
}

struct WatchdogResult {
  int64_t interval_ms = 0;
  uint64_t steady_transitions = 0;  // must be 0: no flapping on a clean load
  std::string steady_status;
  double detection_intervals = -1.0;  // intervals until status left "ok"
  std::string detected_status;
  bool be_mirrored = false;  // FE health view carried back-end telemetry
};

WatchdogResult RunWatchdogScenario(int64_t nodes, int64_t clients, int64_t interval_ms,
                                   bool smoke) {
  WatchdogResult result;
  result.interval_ms = interval_ms;
  const Trace hot = BuildHotTrace(smoke ? 2000 : 6000);
  const Trace cold = BuildColdTrace(smoke ? 600 : 2000);

  ClusterConfig config;
  config.num_nodes = static_cast<int>(nodes);
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 2ull * 1024 * 1024;  // hot set fits, cold never
  config.disk_time_scale = 1.0;  // paper-faithful: one miss ~30ms + queueing
  config.telemetry_interval_ms = interval_ms;
  // One rule so the scenario is deterministic: back-end p99 over 150ms is a
  // violation; two violating ticks of the last five trip "degraded". The
  // ceiling sits far above any cache-hit latency (µs) and far below a
  // saturated disk queue (hundreds of ms), so steady state cannot flap and
  // saturation cannot hide.
  SloRule rule;
  rule.name = "be_p99_latency";
  rule.input = "be_p99_latency_us";
  rule.ceiling = 150000.0;
  rule.fast_window = 5;
  rule.fast_burn = 0.4;
  rule.slow_window = 40;
  rule.slow_burn = 0.5;
  config.slo_rules.push_back(rule);
  Cluster cluster(config, &hot.catalog());
  Status status = cluster.Start();
  LARD_CHECK(status.ok()) << status.ToString();

  const auto sleep_intervals = [interval_ms](int64_t n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms * n));
  };

  // Warm the hot set with a gentle load: compulsory misses go to disk, but
  // two clients bound the disk queue, keeping p99 well under the ceiling.
  LoadGeneratorConfig warm;
  warm.port = cluster.port();
  warm.num_clients = 2;
  warm.max_sessions = kHotFiles;
  (void)RunLoad(warm, hot);
  sleep_intervals(2);

  uint64_t transitions_before = 0;
  cluster.InspectReplica(0, [&transitions_before](const FrontEnd& fe) {
    transitions_before = fe.watchdog()->transitions();
  });

  // Steady phase: full client load on the (now cached) hot set for ~15
  // sampling intervals. The watchdog must not move.
  LoadGeneratorConfig steady_load;
  steady_load.port = cluster.port();
  steady_load.num_clients = static_cast<int>(clients);
  steady_load.time_limit_ms = interval_ms * 15;
  (void)RunLoad(steady_load, hot);
  sleep_intervals(2);
  cluster.InspectReplica(0, [&result, transitions_before](const FrontEnd& fe) {
    result.steady_transitions = fe.watchdog()->transitions() - transitions_before;
    result.steady_status = HealthStatusName(fe.health_status());
    result.be_mirrored = fe.DescribeHealthJson().find("\"be") != std::string::npos;
  });

  // Saturation: uncachable disk-bound load; measure intervals to detection.
  const int64_t t0 = SteadyNowMs();
  LoadGeneratorConfig cold_load;
  cold_load.port = cluster.port();
  cold_load.num_clients = static_cast<int>(clients);
  cold_load.time_limit_ms = interval_ms * 25;
  std::thread saturator([&cold_load, &cold]() { (void)RunLoad(cold_load, cold); });
  const int64_t deadline = t0 + interval_ms * 20;
  while (SteadyNowMs() < deadline) {
    HealthStatus health = HealthStatus::kOk;
    cluster.InspectReplica(0, [&health](const FrontEnd& fe) { health = fe.health_status(); });
    if (health != HealthStatus::kOk) {
      result.detection_intervals =
          static_cast<double>(SteadyNowMs() - t0) / static_cast<double>(interval_ms);
      result.detected_status = HealthStatusName(health);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms / 5));
  }
  saturator.join();
  cluster.Stop();
  return result;
}

}  // namespace
}  // namespace lard

int main(int argc, char** argv) {
  using namespace lard;

  int64_t nodes = 3;
  int64_t sessions = 8000;
  int64_t clients = 32;
  int64_t repeat = 3;
  int64_t interval_ms = 200;     // overhead-phase sampling interval
  int64_t wd_interval_ms = 150;  // detection-phase sampling interval
  bool smoke = false;
  std::string json;
  FlagSet flags("telemetry_overhead");
  flags.AddInt("nodes", &nodes, "back-end nodes");
  flags.AddInt("sessions", &sessions, "trace sessions per overhead run");
  flags.AddInt("clients", &clients, "concurrent load-generator clients");
  flags.AddInt("repeat", &repeat, "runs per mode (best-of)");
  flags.AddInt("interval-ms", &interval_ms, "telemetry interval for the overhead phase");
  flags.AddInt("wd-interval-ms", &wd_interval_ms, "telemetry interval for the watchdog phase");
  flags.AddBool("smoke", &smoke, "small fast configuration for CI");
  flags.AddString("json", &json, "write the overhead record as JSON here");
  flags.Parse(argc, argv);
  if (smoke) {
    sessions = std::min<int64_t>(sessions, 1500);
    clients = std::min<int64_t>(clients, 12);
    repeat = std::min<int64_t>(repeat, 2);
  }

  const Trace trace = GenerateSyntheticTrace(PaperScaleTraceConfig(sessions));

  // --- overhead phase ---
  // Each repetition runs every mode once, in turn, so drift on the host
  // spreads over both modes instead of landing on one.
  ModeResult off{"off", 0};
  ModeResult on{"on", interval_ms};
  for (int64_t rep = 0; rep < repeat; ++rep) {
    RunOnce(trace, nodes, clients, &off);
    RunOnce(trace, nodes, clients, &on);
  }
  const double on_ratio = off.best_rps > 0.0 ? on.best_rps / off.best_rps : 0.0;
  std::printf("throughput (best of %lld): telemetry-off %.0f rps, telemetry-on %.0f rps "
              "(%.3fx), fe samples %llu\n",
              static_cast<long long>(repeat), off.best_rps, on.best_rps, on_ratio,
              static_cast<unsigned long long>(on.fe_samples));

  // --- watchdog detection phase ---
  const WatchdogResult watchdog =
      RunWatchdogScenario(nodes, std::min<int64_t>(clients, 12), wd_interval_ms, smoke);
  std::printf("watchdog: steady status %s (%llu transitions), detected %s after %.1f "
              "intervals of %lldms\n",
              watchdog.steady_status.c_str(),
              static_cast<unsigned long long>(watchdog.steady_transitions),
              watchdog.detected_status.empty() ? "nothing" : watchdog.detected_status.c_str(),
              watchdog.detection_intervals, static_cast<long long>(watchdog.interval_ms));

  if (!json.empty()) {
    std::ostringstream out;
    out << "{\"config\":{\"nodes\":" << nodes << ",\"sessions\":" << sessions
        << ",\"clients\":" << clients << ",\"repeat\":" << repeat
        << ",\"interval_ms\":" << interval_ms << ",\"wd_interval_ms\":" << wd_interval_ms
        << ",\"smoke\":" << (smoke ? "true" : "false") << "},";
    out << "\"modes\":{";
    const ModeResult* modes[] = {&off, &on};
    for (size_t i = 0; i < 2; ++i) {
      const ModeResult& mode = *modes[i];
      out << (i == 0 ? "" : ",") << "\"" << mode.mode
          << "\":{\"throughput_rps\":" << mode.best_rps << ",\"runs_rps\":[";
      for (size_t r = 0; r < mode.runs_rps.size(); ++r) {
        out << (r == 0 ? "" : ",") << mode.runs_rps[r];
      }
      out << "],\"fe_samples\":" << mode.fe_samples << ",\"responses_ok\":" << mode.responses_ok
          << ",\"responses_bad\":" << mode.responses_bad
          << ",\"transport_errors\":" << mode.transport_errors << "}";
    }
    out << "},\"on_over_off\":" << on_ratio << ",";
    out << "\"watchdog\":{\"interval_ms\":" << watchdog.interval_ms
        << ",\"steady_transitions\":" << watchdog.steady_transitions << ",\"steady_status\":\""
        << watchdog.steady_status << "\",\"detection_intervals\":" << watchdog.detection_intervals
        << ",\"detected_status\":\"" << watchdog.detected_status << "\",\"be_mirrored\":"
        << (watchdog.be_mirrored ? "true" : "false") << "}}";
    std::ofstream file(json);
    file << out.str() << "\n";
    std::printf("wrote %s\n", json.c_str());
  }

  // --- structural invariants (the throughput-ratio gate lives in
  // check_bench_json.py, which sees the best-of-N record) ---
  int failures = 0;
  if (on.fe_samples == 0) {
    std::fprintf(stderr, "FAIL: telemetry-on runs recorded no samples\n");
    ++failures;
  }
  for (const ModeResult* mode : {&off, &on}) {
    if (mode->responses_bad != 0 || mode->transport_errors != 0) {
      std::fprintf(stderr, "FAIL: %s mode had client-visible errors (bad=%llu transport=%llu)\n",
                   mode->mode.c_str(), static_cast<unsigned long long>(mode->responses_bad),
                   static_cast<unsigned long long>(mode->transport_errors));
      ++failures;
    }
  }
  if (watchdog.steady_transitions != 0 || watchdog.steady_status != "ok") {
    std::fprintf(stderr, "FAIL: watchdog moved during steady state (%llu transitions, %s)\n",
                 static_cast<unsigned long long>(watchdog.steady_transitions),
                 watchdog.steady_status.c_str());
    ++failures;
  }
  if (!watchdog.be_mirrored) {
    std::fprintf(stderr, "FAIL: front-end health view carries no back-end telemetry\n");
    ++failures;
  }
  if (watchdog.detection_intervals < 0.0) {
    std::fprintf(stderr, "FAIL: watchdog never detected the saturated back-ends\n");
    ++failures;
  } else if (watchdog.detection_intervals > 5.0) {
    std::fprintf(stderr, "FAIL: detection took %.1f sampling intervals (> 5)\n",
                 watchdog.detection_intervals);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
