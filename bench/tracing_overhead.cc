// Tracing-overhead bench: the observability tax, measured two ways.
//
// 1. Record-path microbench: cost of one RecordSpan call with tracing
//    disabled, with an unsampled trace id (the common hot-path case: one
//    hash, nothing else) and with a sampled id (snprintf + ring write).
// 2. End-to-end: the same load-generator workload against three fresh
//    clusters — tracing off, default sampling (every 16th connection), and
//    full tracing (every connection) — reporting best-of-N throughput per
//    mode. The CI gate (check_bench_json.py) enforces the PR's acceptance
//    bound: sampled throughput >= 0.98x untraced.
//
// --chrome-out additionally drains the full-tracing run's spans as a Chrome
// trace-event file (about:tracing / Perfetto), which CI uploads as an
// artifact — every CI run leaves an openable trace of a real cluster run.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"
#include "src/util/flags.h"
#include "src/util/tracing.h"

namespace lard {
namespace {

struct ModeResult {
  ModeResult(std::string name, bool tracing, uint32_t every)
      : mode(std::move(name)), tracing_enabled(tracing), sample_every(every) {}

  std::string mode;
  bool tracing_enabled;
  uint32_t sample_every;
  double best_rps = 0.0;
  std::vector<double> runs_rps;
  uint64_t spans_recorded = 0;
  uint64_t responses_ok = 0;
  uint64_t responses_bad = 0;
  uint64_t transport_errors = 0;
};

// ns per RecordSpan call over `iters` iterations against a private tracer.
double RecordNsPerOp(bool enabled, uint32_t sample_every, uint64_t trace_id, int64_t iters) {
  TracerConfig config;
  config.enabled = enabled;
  config.sample_every = sample_every;
  config.ring_capacity = 4096;
  Tracer tracer(config);
  TraceRing* ring = tracer.Ring("bench");
  const int64_t start = TraceNowUs();
  for (int64_t i = 0; i < iters; ++i) {
    RecordSpan(&tracer, ring, trace_id, static_cast<uint32_t>(i), SpanKind::kServe, 1, start, 0,
               "status=%d cache=%c", 200, 'h');
  }
  const int64_t elapsed_us = TraceNowUs() - start;
  return static_cast<double>(elapsed_us) * 1000.0 / static_cast<double>(iters);
}

// One run of `result`'s mode against a fresh cluster, folded into its
// best-of-N and totals. A non-empty `chrome_out` receives the run's spans.
void RunOnce(const Trace& trace, int64_t nodes, int64_t clients, const std::string& chrome_out,
             ModeResult* result) {
  ClusterConfig config;
  config.num_nodes = static_cast<int>(nodes);
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  // Mostly-cached regime: the overhead under test is per-request CPU, so
  // keep the disk (and its noise) out of the critical path.
  config.backend_cache_bytes = 64ull * 1024 * 1024;
  config.disk_time_scale = 0.02;
  config.tracing_enabled = result->tracing_enabled;
  config.trace_sample_every = result->sample_every;
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
  if (result->tracing_enabled) {
    // Ring() is find-or-create, so probing by name is safe even if a
    // component never recorded (recorded() is just 0 then).
    for (int node = 0; node < static_cast<int>(nodes); ++node) {
      result->spans_recorded +=
          cluster.tracer()->Ring("be" + std::to_string(node))->recorded();
    }
    result->spans_recorded += cluster.tracer()->Ring("fe0")->recorded();
  }
  // Drained before teardown exactly as GET /trace?format=chrome would.
  if (!chrome_out.empty()) {
    std::ofstream file(chrome_out);
    file << cluster.tracer()->RenderChrome() << "\n";
    std::printf("wrote %s\n", chrome_out.c_str());
  }
  cluster.Stop();
}

}  // namespace
}  // namespace lard

int main(int argc, char** argv) {
  using namespace lard;

  int64_t nodes = 3;
  int64_t sessions = 8000;
  int64_t clients = 32;
  int64_t repeat = 3;
  int64_t micro_iters = 2000000;
  bool smoke = false;
  std::string json;
  std::string chrome_out;
  FlagSet flags("tracing_overhead");
  flags.AddInt("nodes", &nodes, "back-end nodes");
  flags.AddInt("sessions", &sessions, "trace sessions per run");
  flags.AddInt("clients", &clients, "concurrent load-generator clients");
  flags.AddInt("repeat", &repeat, "runs per mode (best-of)");
  flags.AddInt("micro-iters", &micro_iters, "RecordSpan microbench iterations");
  flags.AddBool("smoke", &smoke, "small fast configuration for CI");
  flags.AddString("json", &json, "write the overhead record as JSON here");
  flags.AddString("chrome-out", &chrome_out,
                  "write the full-tracing run's spans as a Chrome trace file");
  flags.Parse(argc, argv);
  if (smoke) {
    sessions = std::min<int64_t>(sessions, 1500);
    clients = std::min<int64_t>(clients, 12);
    repeat = std::min<int64_t>(repeat, 2);
    micro_iters = std::min<int64_t>(micro_iters, 500000);
  }

  const Trace trace = GenerateSyntheticTrace(PaperScaleTraceConfig(sessions));

  // --- record-path microbench ---
  // trace id 3 is unsampled at sample_every=16 (hash-dependent but fixed:
  // verified by the sampled-hit mode using sample_every=1 instead).
  const double ns_disabled = RecordNsPerOp(false, 16, 3, micro_iters);
  const double ns_unsampled = RecordNsPerOp(true, 16, 3, micro_iters);
  const double ns_sampled = RecordNsPerOp(true, 1, 3, micro_iters);
  std::printf("RecordSpan: disabled %.1f ns/op, unsampled %.1f ns/op, sampled %.1f ns/op\n",
              ns_disabled, ns_unsampled, ns_sampled);

  // --- end-to-end modes ---
  // Each repetition runs every mode once, in turn, so drift on the host
  // spreads over all modes instead of landing on one.
  ModeResult untraced{"untraced", false, 16};
  ModeResult sampled{"sampled", true, 16};
  ModeResult full{"full", true, 1};
  // The artifact trace comes from the last full-tracing run.
  for (int64_t rep = 0; rep < repeat; ++rep) {
    RunOnce(trace, nodes, clients, "", &untraced);
    RunOnce(trace, nodes, clients, "", &sampled);
    RunOnce(trace, nodes, clients, rep == repeat - 1 ? chrome_out : "", &full);
  }

  const double sampled_ratio =
      untraced.best_rps > 0.0 ? sampled.best_rps / untraced.best_rps : 0.0;
  const double full_ratio = untraced.best_rps > 0.0 ? full.best_rps / untraced.best_rps : 0.0;
  std::printf("throughput (best of %lld): untraced %.0f rps, sampled %.0f rps (%.3fx), "
              "full %.0f rps (%.3fx)\n",
              static_cast<long long>(repeat), untraced.best_rps, sampled.best_rps, sampled_ratio,
              full.best_rps, full_ratio);
  std::printf("spans recorded: sampled %llu, full %llu\n",
              static_cast<unsigned long long>(sampled.spans_recorded),
              static_cast<unsigned long long>(full.spans_recorded));

  if (!json.empty()) {
    std::ostringstream out;
    out << "{\"config\":{\"nodes\":" << nodes << ",\"sessions\":" << sessions
        << ",\"clients\":" << clients << ",\"repeat\":" << repeat
        << ",\"micro_iters\":" << micro_iters << ",\"smoke\":" << (smoke ? "true" : "false")
        << "},";
    out << "\"record_ns\":{\"disabled\":" << ns_disabled << ",\"unsampled\":" << ns_unsampled
        << ",\"sampled\":" << ns_sampled << "},";
    out << "\"modes\":{";
    const ModeResult* modes[] = {&untraced, &sampled, &full};
    for (size_t i = 0; i < 3; ++i) {
      const ModeResult& mode = *modes[i];
      out << (i == 0 ? "" : ",") << "\"" << mode.mode
          << "\":{\"throughput_rps\":" << mode.best_rps << ",\"runs_rps\":[";
      for (size_t r = 0; r < mode.runs_rps.size(); ++r) {
        out << (r == 0 ? "" : ",") << mode.runs_rps[r];
      }
      out << "],\"spans_recorded\":" << mode.spans_recorded
          << ",\"responses_ok\":" << mode.responses_ok
          << ",\"responses_bad\":" << mode.responses_bad
          << ",\"transport_errors\":" << mode.transport_errors << "}";
    }
    out << "},\"sampled_over_untraced\":" << sampled_ratio
        << ",\"full_over_untraced\":" << full_ratio << "}";
    std::ofstream file(json);
    file << out.str() << "\n";
    std::printf("wrote %s\n", json.c_str());
  }

  // --- structural invariants (the ratio gate lives in check_bench_json.py;
  // ratios are noisy enough that only the record checker, which sees
  // best-of-N, should enforce the 0.98 bound) ---
  int failures = 0;
  if (sampled.spans_recorded == 0 || full.spans_recorded == 0) {
    std::fprintf(stderr, "FAIL: tracing-enabled runs recorded no spans\n");
    ++failures;
  }
  if (full.spans_recorded < sampled.spans_recorded) {
    std::fprintf(stderr, "FAIL: full tracing recorded fewer spans than sampled tracing\n");
    ++failures;
  }
  for (const ModeResult* mode : {&untraced, &sampled, &full}) {
    if (mode->responses_bad != 0 || mode->transport_errors != 0) {
      std::fprintf(stderr, "FAIL: %s mode had client-visible errors (bad=%llu transport=%llu)\n",
                   mode->mode.c_str(), static_cast<unsigned long long>(mode->responses_bad),
                   static_cast<unsigned long long>(mode->transport_errors));
      ++failures;
    }
  }
  if (ns_disabled > ns_sampled * 4.0 + 50.0) {
    // Disabled tracing must stay within noise of free; compare against the
    // sampled cost rather than an absolute bound so slow CI hosts pass.
    std::fprintf(stderr, "FAIL: disabled RecordSpan costs %.1f ns/op (sampled: %.1f)\n",
                 ns_disabled, ns_sampled);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
