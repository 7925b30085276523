// Request-cost benchmark for the P-HTTP cluster: what a client sees end to
// end, and where the server's time goes, for one workload per invocation.
//
//   request_cost --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The server is a child process (server.h); this process is the load
// generator (client.h). One run, with --seconds split by ScheduleFor():
//   setup    median of 15 timed cluster construct + Start() cycles
//   idle     no load: the control plane's background CPU
//   warm-up  (every document once, for the all-cached workloads, then) the
//            fixed open-loop rate; results discarded
//   open     Poisson sessions at the workload's fixed rate: latency
//   closed   4 connections back to back: throughput and CPU per request
//   drain    the dispatcher must forget every connection within 2 s
// --trace 1 runs that untraced, then the same warm-up and open phase on a
// server that traces every connection, then the single-threaded layer
// replay; it reports the per-layer metrics and writes a Chrome trace.
//
// Every metric prints as "name value unit"; the last line is one JSON
// object. A run whose self-checks fail prints why and exits 1.
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/request_cost/client.h"
#include "bench/request_cost/layer_replay.h"
#include "bench/request_cost/proc_stats.h"
#include "bench/request_cost/server.h"
#include "bench/request_cost/workload.h"
#include "src/util/flags.h"
#include "src/util/stats.h"

namespace lard {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Measured with tracing off; BENCHMARK.json bounds each of them.
constexpr MetricDef kEndToEnd[] = {
    {"server_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    // Throughput and open-loop latency: end to end by nature, but on a shared
    // VM their run-to-run spread exceeds any bound BENCHMARK.json allows
    // (README, "Noise and bounds").
    {"closed_rps", "req/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"frontend.cpu_us_per_req", "us"},
    {"frontend.consults_per_req", "1/req"},
    {"frontend.handoffs_per_req", "1/req"},
    {"frontend.policy_us_p50", "us"},
    {"frontend.consult_us_p50", "us"},
    {"frontend.consult_us_p99", "us"},
    {"backend.cpu_us_per_req", "us"},
    {"backend.cpu_max_share", "ratio"},
    {"backend.hit_ratio", "ratio"},
    {"backend.bytes_per_req", "B/req"},
    {"backend.serve_us_p50", "us"},
    {"backend.serve_us_p99", "us"},
    {"disk.reads_per_req", "1/req"},
    {"disk.wait_us_p50", "us"},
    {"disk.wait_us_p99", "us"},
    {"disk.model_us_p50", "us"},
    {"disk.wait_over_model_p50", "ratio"},
    {"lateral.per_req", "1/req"},
    {"lateral.fetch_us_p50", "us"},
    {"lateral.fetch_us_p99", "us"},
    {"net.ctx_switches_per_req", "1/req"},
    {"net.sys_cpu_share", "ratio"},
    {"server.cpu_us_per_req", "us"},
    {"server.cpu_util_pct", "%"},
    {"control.idle_cpu_ms_per_s", "ms/s"},
    {"client.connect_us_p50", "us"},
    {"client.ttfb_us_p50", "us"},
    {"client.ttfb_us_p99", "us"},
    {"client.slot_wait_ms_p99", "ms"},
    {"gen.lag_ms_p99", "ms"},
    {"gen.cpu_util_pct", "%"},
    {"trace.overhead_p50_pct", "%"},
    {"trace.spans_dropped", "count"},
    {"http.parse_ns_per_req", "ns/req"},
    {"http.serialize_ns_per_kb", "ns/KB"},
    {"core.dispatch_ns_per_batch", "ns/batch"},
    {"core.lru_ns_per_op", "ns/op"},
    {"content.body_ns_per_kb", "ns/KB"},
    {"proto.codec_ns_per_msg", "ns/msg"},
};

constexpr int kSetupCycles = 15;
// Requests in the traced open loop, and the spans per request the busiest
// ring must hold for them (the front end records at most five: accept,
// parse, policy, handoff and journal or consult), with margin.
constexpr double kTracedRequests = 10000.0;
constexpr double kSpansPerRequest = 6.0;
// Relative to the repository root, where bench.sh runs the benchmark.
constexpr char kTraceDir[] = "build-request-cost/traces";
constexpr int64_t kDrainTimeoutNs = 2'000'000'000;
// Beyond these the generator, not the server, shapes the numbers.
constexpr double kMaxGenLagMs = 1.0;
constexpr double kMaxGenCpuShare = 0.5;

double Percentile(const std::vector<double>& values, double p) {
  PercentileTracker tracker;
  for (const double value : values) {
    tracker.Add(value);
  }
  return tracker.Percentile(p);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double Get(const Reply& reply, const std::string& key) {
  const auto it = reply.find(key);
  return it == reply.end() ? 0.0 : it->second;
}

// The server's counters and threads at one phase boundary.
struct Boundary {
  int64_t t_ns = 0;
  Reply counters;
  ProcSnapshot proc;
};

// One invocation's results and failed self-checks. A problem means the
// server answered wrongly and invalidates the run; a warning means the
// generator or the host, not the server, may have shaped the latencies,
// which no gated metric is.
struct Outcome {
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;
  std::vector<std::string> warnings;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t connect_errors = 0;

  void Count(const char* phase, const PhaseResult& result) {
    attempted += result.attempted;
    failed += result.failed;
    connect_errors += result.connect_errors;
    if (result.failed > 0) {
      problems.push_back(std::string(phase) + ": " + std::to_string(result.failed) + " of " +
                         std::to_string(result.attempted) +
                         " requests failed; first: " + result.first_error);
    }
  }
};

Boundary Mark(ServerChild* server, Outcome* outcome) {
  Boundary boundary;
  boundary.t_ns = NowNs();
  boundary.proc = ReadProc(server->pid());
  if (!server->Query("snapshot", &boundary.counters)) {
    outcome->problems.push_back("the server did not answer a snapshot");
  }
  return boundary;
}

double Diff(const Boundary& before, const Boundary& after, const std::string& key) {
  return Get(after.counters, key) - Get(before.counters, key);
}

void SleepSeconds(double seconds) {
  const int64_t until_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < until_ns) {
    ::usleep(static_cast<useconds_t>(std::min<int64_t>(until_ns - NowNs(), 100'000'000) / 1000));
  }
}

// Polls until the dispatcher holds no open connection; false on timeout.
bool WaitDrained(ServerChild* server) {
  const int64_t deadline_ns = NowNs() + kDrainTimeoutNs;
  Reply reply;
  while (server->Query("snapshot", &reply)) {
    if (Get(reply, "open_connections") == 0.0) {
      return true;
    }
    if (NowNs() > deadline_ns) {
      return false;
    }
    ::usleep(20000);
  }
  return false;
}

// Latency of every answered request of the phase, in ms.
std::vector<double> LatenciesMs(const PhaseResult& phase) {
  std::vector<double> out;
  out.reserve(phase.answered.size());
  for (const Timing& request : phase.answered) {
    out.push_back(static_cast<double>(request.done_ns - request.due_ns) / 1e6);
  }
  return out;
}

// The median over the phase's windows of about a second of each window's
// percentile p of done - due (ms), by due time: one stalled second moves it
// no more than any other second does.
double WindowedPercentileMs(const PhaseResult& phase, const std::vector<Timing>& timings,
                            double p) {
  const int64_t count = std::max<int64_t>(1, (phase.end_ns - phase.start_ns) / 1'000'000'000);
  const int64_t length_ns = (phase.end_ns - phase.start_ns) / count;
  std::vector<std::vector<double>> windows(static_cast<size_t>(count));
  for (const Timing& timing : timings) {
    const int64_t window = (timing.due_ns - phase.start_ns) / length_ns;
    if (window < count) {
      windows[static_cast<size_t>(window)].push_back(
          static_cast<double>(timing.done_ns - timing.due_ns) / 1e6);
    }
  }
  std::vector<double> percentiles;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) {
      percentiles.push_back(Percentile(window, p));
    }
  }
  return Percentile(percentiles, 50.0);
}

// Requests completed per second over the whole phase.
double Rate(const PhaseResult& phase) {
  const double completed = static_cast<double>(
      std::count_if(phase.answered.begin(), phase.answered.end(),
                    [&phase](const Timing& request) { return request.done_ns <= phase.end_ns; }));
  return completed / (static_cast<double>(phase.end_ns - phase.start_ns) / 1e9);
}

PhaseResult WarmUp(LoadClient* client, const Workload& workload, const Schedule& schedule) {
  PhaseResult warm;
  if (workload.sweep) {
    // LARD places a document on the node that first serves it. Over P-HTTP a
    // single connection makes that placement, and so the back ends' shares
    // of the load, the same on every run; HTTP/1.0's thousands of one-request
    // connections would take too long in series, and there the front end,
    // not one back end, limits throughput.
    warm = client->Sweep(workload.http10 ? kSlots : 1);
  }
  warm.Merge(client->OpenLoop(StreamId::kWarm, workload.session_rate, schedule.warm_s, false));
  return warm;
}

void CheckOpenLoop(const PhaseResult& open, Outcome* outcome) {
  if (open.shed_sessions > 0) {
    outcome->warnings.push_back(std::to_string(open.shed_sessions) +
                                " open-loop sessions never got a slot and were shed");
  }
  // A backlog growing linearly has a median three times as high over the
  // second half as over the first; a stable queue's median stays put.
  if (open.backlog_second_half > 2.0 * open.backlog_first_half + 2.0) {
    outcome->warnings.push_back(
        "open-loop backlog grew: median " + std::to_string(open.backlog_first_half) +
        " sessions waiting in the first half, " +
        std::to_string(open.backlog_second_half) + " in the second");
  }
  // Windowed like the latencies: a host stall late-wakes every slot at once,
  // a generator that cannot keep up is late in every second.
  const double lag_p99 = WindowedPercentileMs(open, open.wakeups, 99.0);
  if (lag_p99 > kMaxGenLagMs) {
    outcome->warnings.push_back("generator lag p99 " + std::to_string(lag_p99) + " ms > " +
                                std::to_string(kMaxGenLagMs) + " ms");
  }
}

void CheckGeneratorCpu(double share, Outcome* outcome) {
  if (share > kMaxGenCpuShare) {
    outcome->warnings.push_back("a generator thread was " + std::to_string(100.0 * share) +
                                "% busy (> " + std::to_string(100.0 * kMaxGenCpuShare) + "%)");
  }
}

// The client must have been answered exactly as often as the back ends
// report serving.
void CheckServedCount(uint64_t responses, const Boundary& first, const Boundary& last,
                      Outcome* outcome) {
  const double served = Diff(first, last, "served");
  if (served != static_cast<double>(responses)) {
    outcome->problems.push_back("client counted " + std::to_string(responses) +
                                " responses, back ends served " + std::to_string(served));
  }
}

// The untraced run: every end-to-end metric plus the per-layer metrics that
// need no tracing. Returns the open-loop phase (for the tracing overhead).
PhaseResult MeasureUntraced(const Workload& workload, const TargetCatalog& corpus,
                            const Schedule& schedule, uint64_t seed,
                            std::unique_ptr<SessionStream>* stream, Outcome* outcome) {
  ServerOptions options;
  options.workload = &workload;
  options.catalog = &corpus;
  options.setup_cycles = kSetupCycles;
  std::unique_ptr<ServerChild> server = ServerChild::Start(options);
  if (server == nullptr) {
    outcome->problems.push_back("the server did not start");
    return PhaseResult();
  }
  // Built after the fork, so the server's memory holds only the corpus.
  *stream = std::make_unique<SessionStream>(workload, seed);
  LoadClient client(stream->get(), server->port());
  std::map<std::string, double>& m = outcome->metrics;

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupCycles; ++i) {
    setup_s.push_back(Get(server->hello(), "setup_s." + std::to_string(i)));
  }
  m["setup_s"] = Percentile(setup_s, 50.0);

  const Boundary start = Mark(server.get(), outcome);
  SleepSeconds(schedule.idle_s);
  const Boundary idle = Mark(server.get(), outcome);
  const PhaseResult warm = WarmUp(&client, workload, schedule);
  outcome->Count("warm-up", warm);
  const Boundary warmed = Mark(server.get(), outcome);
  const PhaseResult open =
      client.OpenLoop(StreamId::kOpen, workload.session_rate, schedule.open_s, false);
  outcome->Count("open loop", open);
  const Boundary opened = Mark(server.get(), outcome);
  const PhaseResult closed = client.ClosedLoop(StreamId::kClosed, schedule.closed_s);
  outcome->Count("closed loop", closed);
  const Boundary closed_mark = Mark(server.get(), outcome);
  if (!WaitDrained(server.get())) {
    outcome->problems.push_back("dispatcher still held connections 2 s after the load stopped");
  }
  const Boundary drained = Mark(server.get(), outcome);
  const uint64_t peak_rss_kb = ReadPeakRssKb(server->pid());
  const pid_t main_tid = server->pid();
  const pid_t fe_tid = server->fe_tid();
  if (!server->Stop()) {
    outcome->problems.push_back("the server did not stop cleanly");
  }

  CheckServedCount(warm.responses + open.responses + closed.responses, start, drained, outcome);
  CheckOpenLoop(open, outcome);
  CheckGeneratorCpu(std::max(open.max_thread_cpu_share, closed.max_thread_cpu_share), outcome);
  if (workload.http10 && outcome->connect_errors > 0) {
    outcome->problems.push_back(std::to_string(outcome->connect_errors) +
                                " connect errors (TIME_WAIT or ephemeral-port exhaustion)");
  }

  std::printf("open loop: %zu requests at %.3f sessions/s of %.3f requests; "
              "closed loop: %zu requests\n",
              open.answered.size(), workload.session_rate,
              (*stream)->mean_requests_per_session(), closed.answered.size());
  m["latency_p50_ms"] = WindowedPercentileMs(open, open.answered, 50.0);
  m["latency_p99_ms"] = WindowedPercentileMs(open, open.answered, 99.0);
  m["closed_rps"] = Rate(closed);
  m["server_rss_mb"] = static_cast<double>(peak_rss_kb) / 1024.0;

  // Work per request, over the open-loop phase.
  const double open_served = Diff(warmed, opened, "served");
  const double hits = Diff(warmed, opened, "hits");
  const double misses = Diff(warmed, opened, "misses");
  m["frontend.consults_per_req"] = Ratio(Diff(warmed, opened, "consults"), open_served);
  m["frontend.handoffs_per_req"] = Ratio(Diff(warmed, opened, "handoffs"), open_served);
  m["backend.hit_ratio"] = Ratio(hits, hits + misses);
  m["backend.bytes_per_req"] = Ratio(Diff(warmed, opened, "bytes"), open_served);
  m["disk.reads_per_req"] = Ratio(misses, open_served);
  m["lateral.per_req"] = Ratio(Diff(warmed, opened, "lateral"), open_served);

  // CPU per request, over the closed-loop phase.
  const double closed_served = Diff(opened, closed_mark, "served");
  const auto is_fe = [fe_tid](pid_t tid) { return tid == fe_tid; };
  const auto is_be = [fe_tid, main_tid](pid_t tid) { return tid != fe_tid && tid != main_tid; };
  const auto any = [](pid_t) { return true; };
  const TaskStats fe = Delta(opened.proc, closed_mark.proc, is_fe);
  const TaskStats be = Delta(opened.proc, closed_mark.proc, is_be);
  const TaskStats all = Delta(opened.proc, closed_mark.proc, any);
  double busiest_be_ns = 0.0;
  for (const auto& [tid, after] : closed_mark.proc) {
    const auto before = opened.proc.find(tid);
    if (is_be(tid) && before != opened.proc.end()) {
      busiest_be_ns =
          std::max(busiest_be_ns, static_cast<double>(after.run_ns - before->second.run_ns));
    }
  }
  const double closed_wall_ns = static_cast<double>(closed_mark.t_ns - opened.t_ns);
  m["frontend.cpu_us_per_req"] = Ratio(static_cast<double>(fe.run_ns) / 1e3, closed_served);
  m["backend.cpu_us_per_req"] = Ratio(static_cast<double>(be.run_ns) / 1e3, closed_served);
  m["backend.cpu_max_share"] = Ratio(busiest_be_ns, static_cast<double>(be.run_ns));
  m["server.cpu_us_per_req"] = Ratio(static_cast<double>(all.run_ns) / 1e3, closed_served);
  m["server.cpu_util_pct"] =
      100.0 * Ratio(static_cast<double>(all.run_ns),
                    closed_wall_ns * static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  m["net.ctx_switches_per_req"] = Ratio(static_cast<double>(all.ctx_switches), closed_served);
  m["net.sys_cpu_share"] = Ratio(static_cast<double>(all.system_ticks),
                                 static_cast<double>(all.user_ticks + all.system_ticks));
  const TaskStats idle_cpu = Delta(start.proc, idle.proc, any);
  m["control.idle_cpu_ms_per_s"] = Ratio(static_cast<double>(idle_cpu.run_ns) / 1e6,
                                         static_cast<double>(idle.t_ns - start.t_ns) / 1e9);

  m["client.connect_us_p50"] = Percentile(open.connect_us, 50.0);
  m["client.ttfb_us_p50"] = Percentile(open.ttfb_us, 50.0);
  m["client.ttfb_us_p99"] = Percentile(open.ttfb_us, 99.0);
  m["client.slot_wait_ms_p99"] = Percentile(open.slot_wait_ms, 99.0);
  m["gen.lag_ms_p99"] = WindowedPercentileMs(open, open.wakeups, 99.0);
  m["gen.cpu_util_pct"] =
      100.0 * std::max(open.max_thread_cpu_share, closed.max_thread_cpu_share);
  return open;
}

// Appends the client's spans to the server's Chrome trace as process 2.
bool AppendClientSpans(const std::string& path, const std::vector<ClientSpan>& spans) {
  FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    return false;
  }
  char tail[2] = {0, 0};
  const bool ok = std::fseek(file, -2, SEEK_END) == 0 && std::fread(tail, 1, 2, file) == 2 &&
                  tail[0] == ']' && tail[1] == '}' && std::fseek(file, -2, SEEK_END) == 0;
  if (ok) {
    std::fprintf(file, ",{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"client\"}}");
    for (int slot = 0; slot < kSlots; ++slot) {
      std::fprintf(file,
                   ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":%d,\"args\":{\"name\":"
                   "\"slot%d\"}}",
                   slot, slot);
    }
    for (const ClientSpan& span : spans) {
      std::fprintf(file,
                   ",{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"X\",\"pid\":2,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   span.name, span.slot, static_cast<double>(span.start_ns) / 1e3,
                   std::max(1.0, static_cast<double>(span.duration_ns) / 1e3));
    }
    std::fprintf(file, "]}");
  }
  return std::fclose(file) == 0 && ok;
}

// The traced run: warm-up and open loop again on a server tracing every
// connection, reduced per span kind.
void MeasureTraced(const Workload& workload, const TargetCatalog& corpus,
                   const Schedule& schedule, const SessionStream& stream,
                   const PhaseResult& untraced_open, const std::string& chrome_path,
                   Outcome* outcome) {
  // The traced open loop lasts about kTracedRequests requests (at most the
  // untraced phase's length), so the rings stay small at any request rate.
  const double requests_per_s = workload.session_rate * stream.mean_requests_per_session();
  const double window_s = std::min(schedule.open_s, kTracedRequests / requests_per_s);
  ServerOptions options;
  options.workload = &workload;
  options.catalog = &corpus;
  options.traced = true;
  options.trace_ring_capacity = static_cast<size_t>(kSpansPerRequest * kTracedRequests);
  std::unique_ptr<ServerChild> server = ServerChild::Start(options);
  if (server == nullptr) {
    outcome->problems.push_back("the traced server did not start");
    return;
  }
  LoadClient client(&stream, server->port());
  const Boundary start = Mark(server.get(), outcome);
  const PhaseResult warm = WarmUp(&client, workload, schedule);
  outcome->Count("traced warm-up", warm);
  Reply spans;
  if (!server->Query("mark", &spans)) {
    outcome->problems.push_back("the traced server did not open the trace window");
  }
  const PhaseResult open =
      client.OpenLoop(StreamId::kOpen, workload.session_rate, window_s, true);
  outcome->Count("traced open loop", open);
  if (!server->Query("spans " + chrome_path, &spans)) {
    outcome->problems.push_back("the traced server did not reduce its spans");
  }
  if (!WaitDrained(server.get())) {
    outcome->problems.push_back("traced dispatcher still held connections 2 s after the load");
  }
  const Boundary drained = Mark(server.get(), outcome);
  if (!server->Stop()) {
    outcome->problems.push_back("the traced server did not stop cleanly");
  }
  CheckServedCount(warm.responses + open.responses, start, drained, outcome);
  CheckOpenLoop(open, outcome);
  if (!AppendClientSpans(chrome_path, open.spans)) {
    outcome->problems.push_back("could not add the client spans to " + chrome_path);
  }
  std::printf("chrome trace: %s\n", chrome_path.c_str());

  std::map<std::string, double>& m = outcome->metrics;
  const double dropped = Get(spans, "spans_dropped");
  if (dropped > 0.0) {
    outcome->problems.push_back(std::to_string(dropped) + " trace spans were overwritten");
  }
  m["trace.spans_dropped"] = dropped;
  m["trace.overhead_p50_pct"] =
      100.0 * (Ratio(Percentile(LatenciesMs(open), 50.0),
                     Percentile(LatenciesMs(untraced_open), 50.0)) -
               1.0);
  m["frontend.policy_us_p50"] = Get(spans, "policy_us.p50");
  m["frontend.consult_us_p50"] = Get(spans, "consult_us.p50");
  m["frontend.consult_us_p99"] = Get(spans, "consult_us.p99");
  m["backend.serve_us_p50"] = Get(spans, "serve_us.p50");
  m["backend.serve_us_p99"] = Get(spans, "serve_us.p99");
  m["disk.wait_us_p50"] = Get(spans, "disk_wait_us.p50");
  m["disk.wait_us_p99"] = Get(spans, "disk_wait_us.p99");
  m["disk.model_us_p50"] = Get(spans, "disk_model_us.p50");
  m["disk.wait_over_model_p50"] = Get(spans, "disk_wait_over_model.p50");
  m["lateral.fetch_us_p50"] = Get(spans, "lateral_us.p50");
  m["lateral.fetch_us_p99"] = Get(spans, "lateral_us.p99");
  std::printf("traced spans in the open loop: %.0f (policy %.0f, consult %.0f, serve %.0f, "
              "disk %.0f, lateral %.0f)\n",
              Get(spans, "spans_in_window"), Get(spans, "policy_us.count"),
              Get(spans, "consult_us.count"), Get(spans, "serve_us.count"),
              Get(spans, "disk_wait_us.count"), Get(spans, "lateral_us.count"));
}

void PrintJson(const Outcome& outcome, bool traced) {
  std::string json = "{\"correct\": ";
  json += outcome.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto add = [&](const MetricDef& def) {
    const auto it = outcome.metrics.find(def.name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", it == outcome.metrics.end() ? 0.0 : it->second);
    json += std::string(first ? "" : ", ") + "\"" + def.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  };
  if (traced) {
    for (const MetricDef& def : kPerLayer) {
      add(def);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      add(def);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  FlagSet flags("request_cost");
  std::string workload_name;
  int64_t seed = 1;
  double seconds = 30.0;
  int64_t trace = 0;
  flags.AddString("workload", &workload_name, "phttp_extlard | http10_small | phttp_large");
  flags.AddInt("seed", &seed, "request-stream seed");
  flags.AddDouble("seconds", &seconds, "measured seconds, split across the phases");
  flags.AddInt("trace", &trace, "1 = traced run: per-layer metrics and a Chrome trace");
  flags.Parse(argc, argv);
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "%s", flags.Usage().c_str());
    return 2;
  }
  // The server child inherits this; a client write to a closed socket must
  // fail the request, not kill the generator.
  std::signal(SIGPIPE, SIG_IGN);

  const Trace corpus = BuildCorpus(*workload);
  const Schedule schedule = ScheduleFor(seconds);
  std::printf("workload %s: %zu documents, %.1f MB, seed %lld, %.0f s measured\n",
              workload->name.c_str(), corpus.catalog().size(),
              static_cast<double>(corpus.catalog().TotalBytes()) / 1e6,
              static_cast<long long>(seed), seconds);

  Outcome outcome;
  std::unique_ptr<SessionStream> stream;
  const PhaseResult untraced_open = MeasureUntraced(*workload, corpus.catalog(), schedule,
                                                    static_cast<uint64_t>(seed), &stream, &outcome);
  if (trace == 1 && stream != nullptr) {
    std::filesystem::create_directories(kTraceDir);
    MeasureTraced(*workload, corpus.catalog(), schedule, *stream, untraced_open,
                  std::string(kTraceDir) + "/" + workload->name + ".chrome.json", &outcome);
    for (const auto& [name, value] : RunLayerReplay(*workload, *stream)) {
      outcome.metrics[name] = value;
    }
  }

  for (const MetricDef& def : kEndToEnd) {
    std::printf("%s %.10g %s\n", def.name, outcome.metrics[def.name], def.unit);
  }
  for (const MetricDef& def : kPerLayer) {
    const auto it = outcome.metrics.find(def.name);
    if (it != outcome.metrics.end()) {
      std::printf("%s %.10g %s\n", def.name, it->second, def.unit);
    }
  }
  for (const std::string& warning : outcome.warnings) {
    std::printf("WARNING: %s\n", warning.c_str());
  }
  for (const std::string& problem : outcome.problems) {
    std::printf("INVALID: %s\n", problem.c_str());
  }
  PrintJson(outcome, trace == 1);
  return outcome.problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace lard

int main(int argc, char** argv) { return lard::Main(argc, argv); }
