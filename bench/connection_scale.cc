// Connection-scale bench: how many idle persistent connections one FE
// process sustains, and what each one costs.
//
// The paper's P-HTTP argument stands on the server holding connections open
// across requests (Section 2); at cluster scale that means the front-end's
// per-connection state and its idle-timer machinery are the capacity limits,
// not the request path. Four phases:
//
//   1. Sustain sweep: open N idle client connections (1k -> 100k+, smoke
//      holds 50k) against one FE process, verify every one is concurrently
//      FE-owned, and report user-space RSS per connection. Closing them all
//      must drain the per-state gauges to exactly zero — a leak check, not
//      an estimate.
//   2. Idle reap: with the keep-alive deadline set at runtime through the
//      idle_timeout_ms knob of POST /config, a batch of idle connections
//      must be reaped at deadline + epsilon. Reports the reap lateness (how
//      far past the deadline the last connection closed).
//   3. Timer microcost: per-op arm and cancel cost of the event loop's
//      timers with N live, through EventLoop::ScheduleAfterMs/CancelTimer.
//   4. Open-loop tail: Poisson arrivals at a fixed offered rate (the
//      coordinated-omission-safe mode of the load generator); reports p95
//      batch latency and schedule start-lag at that rate.
//
// Output: tables plus (--json) a machine-readable record;
// bench/check_bench_json.py enforces the invariants (sustained >= target,
// zero leaked connections, bytes/conn ceiling, timer per-op bounds, clean
// open-loop run). Exit code is non-zero when a phase fails.
//
// File descriptors: N connections cost 2N+slack fds in this one process
// (client + server end). The bench raises RLIMIT_NOFILE to the hard limit
// and fails fast if that is still too small — CI raises the hard limit
// (`ulimit -n`) before running. More than ~28k connections to one
// destination tuple also exhausts one source IP's ephemeral ports, so
// client sockets bind source addresses cycling 127.0.0.{2..9}.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/admin/admin_client.h"
#include "src/net/event_loop.h"
#include "src/net/socket.h"
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

// Soft limit up to the hard limit (unprivileged); returns the resulting cap.
uint64_t RaiseFdLimit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) {
    return 0;
  }
  limit.rlim_cur = limit.rlim_max;
  (void)::setrlimit(RLIMIT_NOFILE, &limit);
  (void)::getrlimit(RLIMIT_NOFILE, &limit);
  return static_cast<uint64_t>(limit.rlim_cur);
}

// Resident set from /proc/self/statm (pages) — user-space memory only;
// kernel socket buffers are accounted elsewhere and excluded by design.
uint64_t ReadRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t total_pages = 0;
  uint64_t rss_pages = 0;
  statm >> total_pages >> rss_pages;
  return rss_pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

// Blocking connect to 127.0.0.1:port with the source bound to
// 127.0.0.(2 + src_index % 8): each source IP is a fresh ephemeral-port
// space, so the 4-tuple never runs dry below ~224k connections.
int ConnectFromIndexedSource(uint16_t port, int src_index) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in src{};
  src.sin_family = AF_INET;
  src.sin_port = 0;
  src.sin_addr.s_addr = htonl(0x7F000002u + static_cast<uint32_t>(src_index % 8));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&src), sizeof(src)) != 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(port);
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct ConnectBatch {
  std::vector<int> fds;
  uint64_t failures = 0;
  double seconds = 0.0;
};

// Opens `count` idle connections with `threads` workers, each retrying
// transient failures (listen-backlog overflow shows up as refusals under a
// fast enough connect storm).
ConnectBatch OpenConnections(uint16_t port, size_t count, int threads) {
  ConnectBatch batch;
  batch.fds.assign(count, -1);
  std::vector<uint64_t> failures(static_cast<size_t>(threads), 0);
  const int64_t start_ms = NowMs();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&batch, &failures, port, count, threads, t]() {
      for (size_t i = static_cast<size_t>(t); i < count; i += static_cast<size_t>(threads)) {
        int fd = -1;
        for (int attempt = 0; attempt < 8 && fd < 0; ++attempt) {
          if (attempt > 0) {
            // lard-lint: allow(blocking-call) client-side backoff thread.
            std::this_thread::sleep_for(std::chrono::milliseconds(5 << attempt));
          }
          fd = ConnectFromIndexedSource(port, t);
        }
        if (fd < 0) {
          ++failures[static_cast<size_t>(t)];
        }
        batch.fds[i] = fd;
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (const uint64_t n : failures) {
    batch.failures += n;
  }
  batch.seconds = static_cast<double>(NowMs() - start_ms) / 1000.0;
  return batch;
}

void CloseAll(std::vector<int>* fds) {
  for (int& fd : *fds) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

// Every connection in this bench stays FE-owned (nothing is ever dispatched),
// so one gauge covers them all.
int64_t OpenConns(const Cluster& cluster) {
  return cluster.frontend(0).open_conns_fe_owned() +
         cluster.frontend(0).open_conns_handed_off();
}

bool WaitForOpenConns(const Cluster& cluster, int64_t want, int64_t timeout_ms) {
  const int64_t deadline = NowMs() + timeout_ms;
  while (NowMs() < deadline) {
    if (OpenConns(cluster) == want) {
      return true;
    }
    // lard-lint: allow(blocking-call) bench poll thread.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return OpenConns(cluster) == want;
}

struct SweepPoint {
  size_t connections = 0;
  bool sustained = false;
  double connect_seconds = 0.0;
  double drain_seconds = 0.0;
  double rss_bytes_per_conn = 0.0;
  int64_t leaked_conns = 0;
};

struct TimerCosts {
  size_t entries = 0;
  double arm_ns = 0.0;
  double cancel_ns = 0.0;
  size_t pending_after_cancel = 0;
};

double NsPerOp(const std::chrono::steady_clock::time_point& start, size_t ops) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return ops == 0 ? 0.0
                  : static_cast<double>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
                        static_cast<double>(ops);
}

// Per-op arm and cancel cost of EventLoop's timers with `entries` live,
// through the public API on a loop that never runs (calls before Run() are
// legal on the owner thread). The deadlines spread over 4 s past the default
// 30 s idle deadline, like idle timers armed across a connect storm.
TimerCosts MeasureTimers(size_t entries) {
  TimerCosts costs;
  costs.entries = entries;
  EventLoop loop;
  std::vector<EventLoop::TimerId> ids(entries);
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < entries; ++i) {
    ids[i] = loop.ScheduleAfterMs(30000 + static_cast<int64_t>(i % 4096), []() {});
  }
  costs.arm_ns = NsPerOp(start, entries);
  start = std::chrono::steady_clock::now();
  for (const EventLoop::TimerId id : ids) {
    loop.CancelTimer(id);
  }
  costs.cancel_ns = NsPerOp(start, entries);
  costs.pending_after_cancel = loop.pending_timers();
  return costs;
}

int Main(int argc, char** argv) {
  FlagSet flags("connection_scale");
  int64_t conns = 100000;
  int64_t reap_conns = 5000;
  int64_t reap_timeout_ms = 1000;
  int64_t open_loop_sessions = 4000;
  double open_loop_rps = 2000.0;
  int64_t threads = 8;
  bool smoke = false;
  std::string json;
  std::string csv;
  flags.AddInt("conns", &conns, "largest sweep point (concurrent idle connections)");
  flags.AddInt("reap-conns", &reap_conns, "connections for the idle-reap phase");
  flags.AddInt("reap-timeout-ms", &reap_timeout_ms,
               "keep-alive deadline for the idle-reap phase");
  flags.AddInt("open-loop-sessions", &open_loop_sessions, "sessions for the open-loop phase");
  flags.AddDouble("open-loop-rps", &open_loop_rps, "offered session rate for the open-loop phase");
  flags.AddInt("threads", &threads, "client connect workers");
  flags.AddBool("smoke", &smoke, "CI configuration: 50k-connection sweep cap");
  flags.AddString("json", &json, "write the record as JSON here");
  flags.AddString("csv", &csv, "also write the sweep table as CSV here");
  flags.Parse(argc, argv);
  if (smoke) {
    conns = std::min<int64_t>(conns, 50000);
  }

  int failures = 0;
  const uint64_t fd_cap = RaiseFdLimit();
  const uint64_t fd_needed = 2 * static_cast<uint64_t>(conns) + 256;
  if (fd_cap < fd_needed) {
    std::fprintf(stderr,
                 "FAIL: RLIMIT_NOFILE hard cap %llu < %llu needed for %lld connections "
                 "(raise `ulimit -n` / the hard limit, or pass a smaller --conns)\n",
                 static_cast<unsigned long long>(fd_cap),
                 static_cast<unsigned long long>(fd_needed), static_cast<long long>(conns));
    return 1;
  }

  // A tiny catalog: the sweep never requests anything, and the open-loop
  // phase wants small bodies so the tail reflects scheduling, not disk.
  SyntheticTraceConfig trace_config;
  trace_config.seed = 7;
  trace_config.num_pages = 120;
  trace_config.num_sessions = open_loop_sessions;
  trace_config.num_clients = 64;
  trace_config.max_size_bytes = 16 * 1024;
  const Trace trace = GenerateSyntheticTrace(trace_config);

  ClusterConfig config;
  config.num_nodes = 1;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.disk_time_scale = 0.02;
  config.idle_timeout_ms = 0;   // phase 1 holds connections open indefinitely
  config.idle_close_ms = 0;     // and the back-end must not reap either
  config.tracing_enabled = false;  // no span ring churn while counting bytes
  Cluster cluster(config, &trace.catalog());
  const Status started = cluster.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "FAIL: cluster start: %s\n", started.message().c_str());
    return 1;
  }

  // --- Phase 1: sustain sweep. ---
  std::vector<size_t> points;
  for (const int64_t n : {static_cast<int64_t>(1000), static_cast<int64_t>(10000), conns}) {
    if (n > 0 && n <= conns &&
        (points.empty() || static_cast<size_t>(n) > points.back())) {
      points.push_back(static_cast<size_t>(n));
    }
  }
  std::vector<SweepPoint> sweep;
  size_t max_sustained = 0;
  const uint64_t rss_baseline = ReadRssBytes();
  Table sweep_table({"connections", "sustained", "connect s", "RSS bytes/conn", "drain s",
                     "leaked"});
  for (const size_t n : points) {
    SweepPoint point;
    point.connections = n;
    ConnectBatch batch = OpenConnections(cluster.port(), n, static_cast<int>(threads));
    point.connect_seconds = batch.seconds;
    const bool all_open =
        batch.failures == 0 && WaitForOpenConns(cluster, static_cast<int64_t>(n), 60000);
    // "Sustained" means still all open after a settle window, not a peak
    // the reaper or an accept backlog collapse immediately takes back.
    if (all_open) {
      // lard-lint: allow(blocking-call) bench settle window.
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
    point.sustained = all_open && OpenConns(cluster) == static_cast<int64_t>(n);
    const uint64_t rss_peak = ReadRssBytes();
    point.rss_bytes_per_conn =
        rss_peak > rss_baseline
            ? static_cast<double>(rss_peak - rss_baseline) / static_cast<double>(n)
            : 0.0;
    const int64_t drain_start = NowMs();
    CloseAll(&batch.fds);
    const bool drained = WaitForOpenConns(cluster, 0, 60000);
    point.drain_seconds = static_cast<double>(NowMs() - drain_start) / 1000.0;
    point.leaked_conns = drained ? 0 : OpenConns(cluster);
    if (point.sustained) {
      max_sustained = std::max(max_sustained, n);
    } else {
      std::fprintf(stderr, "FAIL: only %lld of %zu connections held open (%llu connect errors)\n",
                   static_cast<long long>(OpenConns(cluster)), n,
                   static_cast<unsigned long long>(batch.failures));
      ++failures;
    }
    if (point.leaked_conns != 0) {
      std::fprintf(stderr, "FAIL: %lld connections leaked after closing all %zu\n",
                   static_cast<long long>(point.leaked_conns), n);
      ++failures;
    }
    sweep_table.Row()
        .Cell(static_cast<int64_t>(n))
        .Cell(point.sustained ? "yes" : "NO")
        .Cell(point.connect_seconds, 2)
        .Cell(point.rss_bytes_per_conn, 0)
        .Cell(point.drain_seconds, 2)
        .Cell(point.leaked_conns);
    sweep.push_back(point);
  }
  sweep_table.Print("Idle-connection sustain sweep (one FE process)", csv);

  // --- Phase 2: idle reap at a runtime-set deadline. ---
  const uint64_t idle_closes_before =
      cluster.frontend(0).counters().idle_closes.load(std::memory_order_relaxed);
  bool reap_ok = AdminRequest(cluster.admin_port(), "POST", "/config",
                              "idle_timeout_ms=" + std::to_string(reap_timeout_ms))
                     .status == 200;
  if (!reap_ok) {
    std::fprintf(stderr, "FAIL: POST /config idle_timeout_ms rejected\n");
    ++failures;
  }
  const size_t reap_n = static_cast<size_t>(std::min<int64_t>(reap_conns, conns));
  ConnectBatch reap_batch = OpenConnections(cluster.port(), reap_n, static_cast<int>(threads));
  const int64_t reap_connect_end_ms = NowMs();
  // Every connection armed its deadline at adoption (all before connect-end);
  // with a deadline shorter than the connect storm the earliest conns reap
  // while the last ones are still connecting, so completion — every armed
  // conn counted reaped and the gauge back at zero — is the signal, not a
  // peak gauge reading. Lateness is measured against the LAST conn's
  // deadline, so a slow connect phase makes it conservative (negative).
  auto reap_done = [&]() {
    return cluster.frontend(0).counters().idle_closes.load(std::memory_order_relaxed) -
                   idle_closes_before >=
               reap_n &&
           OpenConns(cluster) == 0;
  };
  const int64_t reap_deadline = NowMs() + reap_timeout_ms + 30000;
  while (!reap_done() && NowMs() < reap_deadline) {
    // lard-lint: allow(blocking-call) bench poll thread.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool reap_drained = reap_batch.failures == 0 && reap_done();
  const double reap_lateness_ms =
      reap_drained ? static_cast<double>(NowMs() - reap_connect_end_ms - reap_timeout_ms) : -1.0;
  const uint64_t reap_closes =
      cluster.frontend(0).counters().idle_closes.load(std::memory_order_relaxed) -
      idle_closes_before;
  CloseAll(&reap_batch.fds);
  if (!reap_drained || reap_closes != reap_n) {
    std::fprintf(stderr,
                 "FAIL: idle reap: %zu connections armed (%llu connect errors), %llu reaped, "
                 "drained=%d\n",
                 reap_n, static_cast<unsigned long long>(reap_batch.failures),
                 static_cast<unsigned long long>(reap_closes), reap_drained ? 1 : 0);
    ++failures;
    reap_ok = false;
  } else {
    std::printf("\nidle reap: %zu connections reaped %.0f ms past the %lld ms deadline\n",
                reap_n, reap_lateness_ms, static_cast<long long>(reap_timeout_ms));
  }

  // --- Phase 3: timer microcost. ---
  const TimerCosts timers = MeasureTimers(static_cast<size_t>(conns));
  std::printf("\ntimers @ %zu live: arm %.0f ns, cancel %.0f ns, %zu pending after cancel\n",
              timers.entries, timers.arm_ns, timers.cancel_ns, timers.pending_after_cancel);
  if (timers.pending_after_cancel != 0) {
    std::fprintf(stderr, "FAIL: %zu of %zu timers still pending after cancelling all\n",
                 timers.pending_after_cancel, timers.entries);
    ++failures;
  }

  // --- Phase 4: open-loop tail latency. ---
  // Restore a long deadline first so the reaper never races an active batch's
  // think gap (and the restore path itself gets exercised).
  if (AdminRequest(cluster.admin_port(), "POST", "/config", "idle_timeout_ms=30000").status !=
      200) {
    std::fprintf(stderr, "FAIL: POST /config idle_timeout_ms restore rejected\n");
    ++failures;
  }
  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 32;
  load.open_loop_rps = open_loop_rps;
  LoadResult open_loop = RunLoad(load, trace);
  std::printf("\nopen loop @ %.0f sessions/s offered: %.0f req/s served, p95 batch %.2f ms, "
              "start lag mean %.2f ms max %.2f ms (%llu late)\n",
              open_loop.offered_rps, open_loop.throughput_rps, open_loop.p95_batch_latency_ms,
              open_loop.mean_start_lag_ms, open_loop.max_start_lag_ms,
              static_cast<unsigned long long>(open_loop.late_sessions));
  if (open_loop.responses_ok != open_loop.requests || open_loop.transport_errors != 0 ||
      open_loop.responses_bad != 0) {
    std::fprintf(stderr, "FAIL: open-loop run: %llu/%llu ok, %llu bad, %llu transport errors\n",
                 static_cast<unsigned long long>(open_loop.responses_ok),
                 static_cast<unsigned long long>(open_loop.requests),
                 static_cast<unsigned long long>(open_loop.responses_bad),
                 static_cast<unsigned long long>(open_loop.transport_errors));
    ++failures;
  }
  cluster.Stop();

  if (!json.empty()) {
    std::ostringstream out;
    out << "{\"config\":{\"target_conns\":" << conns << ",\"reap_timeout_ms\":" << reap_timeout_ms
        << ",\"open_loop_rps\":" << open_loop_rps << ",\"smoke\":" << (smoke ? "true" : "false")
        << "}";
    out << ",\"max_sustained_conns\":" << max_sustained << ",\"sweep\":[";
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& point = sweep[i];
      out << (i == 0 ? "" : ",") << "{\"connections\":" << point.connections
          << ",\"sustained\":" << (point.sustained ? "true" : "false")
          << ",\"connect_seconds\":" << point.connect_seconds
          << ",\"rss_bytes_per_conn\":" << point.rss_bytes_per_conn
          << ",\"drain_seconds\":" << point.drain_seconds
          << ",\"leaked_conns\":" << point.leaked_conns << "}";
    }
    out << "],\"idle_reap\":{\"conns\":" << reap_n << ",\"idle_closes\":" << reap_closes
        << ",\"reap_lateness_ms\":" << reap_lateness_ms
        << ",\"ok\":" << (reap_ok && reap_drained ? "true" : "false") << "}";
    out << ",\"timers\":{\"entries\":" << timers.entries << ",\"arm_ns\":" << timers.arm_ns
        << ",\"cancel_ns\":" << timers.cancel_ns
        << ",\"pending_after_cancel\":" << timers.pending_after_cancel << "}";
    out << ",\"open_loop\":{\"offered_rps\":" << open_loop.offered_rps
        << ",\"throughput_rps\":" << open_loop.throughput_rps
        << ",\"requests\":" << open_loop.requests
        << ",\"responses_ok\":" << open_loop.responses_ok
        << ",\"responses_bad\":" << open_loop.responses_bad
        << ",\"transport_errors\":" << open_loop.transport_errors
        << ",\"p95_batch_latency_ms\":" << open_loop.p95_batch_latency_ms
        << ",\"mean_start_lag_ms\":" << open_loop.mean_start_lag_ms
        << ",\"max_start_lag_ms\":" << open_loop.max_start_lag_ms
        << ",\"late_sessions\":" << open_loop.late_sessions << "}";
    out << "}";
    std::ofstream file(json);
    file << out.str() << "\n";
    std::printf("wrote %s\n", json.c_str());
  }

  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lard

int main(int argc, char** argv) { return lard::Main(argc, argv); }
