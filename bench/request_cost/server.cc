#include "bench/request_cost/server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench/request_cost/client.h"
#include "src/proto/cluster.h"
#include "src/sim/cost_model.h"
#include "src/util/stats.h"
#include "src/util/tracing.h"

namespace lard {
namespace {

constexpr int kReplyTimeoutMs = 60000;

ClusterConfig MakeConfig(const ServerOptions& options) {
  const Workload& workload = *options.workload;
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_frontends = 1;
  config.fe_loops = 1;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.params.low_disk_queue_threshold = workload.low_disk_queue_threshold;
  config.backend_cache_bytes = workload.cache_bytes;
  config.disk_time_scale = workload.disk_time_scale;
  config.tracing_enabled = options.traced;
  config.trace_sample_every = 1;
  if (options.traced) {
    config.trace_ring_capacity = options.trace_ring_capacity;
  }
  return config;
}

void WriteSnapshot(const Cluster& cluster, FILE* out) {
  const ClusterSnapshot snapshot = cluster.Snapshot();
  size_t open_connections = 0;
  const DispatcherCounters dispatcher =
      cluster.frontend().DispatcherCountersSnapshot(&open_connections);
  std::fprintf(out,
               "served %llu\nhits %llu\nmisses %llu\nlateral %llu\nbytes %llu\n"
               "connections %llu\nconsults %llu\nhandoffs %llu\nrejected %llu\n"
               "dispatched_requests %llu\nopen_connections %zu\n",
               static_cast<unsigned long long>(snapshot.requests_served),
               static_cast<unsigned long long>(snapshot.local_hits),
               static_cast<unsigned long long>(snapshot.local_misses),
               static_cast<unsigned long long>(snapshot.lateral_out),
               static_cast<unsigned long long>(snapshot.bytes_to_clients),
               static_cast<unsigned long long>(snapshot.connections),
               static_cast<unsigned long long>(snapshot.consults),
               static_cast<unsigned long long>(snapshot.handoffs),
               static_cast<unsigned long long>(
                   cluster.frontend().counters().rejected_no_backend.load()),
               static_cast<unsigned long long>(dispatcher.requests), open_connections);
}

void WritePercentiles(FILE* out, const char* name, const PercentileTracker& samples) {
  std::fprintf(out, "%s.count %zu\n%s.p50 %.6f\n%s.p99 %.6f\n", name, samples.count(), name,
               samples.Percentile(50.0), name, samples.Percentile(99.0));
}

// Where the trace window opened: its time and how many spans each ring had
// recorded by then.
struct SpanMark {
  int64_t since_us = 0;
  std::map<std::string, uint64_t> recorded;
};

SpanMark MarkSpans(Cluster* cluster) {
  SpanMark mark;
  mark.since_us = TraceNowUs();
  for (const TraceRingSnapshot& ring : cluster->tracer()->SnapshotAll()) {
    mark.recorded[ring.name] = ring.recorded;
  }
  return mark;
}

// Reduces the spans that started since `mark` per span kind. A ring that
// recorded more spans since the mark than it holds lost some of the window.
void WriteSpanSummary(Cluster* cluster, const ServerOptions& options, const SpanMark& mark,
                      const std::string& chrome_path, FILE* out) {
  const DiskCostModel costs;
  PercentileTracker policy_us, consult_us, serve_us, disk_wait_us, disk_model_us,
      disk_wait_over_model, lateral_us;
  uint64_t dropped = 0;
  uint64_t in_window = 0;
  for (const TraceRingSnapshot& ring : cluster->tracer()->SnapshotAll()) {
    const auto marked = mark.recorded.find(ring.name);
    const uint64_t since_mark =
        ring.recorded - (marked == mark.recorded.end() ? 0 : marked->second);
    dropped += since_mark > ring.capacity ? since_mark - ring.capacity : 0;
    for (const TraceSpan& span : ring.spans) {
      if (span.start_us < mark.since_us) {
        continue;
      }
      ++in_window;
      const double duration_us = static_cast<double>(span.duration_us);
      switch (span.kind) {
        case SpanKind::kPolicy:
          policy_us.Add(duration_us);
          break;
        case SpanKind::kConsult:
          consult_us.Add(duration_us);
          break;
        case SpanKind::kServe:
          serve_us.Add(duration_us);
          break;
        case SpanKind::kLateral:
          lateral_us.Add(duration_us);
          break;
        case SpanKind::kDiskWait: {
          // Detail is "queued=<n> <path>": the model's time for that read.
          disk_wait_us.Add(duration_us);
          const char* path = std::strchr(span.detail, ' ');
          const TargetId target =
              path == nullptr ? kInvalidTarget : options.catalog->Find(path + 1);
          if (target != kInvalidTarget) {
            const double model_us =
                DiskServiceTimeUs(costs, options.catalog->Get(target).size_bytes) *
                options.workload->disk_time_scale;
            disk_model_us.Add(model_us);
            disk_wait_over_model.Add(duration_us / model_us);
          }
          break;
        }
        default:
          break;
      }
    }
  }
  std::fprintf(out, "spans_dropped %llu\nspans_in_window %llu\n",
               static_cast<unsigned long long>(dropped),
               static_cast<unsigned long long>(in_window));
  WritePercentiles(out, "policy_us", policy_us);
  WritePercentiles(out, "consult_us", consult_us);
  WritePercentiles(out, "serve_us", serve_us);
  WritePercentiles(out, "disk_wait_us", disk_wait_us);
  WritePercentiles(out, "disk_model_us", disk_model_us);
  WritePercentiles(out, "disk_wait_over_model", disk_wait_over_model);
  WritePercentiles(out, "lateral_us", lateral_us);
  std::ofstream(chrome_path) << cluster->tracer()->RenderChrome();
}

[[noreturn]] void ChildMain(const ServerOptions& options, int command_fd, int reply_fd) {
  // A parent that dies mid-run takes the server with it.
  (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
  FILE* in = ::fdopen(command_fd, "r");
  FILE* out = ::fdopen(reply_fd, "w");
  const ClusterConfig config = MakeConfig(options);
  std::vector<double> setup_s;
  for (int cycle = 0; cycle < options.setup_cycles; ++cycle) {
    const int64_t start_ns = NowNs();
    Cluster cluster(config, options.catalog);
    const Status status = cluster.Start();
    const int64_t started_ns = NowNs();
    if (!status.ok()) {
      std::fprintf(stderr, "cluster start failed: %s\n", status.ToString().c_str());
      ::_exit(3);
    }
    setup_s.push_back(static_cast<double>(started_ns - start_ns) / 1e9);
    cluster.Stop();
  }
  Cluster cluster(config, options.catalog);
  const Status status = cluster.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cluster start failed: %s\n", status.ToString().c_str());
    ::_exit(3);
  }
  pid_t fe_tid = 0;
  cluster.InspectReplica(0, [&fe_tid](const FrontEnd&) { fe_tid = ::gettid(); });
  std::fprintf(out, "port %u\nfe_tid %d\n", cluster.port(), static_cast<int>(fe_tid));
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::fprintf(out, "setup_s.%zu %.9f\n", i, setup_s[i]);
  }
  std::fprintf(out, "end\n");
  std::fflush(out);

  char* line = nullptr;
  size_t capacity = 0;
  SpanMark mark;
  while (::getline(&line, &capacity, in) > 0) {
    std::istringstream words(line);
    std::string command;
    words >> command;
    if (command == "snapshot") {
      WriteSnapshot(cluster, out);
    } else if (command == "mark") {
      mark = MarkSpans(&cluster);
    } else if (command == "spans") {
      std::string chrome_path;
      words >> chrome_path;
      WriteSpanSummary(&cluster, options, mark, chrome_path, out);
    } else if (command == "stop") {
      cluster.Stop();
      std::fprintf(out, "end\n");
      std::fflush(out);
      ::_exit(0);
    }
    std::fprintf(out, "end\n");
    std::fflush(out);
  }
  // The parent closed the command pipe without stopping us.
  ::_exit(4);
}

}  // namespace

std::unique_ptr<ServerChild> ServerChild::Start(const ServerOptions& options) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe2(to_child, O_CLOEXEC) != 0 || ::pipe2(from_child, O_CLOEXEC) != 0) {
    std::perror("pipe2");
    return nullptr;
  }
  // Buffered output would otherwise be written twice.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return nullptr;
  }
  if (pid == 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    ChildMain(options, to_child[0], from_child[1]);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  std::unique_ptr<ServerChild> child(new ServerChild());
  child->pid_ = pid;
  child->to_child_ = to_child[1];
  child->from_child_ = from_child[0];
  if (!child->ReadReply(&child->hello_, kReplyTimeoutMs) || child->hello_.count("port") == 0 ||
      child->hello_.count("fe_tid") == 0) {
    std::fprintf(stderr, "server child did not start\n");
    return nullptr;
  }
  return child;
}

ServerChild::~ServerChild() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (to_child_ >= 0) {
    ::close(to_child_);
  }
  if (from_child_ >= 0) {
    ::close(from_child_);
  }
}

bool ServerChild::Query(const std::string& command, Reply* reply) {
  reply->clear();
  const std::string line = command + "\n";
  return ::write(to_child_, line.data(), line.size()) == static_cast<ssize_t>(line.size()) &&
         ReadReply(reply, kReplyTimeoutMs);
}

bool ServerChild::Stop() {
  Reply reply;
  const bool answered = Query("stop", &reply);
  if (!answered) {
    ::kill(pid_, SIGKILL);
  }
  int status = 0;
  const bool reaped = ::waitpid(pid_, &status, 0) == pid_;
  pid_ = -1;
  return answered && reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool ServerChild::ReadReply(Reply* reply, int timeout_ms) {
  while (true) {
    const size_t newline = pending_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      if (line == "end") {
        return true;
      }
      const size_t space = line.find(' ');
      if (space != std::string::npos) {
        (*reply)[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
      }
      continue;
    }
    pollfd pfd{from_child_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      return false;
    }
    char buf[4096];
    const ssize_t n = ::read(from_child_, buf, sizeof(buf));
    if (n <= 0) {
      return false;
    }
    pending_.append(buf, static_cast<size_t>(n));
  }
}

}  // namespace lard
