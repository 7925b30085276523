// Control-plane walkthrough on the real prototype cluster: starts a (default
// 4-node) cluster with the admin server enabled, serves traffic with the
// built-in load generator, and mid-run drives the runtime knobs and the
// membership through the admin HTTP API alone:
//
//   1. GET  /                   — the registered routes
//   2. GET  /config             — the runtime knobs
//   3. POST /config             — sets idle_timeout_ms and slow_threshold_us
//   4. GET  /metrics            — per-node load/cache-hit/handoff counters
//   5. POST /nodes/1/drain      — node 1 finishes its persistent connections
//   6. POST /nodes/2/kill       — node 2 goes silent (simulated crash);
//                                 the front-end auto-removes it when its
//                                 status frames stop
//   7. POST /nodes/add          — a fresh node joins and takes load
//   8. GET  /nodes, /metrics    — final membership + metrics
//
// Exits non-zero when POST /config did not set both knobs, no status frame
// arrived or the killed node was never auto-removed, so a smoke run checks
// the knob table and the liveness path end to end.
//
//   ./build/examples/admin_demo
//   ./build/examples/admin_demo --nodes 6 --sessions 3000
#include <cstdio>
#include <string>
#include <thread>

#include "src/admin/admin_client.h"
#include "src/core/policy.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"
#include "src/util/flags.h"
#include "src/util/table.h"

namespace {

// Prints one admin call's reply (the first `limit` bytes of its body) under
// `title`: the demo's "curl".
void PrintSection(const char* title, const lard::AdminReply& reply,
                  size_t limit = std::string::npos) {
  std::printf("\n=== %s ===\n%d %s\n", title, reply.status, reply.body.substr(0, limit).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  lard::FlagSet flags("admin_demo");
  int64_t nodes = 4;
  int64_t sessions = 2000;
  int64_t clients = 16;
  int64_t cache_mb = 2;
  int64_t admin_port = 0;
  int64_t listen_port = 0;
  double disk_scale = 0.02;
  std::string policy = "extlard";
  flags.AddInt("nodes", &nodes, "initial number of back-end nodes");
  flags.AddInt("sessions", &sessions, "sessions the load generator replays");
  flags.AddInt("clients", &clients, "concurrent clients");
  flags.AddInt("cache-mb", &cache_mb, "per-node content cache (MB)");
  flags.AddInt("admin-port", &admin_port, "admin API port (0 = ephemeral)");
  flags.AddInt("port", &listen_port, "front-end client port (0 = ephemeral)");
  flags.AddDouble("disk-scale", &disk_scale, "simulated-disk time scale");
  flags.AddString("policy", &policy, "extlard | lard | wrr");
  flags.Parse(argc, argv);

  lard::SyntheticTraceConfig workload;
  workload.seed = 11;
  workload.num_pages = 300;
  workload.num_sessions = sessions;
  workload.max_size_bytes = 64 * 1024;
  const lard::Trace trace = lard::GenerateSyntheticTrace(workload);

  lard::ClusterConfig config;
  config.num_nodes = static_cast<int>(nodes);
  if (!lard::ParsePolicyName(policy, &config.policy)) {
    std::fprintf(stderr, "bad --policy %s\n", policy.c_str());
    return 2;
  }
  config.mechanism = lard::Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = static_cast<uint64_t>(cache_mb) * 1024 * 1024;
  config.disk_time_scale = disk_scale;
  config.listen_port = static_cast<uint16_t>(listen_port);
  config.admin_port = static_cast<uint16_t>(admin_port);
  config.heartbeat_timeout_ms = 600;

  lard::Cluster cluster(config, &trace.catalog());
  const lard::Status status = cluster.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cluster failed to start: %s\n", status.ToString().c_str());
    return 1;
  }
  const uint16_t admin = cluster.admin_port();
  std::printf("cluster up: %lld back-ends, clients on 127.0.0.1:%u, admin on 127.0.0.1:%u\n",
              static_cast<long long>(nodes), cluster.port(), admin);

  // Traffic in the background while we drive the control plane.
  lard::LoadResult result;
  std::thread load_thread([&]() {
    lard::LoadGeneratorConfig load;
    load.port = cluster.port();
    load.num_clients = static_cast<int>(clients);
    // Connections stranded on the killed node must time out, not hang.
    load.recv_timeout_ms = 2000;
    result = lard::RunLoad(load, trace);
  });

  PrintSection("GET /", lard::AdminRequest(admin, "GET", "/"));
  PrintSection("GET /config", lard::AdminRequest(admin, "GET", "/config"));
  const lard::AdminReply set = lard::AdminRequest(admin, "POST", "/config",
                                                  "idle_timeout_ms=20000&slow_threshold_us=500000");
  PrintSection("POST /config idle_timeout_ms=20000&slow_threshold_us=500000", set);
  const bool config_set = set.status == 200 &&
                          set.body.find("\"idle_timeout_ms\":20000") != std::string::npos &&
                          set.body.find("\"slow_threshold_us\":500000") != std::string::npos;

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  PrintSection("GET /metrics (mid-run excerpt)", lard::AdminRequest(admin, "GET", "/metrics"),
               1200);

  PrintSection("POST /nodes/1/drain", lard::AdminRequest(admin, "POST", "/nodes/1/drain"));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  PrintSection("POST /nodes/2/kill (crash; status frames stop)",
               lard::AdminRequest(admin, "POST", "/nodes/2/kill"));
  // Wait past the heartbeat timeout so the front-end detects + auto-removes.
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  PrintSection("GET /nodes (after auto-removal)", lard::AdminRequest(admin, "GET", "/nodes"));

  PrintSection("POST /nodes/add", lard::AdminRequest(admin, "POST", "/nodes/add"));
  load_thread.join();

  PrintSection("GET /nodes (final)", lard::AdminRequest(admin, "GET", "/nodes"));
  PrintSection("GET /metrics?format=json (final excerpt)",
               lard::AdminRequest(admin, "GET", "/metrics?format=json"), 1200);

  const lard::ClusterSnapshot snapshot = cluster.Snapshot();
  std::printf("\nload: %llu requests, ok %llu, bad %llu, transport errors %llu "
              "(errors expected: node 2 was crashed mid-run)\n",
              static_cast<unsigned long long>(result.requests),
              static_cast<unsigned long long>(result.responses_ok),
              static_cast<unsigned long long>(result.responses_bad),
              static_cast<unsigned long long>(result.transport_errors));
  std::printf("cluster: hit rate %.1f%%, handoffs %llu, heartbeats %llu, auto-removals %llu\n",
              100.0 * snapshot.cache_hit_rate,
              static_cast<unsigned long long>(snapshot.handoffs),
              static_cast<unsigned long long>(snapshot.heartbeats),
              static_cast<unsigned long long>(snapshot.auto_removals));

  lard::Table table({"node", "requests served"});
  for (size_t i = 0; i < snapshot.requests_per_node.size(); ++i) {
    table.Row().Cell(static_cast<int64_t>(i)).Cell(
        static_cast<int64_t>(snapshot.requests_per_node[i]));
  }
  table.Print("per-node distribution");
  cluster.Stop();
  // The walkthrough doubles as a check: POST /config must have set both
  // knobs, back-end status frames must have arrived, and the killed node
  // must have been detected and removed.
  if (!config_set || snapshot.heartbeats == 0 || snapshot.auto_removals == 0) {
    std::fprintf(stderr, "FAIL: %s\n",
                 !config_set                ? "POST /config did not set both knobs"
                 : snapshot.heartbeats == 0 ? "no back-end status frame arrived"
                                            : "the killed node was never auto-removed");
    return 1;
  }
  return 0;
}
