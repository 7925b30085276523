// Runs the real prototype cluster on localhost: a front-end, N back-ends,
// fd-passing TCP handoff, tagged requests and lateral fetches — then drives
// it with the built-in load generator and prints per-node statistics.
//
//   ./build/examples/cluster_demo                       # run a measurement
//   ./build/examples/cluster_demo --policy wrr          # compare policies
//   ./build/examples/cluster_demo --serve true          # stay up for curl:
//       curl -v http://127.0.0.1:<port>/page0/index.html
#include <csignal>
#include <cstdio>
#include <thread>

#include "src/core/policy.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"
#include "src/util/flags.h"
#include "src/util/table.h"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  lard::FlagSet flags("cluster_demo");
  int64_t nodes = 3;
  int64_t frontends = 1;
  int64_t sessions = 400;
  int64_t clients = 12;
  int64_t cache_mb = 4;
  int64_t listen_port = 0;
  int64_t admin_port = 0;
  double disk_scale = 0.05;
  std::string policy = "extlard";  // a policy key
  std::string mechanism = "beforward";  // beforward | single | multi | relay
  bool http10 = false;
  bool serve = false;
  flags.AddInt("nodes", &nodes, "number of back-end nodes");
  flags.AddInt("frontends", &frontends, "front-end replicas (mesh; clients spray across ports)");
  flags.AddInt("sessions", &sessions, "sessions the load generator replays");
  flags.AddInt("clients", &clients, "concurrent clients");
  flags.AddInt("cache-mb", &cache_mb, "per-node content cache (MB)");
  flags.AddInt("port", &listen_port, "front-end client port (0 = ephemeral)");
  flags.AddInt("admin-port", &admin_port, "admin API port (0 = ephemeral)");
  flags.AddDouble("disk-scale", &disk_scale, "simulated-disk time scale (1.0 = 28.5 ms seeks)");
  flags.AddString("policy", &policy,
                  "routing policy (" + lard::PolicyKeysCsv() + ")");
  flags.AddString("mechanism", &mechanism, "beforward | single | multi | relay");
  flags.AddBool("http10", &http10, "drive with one connection per request");
  flags.AddBool("serve", &serve, "keep the cluster running for manual curl");
  flags.Parse(argc, argv);

  // Document tree + workload.
  lard::SyntheticTraceConfig workload;
  workload.seed = 7;
  workload.num_pages = 200;
  workload.num_sessions = sessions;
  workload.max_size_bytes = 128 * 1024;
  const lard::Trace trace = lard::GenerateSyntheticTrace(workload);

  lard::ClusterConfig config;
  config.num_nodes = static_cast<int>(nodes);
  config.num_frontends = static_cast<int>(frontends);
  if (!lard::ParsePolicyName(policy, &config.policy)) {
    std::fprintf(stderr, "unknown policy '%s' (known: %s)\n", policy.c_str(),
                 lard::PolicyKeysCsv().c_str());
    return 1;
  }
  config.mechanism = mechanism == "single"  ? lard::Mechanism::kSingleHandoff
                     : mechanism == "relay" ? lard::Mechanism::kRelayingFrontEnd
                     : mechanism == "multi" ? lard::Mechanism::kMultipleHandoff
                                            : lard::Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = static_cast<uint64_t>(cache_mb) * 1024 * 1024;
  config.disk_time_scale = disk_scale;
  config.listen_port = static_cast<uint16_t>(listen_port);
  config.admin_port = static_cast<uint16_t>(admin_port);

  lard::Cluster cluster(config, &trace.catalog());
  const lard::Status status = cluster.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cluster failed to start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("cluster up: %lld back-ends, %s over %s, http://127.0.0.1:%u/\n",
              static_cast<long long>(nodes), policy.c_str(),
              lard::MechanismName(config.mechanism), cluster.port());
  if (frontends > 1) {
    std::printf("front-end tier:");
    for (const uint16_t port : cluster.ports()) {
      std::printf(" http://127.0.0.1:%u/", port);
    }
    std::printf("  (mesh state: GET /mesh on the admin port)\n");
  }
  std::printf("document tree: %zu files, %.1f MB (e.g. /page0/index.html)\n",
              trace.catalog().size(), static_cast<double>(trace.catalog().TotalBytes()) / 1e6);

  if (serve) {
    std::printf("admin API: http://127.0.0.1:%u/ (try /metrics, /nodes)\n",
                cluster.admin_port());
    std::printf("serving until Ctrl-C...\n");
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    cluster.Stop();
    return 0;
  }

  lard::LoadGeneratorConfig load;
  load.port = cluster.port();
  load.ports = cluster.ports();  // spray across the FE tier (one entry = classic)
  load.num_clients = static_cast<int>(clients);
  load.http10 = http10;
  const lard::LoadResult result = lard::RunLoad(load, trace);
  const lard::ClusterSnapshot snapshot = cluster.Snapshot();
  cluster.Stop();

  std::printf("\n%llu requests in %.2f s -> %.0f req/s, %.1f Mb/s (batch latency: mean %.1f ms)\n",
              static_cast<unsigned long long>(result.requests), result.wall_seconds,
              result.throughput_rps, result.throughput_mbps, result.mean_batch_latency_ms);
  std::printf("responses ok/bad: %llu/%llu, transport errors: %llu\n",
              static_cast<unsigned long long>(result.responses_ok),
              static_cast<unsigned long long>(result.responses_bad),
              static_cast<unsigned long long>(result.transport_errors));
  std::printf("cluster: hit rate %.1f%%, lateral fetches %llu, consults %llu, handoffs %llu\n",
              100.0 * snapshot.cache_hit_rate,
              static_cast<unsigned long long>(snapshot.lateral_out),
              static_cast<unsigned long long>(snapshot.consults),
              static_cast<unsigned long long>(snapshot.handoffs));

  lard::Table table({"node", "requests served"});
  for (size_t i = 0; i < snapshot.requests_per_node.size(); ++i) {
    table.Row().Cell(static_cast<int64_t>(i)).Cell(
        static_cast<int64_t>(snapshot.requests_per_node[i]));
  }
  table.Print("per-node distribution");
  return 0;
}
