// Policy laboratory: sweep any registered routing policy against any
// mechanism over a configurable synthetic workload in the simulator and
// print a comparison table (optionally CSV). Useful for exploring where
// LARD's advantage appears, how the working-set : cache ratio shifts the
// curves, what P-HTTP does to each policy, and — with --skew — what
// heterogeneous node speeds do to weighted vs unweighted placement.
//
//   ./build/examples/policy_lab --nodes 8 --pages 2000 --cache-mb 16
//   ./build/examples/policy_lab --alpha 0.7 --csv /tmp/lab.csv
//   ./build/examples/policy_lab --skew 2   # fast half runs 2x; wextLARD knows
#include <cstdio>
#include <vector>

#include "src/core/policy.h"
#include "src/sim/cluster_sim.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_stats.h"
#include "src/util/flags.h"
#include "src/util/logging.h"
#include "src/util/table.h"

namespace {

struct Combo {
  const char* label;
  const char* policy;  // policy key
  lard::Mechanism mechanism;
  bool http10;
  bool weighted;  // node weights track the true speeds (--skew)
};

}  // namespace

int main(int argc, char** argv) {
  lard::FlagSet flags("policy_lab");
  int64_t nodes = 6;
  int64_t pages = 1500;
  int64_t sessions = 20000;
  int64_t cache_mb = 16;
  int64_t seed = 42;
  double alpha = 1.0;
  double pages_per_session = 1.5;
  double skew = 1.0;
  bool flash = false;
  std::string csv;
  flags.AddInt("nodes", &nodes, "cluster size");
  flags.AddInt("pages", &pages, "distinct pages in the corpus");
  flags.AddInt("sessions", &sessions, "sessions to replay");
  flags.AddInt("cache-mb", &cache_mb, "per-node cache (MB)");
  flags.AddInt("seed", &seed, "workload seed");
  flags.AddDouble("alpha", &alpha, "Zipf popularity exponent");
  flags.AddDouble("pages-per-session", &pages_per_session, "mean page visits per connection");
  flags.AddDouble("skew", &skew, "speed multiplier of the fast half (1 = homogeneous cluster)");
  flags.AddBool("flash", &flash, "use the Flash cost model instead of Apache");
  flags.AddString("csv", &csv, "write results as CSV here");
  flags.Parse(argc, argv);

  lard::SyntheticTraceConfig workload;
  workload.seed = static_cast<uint64_t>(seed);
  workload.num_pages = pages;
  workload.num_sessions = sessions;
  workload.zipf_alpha = alpha;
  workload.pages_per_session_mean = pages_per_session;
  const lard::Trace trace = lard::GenerateSyntheticTrace(workload);

  const lard::TraceStats stats = lard::ComputeTraceStats(trace);
  std::printf("workload: %zu targets, %.0f MB footprint, %zu requests, %.1f req/conn, "
              "mean size %.1f KB\n",
              stats.num_targets, static_cast<double>(stats.footprint_bytes) / 1e6,
              stats.num_requests, stats.mean_requests_per_session,
              stats.mean_response_bytes / 1024.0);
  std::printf("cluster: %lld nodes x %lld MB cache (aggregate %.0f%% of footprint), %s costs\n",
              static_cast<long long>(nodes), static_cast<long long>(cache_mb),
              100.0 * static_cast<double>(nodes * cache_mb) * 1024 * 1024 /
                  static_cast<double>(stats.footprint_bytes),
              flash ? "flash" : "apache");

  std::vector<double> speeds(static_cast<size_t>(nodes), 1.0);
  if (skew != 1.0) {
    for (size_t i = 0; i < speeds.size() / 2; ++i) {
      speeds[i] = skew;
    }
    std::printf("speed skew: fast half at %.1fx (wextLARD rows carry weights=speeds)\n", skew);
  }

  const Combo combos[] = {
      {"WRR", "wrr", lard::Mechanism::kSingleHandoff, true, false},
      {"WRR-PHTTP", "wrr", lard::Mechanism::kSingleHandoff, false, false},
      {"simple-LARD", "lard", lard::Mechanism::kSingleHandoff, true, false},
      {"simple-LARD-PHTTP", "lard", lard::Mechanism::kSingleHandoff, false, false},
      {"BEforward-extLARD-PHTTP", "extlard", lard::Mechanism::kBackEndForwarding, false, false},
      {"BEforward-wextLARD-PHTTP", "wextlard", lard::Mechanism::kBackEndForwarding, false, true},
      {"BEforward-LARD/R-PHTTP", "lardr", lard::Mechanism::kBackEndForwarding, false, false},
      {"multiHandoff-extLARD-PHTTP", "extlard", lard::Mechanism::kMultipleHandoff, false, false},
      {"relay-extLARD-PHTTP", "extlard", lard::Mechanism::kRelayingFrontEnd, false, false},
      {"zeroCost-extLARD-PHTTP", "extlard", lard::Mechanism::kIdealHandoff, false, false},
  };

  lard::Table table({"policy/mechanism", "req/s", "Mb/s", "hit rate", "batch ms", "forwards",
                     "migrations", "FE util"});
  for (const Combo& combo : combos) {
    lard::ClusterSimConfig config;
    config.num_nodes = static_cast<int>(nodes);
    LARD_CHECK(lard::ParsePolicyName(combo.policy, &config.policy)) << combo.policy;
    config.mechanism = combo.mechanism;
    config.http10 = combo.http10;
    config.backend_cache_bytes = static_cast<uint64_t>(cache_mb) * 1024 * 1024;
    config.server_costs = flash ? lard::FlashCosts() : lard::ApacheCosts();
    config.node_speeds = speeds;
    if (combo.weighted) {
      config.node_weights = speeds;
    }
    const lard::ClusterSimMetrics metrics = lard::ClusterSim(config, &trace).Run();
    table.Row()
        .Cell(combo.label)
        .Cell(metrics.throughput_rps, 0)
        .Cell(metrics.throughput_mbps, 1)
        .Cell(metrics.cache_hit_rate, 3)
        .Cell(metrics.mean_batch_latency_ms, 1)
        .Cell(static_cast<int64_t>(metrics.dispatcher.forwards))
        .Cell(static_cast<int64_t>(metrics.dispatcher.migrations))
        .Cell(metrics.fe_utilization, 3);
  }
  table.Print("policy comparison", csv);
  return 0;
}
