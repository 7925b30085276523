// Heterogeneous-cluster scenario bench: a 2x-speed-skewed cluster (half the
// back-ends run CPU and disk twice as fast) replayed in the simulator under
// every relevant routing policy, weighted and unweighted, in two load
// regimes:
//
//   * moderate — the closed-loop concurrency sits well inside the cost
//     model's balancing band. Capacity-blind extLARD overdrives the slow
//     half; the weighted policy evens out the per-node *normalized load*
//     (each node's bottleneck utilization — work per unit of capacity).
//   * saturated — concurrency near L_overload. Here capacity-blindness is
//     catastrophic: unweighted extLARD pushes the slow half past overload,
//     its caches thrash and cluster throughput collapses, while the weighted
//     policy keeps the fast half absorbing its true share.
//
// Output: a human-readable table per regime plus (with --json) a
// machine-readable record so CI can track the trajectory. Exit code is
// non-zero when an invariant fails:
//   * moderate regime: weighted extLARD shrinks the normalized load
//     imbalance (and does not lose meaningful throughput),
//   * saturated regime: weighted extLARD beats unweighted throughput,
//   * with all weights equal, the weighted policy reproduces the unweighted
//     decision counters exactly (the bit-identity regression, also
//     unit-tested in tests/policy_test.cc).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/policy.h"
#include "src/sim/cluster_sim.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_stats.h"
#include "src/util/flags.h"
#include "src/util/table.h"

namespace lard {
namespace {

struct PolicyRun {
  std::string label;
  Policy policy = Policy::kWrr;
  bool weighted = false;  // node_weights track the true speeds
};

struct RunRecord {
  PolicyRun run;
  ClusterSimMetrics metrics;
  double imbalance_cv = 0.0;     // stddev/mean of per-node bottleneck utilization
  double imbalance_ratio = 0.0;  // max/min of per-node bottleneck utilization
};

struct RegimeResult {
  std::string name;
  int sessions_per_node = 0;
  std::vector<RunRecord> records;

  const RunRecord* Find(Policy policy) const {
    for (const RunRecord& record : records) {
      if (record.run.policy == policy) {
        return &record;
      }
    }
    return nullptr;
  }
};

// Normalized load imbalance across the membership. A node's *normalized
// load* is the work it carries per unit of its capacity; the simulator's
// direct hardware measurement of that quantity is the node's bottleneck
// utilization (a fast node doing twice the requests of a slow one shows the
// *same* utilization, because its resources run twice as fast). A perfectly
// capacity-aware policy drives these toward equality (cv -> 0, ratio -> 1);
// a capacity-blind one idles the fast half while the slow half saturates.
void ComputeImbalance(const ClusterSimMetrics& metrics, double* cv, double* ratio) {
  std::vector<double> util;
  for (const BackendSimMetrics& node : metrics.per_node) {
    util.push_back(std::max(node.cpu_utilization, node.disk_utilization));
  }
  double sum = 0.0;
  double min = util.empty() ? 0.0 : util[0];
  double max = min;
  for (const double u : util) {
    sum += u;
    min = std::min(min, u);
    max = std::max(max, u);
  }
  const double mean = util.empty() ? 0.0 : sum / static_cast<double>(util.size());
  double var = 0.0;
  for (const double u : util) {
    var += (u - mean) * (u - mean);
  }
  var = util.empty() ? 0.0 : var / static_cast<double>(util.size());
  *cv = mean > 0.0 ? std::sqrt(var) / mean : 0.0;
  *ratio = min > 0.0 ? max / min : 0.0;
}

bool SameDecisions(const DispatcherCounters& a, const DispatcherCounters& b) {
  return a.requests == b.requests && a.handoffs == b.handoffs &&
         a.local_serves == b.local_serves && a.forwards == b.forwards &&
         a.migrations == b.migrations && a.relays == b.relays &&
         a.served_without_caching == b.served_without_caching;
}

int Main(int argc, char** argv) {
  FlagSet flags("heterogeneous_cluster");
  int64_t nodes = 4;
  int64_t pages = 400;
  int64_t sessions = 8000;
  int64_t cache_mb = 4;
  int64_t moderate_spn = 64;
  int64_t saturated_spn = 128;
  int64_t seed = 42;
  double fast_speed = 2.0;
  bool smoke = false;
  std::string json;
  std::string csv;
  flags.AddInt("nodes", &nodes, "cluster size (first half runs at --fast-speed)");
  flags.AddInt("pages", &pages, "distinct pages in the corpus");
  flags.AddInt("sessions", &sessions, "trace sessions to replay");
  flags.AddInt("cache-mb", &cache_mb, "per-node cache (MB)");
  flags.AddInt("moderate-spn", &moderate_spn,
               "closed-loop concurrency per node, moderate regime");
  flags.AddInt("saturated-spn", &saturated_spn,
               "closed-loop concurrency per node, saturated regime (~L_overload)");
  flags.AddInt("seed", &seed, "workload seed");
  flags.AddDouble("fast-speed", &fast_speed, "speed multiplier of the fast half");
  flags.AddBool("smoke", &smoke, "small fast configuration for CI");
  flags.AddString("json", &json, "write the scenario record as JSON here");
  flags.AddString("csv", &csv, "also write the comparison tables as CSV here");
  flags.Parse(argc, argv);

  if (smoke) {
    nodes = 4;
    pages = 400;
    sessions = 3000;
    cache_mb = 4;
  }

  // The skew: fast first half, slow second half.
  std::vector<double> speeds(static_cast<size_t>(nodes), 1.0);
  for (size_t i = 0; i < speeds.size() / 2; ++i) {
    speeds[i] = fast_speed;
  }

  SyntheticTraceConfig workload;
  workload.seed = static_cast<uint64_t>(seed);
  workload.num_pages = pages;
  workload.num_sessions = sessions;
  const Trace trace = GenerateSyntheticTrace(workload);
  const TraceStats stats = ComputeTraceStats(trace);
  std::printf("workload: %zu targets, %.0f MB footprint, %zu requests\n", stats.num_targets,
              static_cast<double>(stats.footprint_bytes) / 1e6, stats.num_requests);
  std::printf("cluster: %lld nodes, speeds [", static_cast<long long>(nodes));
  for (size_t i = 0; i < speeds.size(); ++i) {
    std::printf("%s%.1f", i == 0 ? "" : " ", speeds[i]);
  }
  std::printf("], %lld MB cache/node\n", static_cast<long long>(cache_mb));

  const PolicyRun runs[] = {
      {"WRR (unweighted)", Policy::kWrr, false},
      {"extLARD (unweighted)", Policy::kExtendedLard, false},
      {"wextLARD (weights=speeds)", Policy::kWeightedExtendedLard, true},
      {"LARD/R (unweighted)", Policy::kLardReplication, false},
  };

  auto run_sim = [&](Policy policy, const std::vector<double>& weights,
                     int sessions_per_node) -> ClusterSimMetrics {
    ClusterSimConfig config;
    config.num_nodes = static_cast<int>(nodes);
    config.policy = policy;
    config.mechanism = Mechanism::kBackEndForwarding;
    config.backend_cache_bytes = static_cast<uint64_t>(cache_mb) * 1024 * 1024;
    config.concurrent_sessions_per_node = sessions_per_node;
    config.node_speeds = speeds;
    config.node_weights = weights;
    return ClusterSim(config, &trace).Run();
  };
  const std::vector<double> unit_weights(static_cast<size_t>(nodes), 1.0);

  std::vector<RegimeResult> regimes;
  for (const auto& [regime_name, spn] :
       std::vector<std::pair<std::string, int64_t>>{{"moderate", moderate_spn},
                                                    {"saturated", saturated_spn}}) {
    RegimeResult regime;
    regime.name = regime_name;
    regime.sessions_per_node = static_cast<int>(spn);
    for (const PolicyRun& run : runs) {
      RunRecord record;
      record.run = run;
      record.metrics = run_sim(run.policy, run.weighted ? speeds : unit_weights,
                               static_cast<int>(spn));
      ComputeImbalance(record.metrics, &record.imbalance_cv, &record.imbalance_ratio);
      regime.records.push_back(std::move(record));
    }

    Table table({"policy", "req/s", "Mb/s", "hit rate", "batch ms", "norm-load cv",
                 "max/min norm load"});
    for (const RunRecord& record : regime.records) {
      table.Row()
          .Cell(record.run.label)
          .Cell(record.metrics.throughput_rps, 0)
          .Cell(record.metrics.throughput_mbps, 1)
          .Cell(record.metrics.cache_hit_rate, 3)
          .Cell(record.metrics.mean_batch_latency_ms, 1)
          .Cell(record.imbalance_cv, 3)
          .Cell(record.imbalance_ratio, 2);
    }
    table.Print(regime.name + " regime (" + std::to_string(spn) +
                    " sessions/node; normalized load = bottleneck utilization)",
                csv.empty() ? csv : regime.name + "-" + csv);
    regimes.push_back(std::move(regime));
  }

  // The bit-identity regression: with every weight at 1.0, the weighted
  // policy must make exactly the decisions the unweighted one does.
  const ClusterSimMetrics equal_weights =
      run_sim(Policy::kWeightedExtendedLard, unit_weights, static_cast<int>(moderate_spn));
  const RunRecord* moderate_ext = regimes[0].Find(Policy::kExtendedLard);
  const RunRecord* moderate_wext = regimes[0].Find(Policy::kWeightedExtendedLard);
  const RunRecord* saturated_ext = regimes[1].Find(Policy::kExtendedLard);
  const RunRecord* saturated_wext = regimes[1].Find(Policy::kWeightedExtendedLard);
  const bool identical_under_equal_weights =
      moderate_ext != nullptr &&
      SameDecisions(equal_weights.dispatcher, moderate_ext->metrics.dispatcher);

  if (!json.empty()) {
    std::ostringstream out;
    out << "{\"config\":{\"nodes\":" << nodes << ",\"sessions\":" << sessions
        << ",\"pages\":" << pages << ",\"cache_mb\":" << cache_mb
        << ",\"fast_speed\":" << fast_speed << ",\"smoke\":" << (smoke ? "true" : "false")
        << ",\"speeds\":[";
    for (size_t i = 0; i < speeds.size(); ++i) {
      out << (i == 0 ? "" : ",") << speeds[i];
    }
    out << "]},\"regimes\":[";
    for (size_t r = 0; r < regimes.size(); ++r) {
      const RegimeResult& regime = regimes[r];
      out << (r == 0 ? "" : ",") << "{\"name\":\"" << regime.name
          << "\",\"sessions_per_node\":" << regime.sessions_per_node << ",\"policies\":[";
      for (size_t i = 0; i < regime.records.size(); ++i) {
        const RunRecord& record = regime.records[i];
        out << (i == 0 ? "" : ",") << "{\"policy\":\"" << PolicyKey(record.run.policy)
            << "\",\"weighted\":" << (record.run.weighted ? "true" : "false")
            << ",\"throughput_rps\":" << record.metrics.throughput_rps
            << ",\"cache_hit_rate\":" << record.metrics.cache_hit_rate
            << ",\"mean_batch_latency_ms\":" << record.metrics.mean_batch_latency_ms
            << ",\"normalized_load_imbalance_cv\":" << record.imbalance_cv
            << ",\"normalized_load_max_min_ratio\":" << record.imbalance_ratio
            << ",\"per_node\":[";
        for (size_t node = 0; node < record.metrics.per_node.size(); ++node) {
          const BackendSimMetrics& per_node = record.metrics.per_node[node];
          out << (node == 0 ? "" : ",") << "{\"requests\":" << per_node.requests
              << ",\"speed\":" << (node < speeds.size() ? speeds[node] : 1.0)
              << ",\"cpu_utilization\":" << per_node.cpu_utilization
              << ",\"disk_utilization\":" << per_node.disk_utilization
              << ",\"normalized_load\":"
              << std::max(per_node.cpu_utilization, per_node.disk_utilization) << "}";
        }
        out << "]}";
      }
      out << "]}";
    }
    out << "],\"equal_weight_regression\":{\"identical\":"
        << (identical_under_equal_weights ? "true" : "false") << "}}";
    std::ofstream file(json);
    file << out.str() << "\n";
    std::printf("wrote %s\n", json.c_str());
  }

  // --- invariants (the bench doubles as an end-to-end check) ---
  int failures = 0;
  if (moderate_ext == nullptr || moderate_wext == nullptr || saturated_ext == nullptr ||
      saturated_wext == nullptr) {
    std::fprintf(stderr, "FAIL: missing extlard/wextlard runs\n");
    return 1;
  }
  if (!identical_under_equal_weights) {
    std::fprintf(stderr,
                 "FAIL: wextlard with all weights 1.0 diverged from extlard "
                 "(requests %llu vs %llu, forwards %llu vs %llu)\n",
                 static_cast<unsigned long long>(equal_weights.dispatcher.requests),
                 static_cast<unsigned long long>(moderate_ext->metrics.dispatcher.requests),
                 static_cast<unsigned long long>(equal_weights.dispatcher.forwards),
                 static_cast<unsigned long long>(moderate_ext->metrics.dispatcher.forwards));
    ++failures;
  }
  // Moderate regime: the weights must even out the normalized load without
  // giving up meaningful throughput.
  if (moderate_wext->imbalance_cv >= moderate_ext->imbalance_cv) {
    std::fprintf(stderr,
                 "FAIL: [moderate] weighted extLARD did not shrink the normalized load "
                 "imbalance (cv %.3f vs %.3f)\n",
                 moderate_wext->imbalance_cv, moderate_ext->imbalance_cv);
    ++failures;
  }
  if (moderate_wext->metrics.throughput_rps < 0.9 * moderate_ext->metrics.throughput_rps) {
    std::fprintf(stderr,
                 "FAIL: [moderate] weighted extLARD gave up >10%% throughput "
                 "(%.0f vs %.0f req/s)\n",
                 moderate_wext->metrics.throughput_rps, moderate_ext->metrics.throughput_rps);
    ++failures;
  }
  // Saturated regime: capacity-blindness must cost real throughput, and the
  // weighted policy must win it back.
  if (saturated_wext->metrics.throughput_rps <= saturated_ext->metrics.throughput_rps) {
    std::fprintf(stderr,
                 "FAIL: [saturated] weighted extLARD did not beat unweighted "
                 "(%.0f vs %.0f req/s)\n",
                 saturated_wext->metrics.throughput_rps,
                 saturated_ext->metrics.throughput_rps);
    ++failures;
  }
  for (const RegimeResult& regime : regimes) {
    for (const RunRecord& record : regime.records) {
      if (record.metrics.total_requests != regime.records[0].metrics.total_requests) {
        std::fprintf(stderr,
                     "FAIL: [%s] policies served different request totals (%llu vs %llu)\n",
                     regime.name.c_str(),
                     static_cast<unsigned long long>(record.metrics.total_requests),
                     static_cast<unsigned long long>(regime.records[0].metrics.total_requests));
        ++failures;
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lard

int main(int argc, char** argv) { return lard::Main(argc, argv); }
