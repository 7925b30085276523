// Process-level observability: build info, uptime, RSS and open-fd gauges.
// Reads /proc/self (Linux); on platforms without procfs the gauges stay 0.
#ifndef SRC_OBS_PROCESS_STATS_H_
#define SRC_OBS_PROCESS_STATS_H_

#include "src/util/metrics.h"

namespace lard {

struct ProcessStats {
  double rss_bytes = 0.0;
  double open_fds = 0.0;
  double uptime_seconds = 0.0;
};

// Snapshot of the current process (uptime is measured from the first call).
// Two /proc reads into stack buffers; no heap allocation.
ProcessStats ReadProcessStats();

// The process gauges of one registry, looked up once. Construction registers
// lard_build_info{version=..,compiler=..,sanitizer=..} = 1 (static) plus
// lard_process_uptime_seconds / lard_process_rss_bytes /
// lard_process_open_fds; Publish refreshes the latter three (e.g. from a
// /metrics pre-render hook or a telemetry tick). Several instances may share
// one registry.
class ProcessMetrics {
 public:
  explicit ProcessMetrics(MetricsRegistry* registry);

  void Publish(const ProcessStats& stats);

 private:
  MetricGauge* uptime_seconds_;
  MetricGauge* rss_bytes_;
  MetricGauge* open_fds_;
};

// "clang 17.0.6" / "gcc 13.2.0" — the toolchain that built this binary.
const char* BuildCompiler();
// "address" / "thread" / "none".
const char* BuildSanitizer();

}  // namespace lard

#endif  // SRC_OBS_PROCESS_STATS_H_
