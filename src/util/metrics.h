// Cluster-wide metrics registry: named counters, gauges and latency
// histograms that the dispatcher, front-end and back-ends publish into, and
// that the admin server renders over HTTP (GET /metrics).
//
// Publishing is lock-free after the first lookup: instruments are atomics
// with stable addresses (callers cache the pointer), so the prototype's hot
// paths (event-loop threads) pay one relaxed atomic op per update. Lookup and
// rendering take the registry mutex; rendering sees a consistent-enough
// snapshot for monitoring (per-instrument atomicity, no cross-instrument
// barrier — the usual monitoring contract).
#ifndef SRC_UTIL_METRICS_H_
#define SRC_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace lard {

// Monotonic event count.
class MetricCounter {
 public:
  void Increment(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  // The count itself, for a component's counter view (FrontEndCounters,
  // BackendCounters) that updates and reads it in place.
  std::atomic<uint64_t>& cell() { return value_; }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time value (load, queue length, node count).
class MetricGauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log-linear latency/size histogram with atomic buckets: each power-of-two
// octave [2^o, 2^(o+1)) is split into kSubBuckets equal-width sub-buckets, so
// percentile upper bounds are within +25% of the true value (vs the
// factor-of-2 error of pure log2 buckets). Bucket 0 additionally holds
// samples < 1. Storage stays a fixed array of atomics; Observe is still one
// relaxed fetch_add per sample.
class MetricHistogram {
 public:
  static constexpr int kSubBuckets = 4;   // per octave
  static constexpr int kOctaves = 64;
  static constexpr int kBuckets = kOctaves * kSubBuckets;

  // Exclusive upper bound of bucket `index` in [0, kBuckets):
  // 2^o * (1 + (s+1)/kSubBuckets).
  static double BucketUpperBound(int index);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // p in [0, 100]; returns the upper bound of the smallest bucket prefix
  // covering p% of the samples. 0 when empty.
  double Percentile(double p) const;
  // Copies the cumulative bucket counts into `out[kBuckets]` (relaxed loads,
  // the usual monitoring consistency). Telemetry samplers diff consecutive
  // snapshots to get window quantiles.
  void SnapshotBuckets(uint64_t out[kBuckets]) const {
    for (int i = 0; i < kBuckets; ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. The returned pointer is stable for the registry's
  // lifetime; callers on hot paths should look up once and cache it.
  // Metric names use prometheus conventions ("lard_requests_total");
  // per-node instruments append a label ("...{node=\"3\"}" via WithNode).
  MetricCounter* Counter(std::string name);
  MetricGauge* Gauge(std::string name);
  MetricHistogram* Histogram(std::string name);

  // "name{node=\"7\"}" — the per-back-end label family.
  static std::string WithNode(std::string_view name, int32_t node);
  // "name{fe=\"1\"}" — the per-front-end label family (replicated FE tier).
  static std::string WithFe(std::string_view name, int32_t fe);

  // Prometheus text exposition: "# TYPE" lines per metric family, one
  // "name value" line per counter/gauge, histograms rendered as summaries —
  // quantile lines under the canonical name plus _count/_sum. Sorted by name.
  std::string RenderText() const;
  // The same data as a JSON object {"counters":{...},"gauges":{...},
  // "histograms":{"name":{"count":..,"sum":..,"p50":..,"p90":..,"p99":..}}}.
  std::string RenderJson() const;

 private:
  mutable Mutex mutex_;
  // Node-stable containers holding the instruments in place: instruments
  // never move once created, so the returned instrument pointers are used
  // lock-free (they are atomics); only the maps themselves are guarded.
  std::map<std::string, MetricCounter> counters_ LARD_GUARDED_BY(mutex_);
  std::map<std::string, MetricGauge> gauges_ LARD_GUARDED_BY(mutex_);
  std::map<std::string, MetricHistogram> histograms_ LARD_GUARDED_BY(mutex_);
};

// The registry a component keeps all its counts in: `shared` when set, else
// a private one created into *owned.
inline MetricsRegistry* WithRegistry(MetricsRegistry* shared,
                                     std::unique_ptr<MetricsRegistry>* owned) {
  if (shared == nullptr) {
    *owned = std::make_unique<MetricsRegistry>();
    return owned->get();
  }
  return shared;
}

}  // namespace lard

#endif  // SRC_UTIL_METRICS_H_
