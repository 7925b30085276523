// Streaming statistics and histograms used by the simulator, the prototype
// load generator and the benchmark harnesses.
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace lard {

// Count / mean / min / max without storing samples (Welford's running mean).
class StreamingStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Merges another accumulator into this one (parallel reduction).
  void Merge(const StreamingStats& other);

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exact percentiles over stored samples. Suitable for the volumes produced by
// our benches (<= a few million doubles).
class PercentileTracker {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  // p in [0, 100]. Returns 0 when empty. Sorts lazily (amortized).
  double Percentile(double p) const;
  size_t count() const { return samples_.size(); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Log2-bucketed histogram for long-tailed quantities (sizes, latencies).
// Bucket i covers [2^i, 2^(i+1)).
class LogHistogram {
 public:
  void Add(uint64_t value);

  uint64_t total_count() const { return total_; }
  // Renders "  [4096,8192): ###### 1234" style lines.
  std::string ToString() const;

 private:
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(64, 0);
  uint64_t total_ = 0;
};

}  // namespace lard

#endif  // SRC_UTIL_STATS_H_
