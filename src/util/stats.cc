#include "src/util/stats.h"

#include <algorithm>
#include <cstdio>

namespace lard {

void StreamingStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const int64_t n = count_ + other.count_;
  mean_ = (mean_ * static_cast<double>(count_) + other.mean_ * static_cast<double>(other.count_)) /
          static_cast<double>(n);
  count_ = n;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double PercentileTracker::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (p <= 0.0) {
    return samples_.front();
  }
  if (p >= 100.0) {
    return samples_.back();
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) {
    return samples_.back();
  }
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

void LogHistogram::Add(uint64_t value) {
  int bucket = 0;
  while (value >= 2 && bucket < 63) {
    value >>= 1;
    ++bucket;
  }
  ++buckets_[static_cast<size_t>(bucket)];
  ++total_;
}

std::string LogHistogram::ToString() const {
  std::string out;
  if (total_ == 0) {
    return "(empty)\n";
  }
  uint64_t max_count = 0;
  size_t hi = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    max_count = std::max(max_count, buckets_[i]);
    if (buckets_[i] > 0) {
      hi = i;
    }
  }
  for (size_t i = 0; i <= hi; ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const uint64_t lo_edge = i == 0 ? 0 : (1ULL << i);
    const uint64_t hi_edge = 1ULL << (i + 1);
    const int bar = static_cast<int>(40.0 * static_cast<double>(buckets_[i]) /
                                     static_cast<double>(max_count));
    char line[128];
    std::snprintf(line, sizeof(line), "  [%10llu,%10llu): %-40.*s %llu\n",
                  static_cast<unsigned long long>(lo_edge),
                  static_cast<unsigned long long>(hi_edge), bar,
                  "########################################",
                  static_cast<unsigned long long>(buckets_[i]));
    out += line;
  }
  return out;
}

}  // namespace lard
