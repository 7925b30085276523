#include "src/obs/time_series.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace lard {
namespace {

constexpr double kNoSample = std::numeric_limits<double>::quiet_NaN();

// Writes `value` into `slot` of a ring that grows one row per Append: a slot
// past the end appends (doubling the reservation, clamped to `cap` so a full
// ring holds exactly `cap` slots), any other slot is overwritten in place.
template <typename T>
void Put(std::vector<T>* ring, size_t slot, T value, size_t cap) {
  if (slot < ring->size()) {
    (*ring)[slot] = value;
    return;
  }
  if (ring->size() == ring->capacity()) {
    ring->reserve(std::min(cap, std::max<size_t>(1, 2 * ring->size())));
  }
  ring->push_back(value);
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string FormatValue(double value) {
  if (std::isnan(value)) {
    return "null";  // NaN is not valid JSON
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(const TimeSeriesConfig& config)
    : config_{config.interval_ms, std::max(config.capacity, 1)} {}

int TimeSeriesStore::AddSeries(const std::string& name) {
  MutexLock lock(&mutex_);
  const auto it = index_.find(name);
  if (it != index_.end()) {
    return it->second;
  }
  const int idx = static_cast<int>(series_.size());
  series_.push_back(Series{name, std::vector<double>(t_ring_.size(), kNoSample)});
  index_[name] = idx;
  return idx;
}

void TimeSeriesStore::Append(int64_t t_ms, const std::vector<std::pair<int, double>>& values) {
  MutexLock lock(&mutex_);
  const size_t cap = static_cast<size_t>(config_.capacity);
  const size_t slot = head_;
  Put(&t_ring_, slot, t_ms, cap);
  for (Series& series : series_) {
    Put(&series.ring, slot, kNoSample, cap);
  }
  for (const auto& [idx, value] : values) {
    if (idx >= 0 && static_cast<size_t>(idx) < series_.size()) {
      series_[static_cast<size_t>(idx)].ring[slot] = value;
    }
  }
  head_ = (head_ + 1) % cap;
}

size_t TimeSeriesStore::SlotForAge(size_t i) const {
  const size_t cap = static_cast<size_t>(config_.capacity);
  // head_ is one past the newest row; the oldest lives size() slots back.
  return (head_ + cap - t_ring_.size() + i) % cap;
}

std::vector<TimeSeriesStore::Point> TimeSeriesStore::Points(const std::string& name,
                                                            int64_t window_ms) const {
  MutexLock lock(&mutex_);
  std::vector<Point> out;
  const auto it = index_.find(name);
  const size_t rows = t_ring_.size();
  if (it == index_.end() || rows == 0) {
    return out;
  }
  const Series& series = series_[static_cast<size_t>(it->second)];
  const int64_t newest = t_ring_[SlotForAge(rows - 1)];
  for (size_t i = 0; i < rows; ++i) {
    const size_t slot = SlotForAge(i);
    if (window_ms > 0 && newest - t_ring_[slot] > window_ms) {
      continue;
    }
    if (std::isnan(series.ring[slot])) {
      continue;
    }
    out.push_back(Point{t_ring_[slot], series.ring[slot]});
  }
  return out;
}

double TimeSeriesStore::Latest(const std::string& name) const {
  MutexLock lock(&mutex_);
  const auto it = index_.find(name);
  if (it == index_.end()) {
    return kNoSample;
  }
  const Series& series = series_[static_cast<size_t>(it->second)];
  for (size_t i = t_ring_.size(); i > 0; --i) {
    const double value = series.ring[SlotForAge(i - 1)];
    if (!std::isnan(value)) {
      return value;
    }
  }
  return kNoSample;
}

std::vector<std::string> TimeSeriesStore::SeriesNames() const {
  MutexLock lock(&mutex_);
  std::vector<std::string> names;
  names.reserve(index_.size());
  for (const auto& [name, idx] : index_) {
    (void)idx;
    names.push_back(name);
  }
  return names;
}

int64_t TimeSeriesStore::last_t_ms() const {
  MutexLock lock(&mutex_);
  return t_ring_.empty() ? 0 : t_ring_[SlotForAge(t_ring_.size() - 1)];
}

size_t TimeSeriesStore::num_samples() const {
  MutexLock lock(&mutex_);
  return t_ring_.size();
}

size_t TimeSeriesStore::reserved_slots() const {
  MutexLock lock(&mutex_);
  size_t slots = t_ring_.capacity();
  for (const Series& series : series_) {
    slots += series.ring.capacity();
  }
  return slots;
}

std::string TimeSeriesStore::RenderJson(const std::string& metric_filter,
                                        int64_t window_ms) const {
  MutexLock lock(&mutex_);
  std::ostringstream out;
  out << "{\"interval_ms\":" << config_.interval_ms << ",\"series\":{";
  const size_t rows = t_ring_.size();
  const int64_t newest = rows == 0 ? 0 : t_ring_[SlotForAge(rows - 1)];
  bool first_series = true;
  for (const auto& [name, idx] : index_) {  // map order: sorted, deterministic
    if (!metric_filter.empty() && name.find(metric_filter) == std::string::npos) {
      continue;
    }
    out << (first_series ? "" : ",") << JsonQuote(name) << ":[";
    first_series = false;
    const Series& series = series_[static_cast<size_t>(idx)];
    bool first_point = true;
    for (size_t i = 0; i < rows; ++i) {
      const size_t slot = SlotForAge(i);
      if (window_ms > 0 && newest - t_ring_[slot] > window_ms) {
        continue;
      }
      out << (first_point ? "" : ",") << "[" << t_ring_[slot] << ","
          << FormatValue(series.ring[slot]) << "]";
      first_point = false;
    }
    out << "]";
  }
  out << "}}";
  return out.str();
}

}  // namespace lard
