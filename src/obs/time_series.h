// Bounded time-series ring: the retention layer of the telemetry pipeline
// (docs/OBSERVABILITY.md, "Telemetry & health"). A front-end keeps one store
// for itself and one mirror per back-end, each holding ~5 minutes of periodic
// samples — counter rates, histogram window-quantiles and gauges — read by
// the admin plane.
//
// Storage follows the data: the timestamp ring and every series ring start
// empty and grow by one slot per Append until `capacity` (reserving
// geometrically, but never past `capacity`), then stay fixed and wrap, so a
// full store allocates nothing more. A late AddSeries backfills NaN for the
// rows recorded so far. Callers inject timestamps.
#ifndef SRC_OBS_TIME_SERIES_H_
#define SRC_OBS_TIME_SERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace lard {

struct TimeSeriesConfig {
  // Nominal sampling period; informational (rendered in JSON so consumers
  // can interpret gaps) — the store records whatever timestamps it is given.
  int interval_ms = 1000;
  // Ring capacity in samples; 300 x 1s = 5 minutes of retention.
  int capacity = 300;
};

class TimeSeriesStore {
 public:
  struct Point {
    int64_t t_ms = 0;
    double value = 0.0;
  };

  explicit TimeSeriesStore(const TimeSeriesConfig& config);

  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  // Find-or-create; returns the series index used with Append. A series
  // added after samples were recorded reads NaN ("no data") for the older
  // rows.
  int AddSeries(const std::string& name) LARD_EXCLUDES(mutex_);

  // Records one sampling tick: every series gets NaN for this slot, then the
  // (index, value) pairs overwrite their series. Out-of-range indices are
  // ignored. Allocation-free once the store holds `capacity` rows.
  void Append(int64_t t_ms, const std::vector<std::pair<int, double>>& values)
      LARD_EXCLUDES(mutex_);

  // Points for `name` no older than `window_ms` before the newest sample
  // (window_ms <= 0: full retention), oldest first. NaN slots are skipped.
  std::vector<Point> Points(const std::string& name, int64_t window_ms) const
      LARD_EXCLUDES(mutex_);
  // Newest non-NaN value of `name`; NaN when the series is absent or empty.
  double Latest(const std::string& name) const LARD_EXCLUDES(mutex_);

  std::vector<std::string> SeriesNames() const LARD_EXCLUDES(mutex_);
  int64_t last_t_ms() const LARD_EXCLUDES(mutex_);  // 0 when empty
  size_t num_samples() const LARD_EXCLUDES(mutex_);
  int interval_ms() const { return config_.interval_ms; }
  int capacity() const { return config_.capacity; }
  // Slots allocated across the timestamp ring and every series ring: what
  // the store holds in memory, as opposed to the rows it stores.
  size_t reserved_slots() const LARD_EXCLUDES(mutex_);

  // {"interval_ms":N,"series":{"name":[[t,v],...]}} — series whose name
  // contains `metric_filter` (empty: all), samples within `window_ms` of the
  // newest (<= 0: all). NaN samples render as null. Deterministic: series
  // sorted by name, samples oldest first.
  std::string RenderJson(const std::string& metric_filter, int64_t window_ms) const
      LARD_EXCLUDES(mutex_);

 private:
  struct Series {
    std::string name;
    std::vector<double> ring;  // one slot per stored row, NaN = no sample
  };

  // Slot of the i-th oldest stored row. Requires i < t_ring_.size().
  size_t SlotForAge(size_t i) const LARD_REQUIRES(mutex_);

  const TimeSeriesConfig config_;
  mutable Mutex mutex_;
  std::vector<Series> series_ LARD_GUARDED_BY(mutex_);
  std::map<std::string, int> index_ LARD_GUARDED_BY(mutex_);
  // One timestamp per stored row; its size is the row count (<= capacity).
  std::vector<int64_t> t_ring_ LARD_GUARDED_BY(mutex_);
  size_t head_ LARD_GUARDED_BY(mutex_) = 0;  // next slot to write
};

}  // namespace lard

#endif  // SRC_OBS_TIME_SERIES_H_
