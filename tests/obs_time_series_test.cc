// TimeSeriesStore ring semantics (wrap, retention, NaN backfill, JSON,
// storage that grows with the rows), the window samplers that feed it, and
// the /proc readers behind the process gauges.
#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <dirent.h>
#endif

#include "src/obs/process_stats.h"
#include "src/obs/samplers.h"
#include "src/obs/time_series.h"
#include "src/util/metrics.h"

// Heap-allocation counter: this binary replaces malloc/calloc/realloc with
// forwarders to glibc's own allocator that count calls while armed, so a
// test can prove a code path never reaches the heap (C library internals
// such as opendir() and fopen() included). Sanitizer runtimes own malloc
// themselves, so sanitized builds leave the allocator alone and the test
// that needs the counter skips.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define LARD_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LARD_TEST_SANITIZED 1
#endif
#if defined(__GLIBC__) && defined(__linux__) && !defined(LARD_TEST_SANITIZED)
#define LARD_TEST_COUNTS_MALLOC 1
namespace {
std::atomic<bool> g_count_mallocs{false};
std::atomic<int> g_mallocs{0};
void NoteMalloc() {
  if (g_count_mallocs.load(std::memory_order_relaxed)) {
    g_mallocs.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace
extern "C" {
void* __libc_malloc(size_t size);
void* __libc_calloc(size_t count, size_t size);
void* __libc_realloc(void* ptr, size_t size);
void* malloc(size_t size) {
  NoteMalloc();
  return __libc_malloc(size);
}
void* calloc(size_t count, size_t size) {
  NoteMalloc();
  return __libc_calloc(count, size);
}
void* realloc(void* ptr, size_t size) {
  NoteMalloc();
  return __libc_realloc(ptr, size);
}
}  // extern "C"
#endif

namespace lard {
namespace {

TimeSeriesConfig SmallConfig(int capacity) {
  TimeSeriesConfig config;
  config.interval_ms = 100;
  config.capacity = capacity;
  return config;
}

TEST(TimeSeriesStoreTest, AddSeriesIsFindOrCreate) {
  TimeSeriesStore store(SmallConfig(4));
  const int a = store.AddSeries("rate");
  EXPECT_EQ(store.AddSeries("rate"), a);
  EXPECT_NE(store.AddSeries("other"), a);
}

TEST(TimeSeriesStoreTest, RingWrapKeepsNewestCapacitySamples) {
  TimeSeriesStore store(SmallConfig(3));
  const int series = store.AddSeries("v");
  for (int i = 0; i < 10; ++i) {
    store.Append(100 * (i + 1), {{series, static_cast<double>(i)}});
  }
  EXPECT_EQ(store.num_samples(), 3u);
  EXPECT_EQ(store.last_t_ms(), 1000);
  const auto points = store.Points("v", 0);
  ASSERT_EQ(points.size(), 3u);
  // Oldest first, and only the newest capacity samples survive the wrap.
  EXPECT_EQ(points[0].t_ms, 800);
  EXPECT_DOUBLE_EQ(points[0].value, 7.0);
  EXPECT_EQ(points[2].t_ms, 1000);
  EXPECT_DOUBLE_EQ(points[2].value, 9.0);
  EXPECT_DOUBLE_EQ(store.Latest("v"), 9.0);
}

TEST(TimeSeriesStoreTest, WindowRestrictsToNewestSamples) {
  TimeSeriesStore store(SmallConfig(10));
  const int series = store.AddSeries("v");
  for (int i = 0; i < 8; ++i) {
    store.Append(100 * (i + 1), {{series, static_cast<double>(i)}});
  }
  // Newest is t=800; a 250ms window keeps t in [550, 800].
  const auto points = store.Points("v", 250);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points.front().t_ms, 600);
  EXPECT_EQ(points.back().t_ms, 800);
}

TEST(TimeSeriesStoreTest, LateSeriesBackfillsNaNAndSparseAppendSkips) {
  TimeSeriesStore store(SmallConfig(8));
  const int a = store.AddSeries("a");
  store.Append(100, {{a, 1.0}});
  store.Append(200, {{a, 2.0}});
  const int b = store.AddSeries("b");  // late: slots at t=100/200 are NaN
  store.Append(300, {{a, 3.0}, {b, 30.0}});
  store.Append(400, {{b, 40.0}});  // sparse: "a" gets NaN this tick
  EXPECT_TRUE(store.Points("b", 0).size() == 2);
  EXPECT_DOUBLE_EQ(store.Points("b", 0).front().value, 30.0);
  // Points skips NaN slots; Latest skips the NaN at t=400.
  ASSERT_EQ(store.Points("a", 0).size(), 3u);
  EXPECT_DOUBLE_EQ(store.Latest("a"), 3.0);
  EXPECT_DOUBLE_EQ(store.Latest("b"), 40.0);
}

TEST(TimeSeriesStoreTest, LatestIsNaNWhenAbsentOrEmpty) {
  TimeSeriesStore store(SmallConfig(4));
  EXPECT_TRUE(std::isnan(store.Latest("missing")));
  store.AddSeries("empty");
  EXPECT_TRUE(std::isnan(store.Latest("empty")));
}

TEST(TimeSeriesStoreTest, RenderJsonFiltersAndNullsNaN) {
  TimeSeriesStore store(SmallConfig(4));
  const int rate = store.AddSeries("request_rate");
  store.AddSeries("open_conns");
  store.Append(100, {{rate, 5.0}});
  const std::string json = store.RenderJson("", 0);
  EXPECT_NE(json.find("\"interval_ms\":100"), std::string::npos);
  EXPECT_NE(json.find("\"request_rate\":[[100,5]]"), std::string::npos);
  // The un-appended series renders its slot as null, not NaN (invalid JSON).
  EXPECT_NE(json.find("\"open_conns\":[[100,null]]"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  // Metric filter is a substring match over series names.
  const std::string filtered = store.RenderJson("request", 0);
  EXPECT_NE(filtered.find("request_rate"), std::string::npos);
  EXPECT_EQ(filtered.find("open_conns"), std::string::npos);
}

TEST(CounterRateSamplerTest, RatesAndCounterResets) {
  CounterRateSampler sampler;
  // First sample: no baseline yet, the whole value counts over the window.
  EXPECT_DOUBLE_EQ(sampler.Sample(10, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(sampler.Sample(30, 2.0), 10.0);
  // Reset (restart): current < previous must not emit a negative rate — the
  // baseline restarts at zero so everything seen this window counts.
  EXPECT_DOUBLE_EQ(sampler.Sample(4, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(sampler.Sample(4, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(sampler.Sample(5, 0.0), 0.0);  // degenerate dt
}

TEST(HistogramWindowSamplerTest, QuantilesCoverOnlyTheWindow) {
  MetricsRegistry registry;
  MetricHistogram* histogram = registry.Histogram("lard_test_us");
  HistogramWindowSampler sampler;
  for (int i = 0; i < 100; ++i) {
    histogram->Observe(10.0);
  }
  auto window = sampler.Sample(*histogram);
  EXPECT_EQ(window.count, 100u);
  EXPECT_GE(window.p99, 10.0);
  EXPECT_LE(window.p99, 13.0);
  // Next window sees only the new (much larger) samples, not the cumulative
  // distribution — that is the whole point of the bucket-delta sampler.
  for (int i = 0; i < 50; ++i) {
    histogram->Observe(100000.0);
  }
  window = sampler.Sample(*histogram);
  EXPECT_EQ(window.count, 50u);
  EXPECT_GE(window.p50, 100000.0);
  // An idle tick is an empty window, all-zero quantiles.
  window = sampler.Sample(*histogram);
  EXPECT_EQ(window.count, 0u);
  EXPECT_DOUBLE_EQ(window.p99, 0.0);
}

TEST(ProcessStatsTest, ReadsLiveProcessAndPublishes) {
  const ProcessStats stats = ReadProcessStats();
  EXPECT_GT(stats.rss_bytes, 0u);
  EXPECT_GT(stats.open_fds, 0);
  EXPECT_GE(stats.uptime_seconds, 0.0);

  MetricsRegistry registry;
  ProcessMetrics metrics(&registry);
  metrics.Publish(stats);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("lard_build_info"), std::string::npos);
  EXPECT_NE(text.find("lard_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("lard_process_rss_bytes"), std::string::npos);
  EXPECT_NE(text.find("lard_process_open_fds"), std::string::npos);
}

TEST(ProcessStatsTest, OpenFdsMatchesProcSelfFdListing) {
  // std::filesystem lists /proc/self/fd through its own directory fd, and
  // the reader counts its own fd too, so the two agree up to one entry.
  const auto listed = []() {
    return static_cast<double>(std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                                             std::filesystem::directory_iterator()));
  };
  std::vector<int> fds;
  for (int i = 0; i < 200; ++i) {
    const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  const double open_with = ReadProcessStats().open_fds;
  EXPECT_NEAR(open_with, listed(), 1.0);
  for (const int fd : fds) {
    ::close(fd);
  }
  const double open_after = ReadProcessStats().open_fds;
  EXPECT_NEAR(open_after, listed(), 1.0);
  EXPECT_DOUBLE_EQ(open_with - open_after, 200.0);
}

TEST(ProcessStatsTest, ReadProcessStatsMakesNoHeapAllocation) {
#if !defined(LARD_TEST_COUNTS_MALLOC)
  GTEST_SKIP() << "malloc is not replaceable in this build (sanitizer or non-glibc)";
#else
  (void)ReadProcessStats();  // the first call anchors the uptime clock
  g_mallocs.store(0);
  g_count_mallocs.store(true);
  const ProcessStats stats = ReadProcessStats();
  g_count_mallocs.store(false);
  EXPECT_EQ(g_mallocs.load(), 0);
  EXPECT_GT(stats.rss_bytes, 0.0);
  EXPECT_GT(stats.open_fds, 0.0);

  // The counter sees allocations made inside the C library: opendir(), the
  // reader's former directory walk, allocates its DIR buffer.
  g_count_mallocs.store(true);
  DIR* dir = ::opendir("/proc/self/fd");
  g_count_mallocs.store(false);
  ASSERT_NE(dir, nullptr);
  ::closedir(dir);
  EXPECT_GT(g_mallocs.load(), 0);
#endif
}

// The store as it was before its rings grew on demand: every ring
// preallocated to `capacity` slots and NaN-filled up front. The randomized
// test below holds TimeSeriesStore to exactly this model's observable
// behaviour.
class PreallocatedRing {
 public:
  explicit PreallocatedRing(const TimeSeriesConfig& config)
      : interval_ms_(config.interval_ms),
        cap_(static_cast<size_t>(std::max(config.capacity, 1))),
        t_ring_(cap_, 0) {}

  int AddSeries(const std::string& name) {
    const auto it = index_.find(name);
    if (it != index_.end()) {
      return it->second;
    }
    const int idx = static_cast<int>(rings_.size());
    rings_.emplace_back(cap_, kNaN);
    index_[name] = idx;
    return idx;
  }

  void Append(int64_t t_ms, const std::vector<std::pair<int, double>>& values) {
    t_ring_[head_] = t_ms;
    for (std::vector<double>& ring : rings_) {
      ring[head_] = kNaN;
    }
    for (const auto& [idx, value] : values) {
      if (idx >= 0 && static_cast<size_t>(idx) < rings_.size()) {
        rings_[static_cast<size_t>(idx)][head_] = value;
      }
    }
    head_ = (head_ + 1) % cap_;
    count_ = std::min(count_ + 1, cap_);
  }

  std::vector<TimeSeriesStore::Point> Points(const std::string& name, int64_t window_ms) const {
    std::vector<TimeSeriesStore::Point> out;
    const auto it = index_.find(name);
    if (it == index_.end()) {
      return out;
    }
    for (size_t i = 0; i < count_; ++i) {
      const size_t slot = Slot(i);
      const double value = rings_[static_cast<size_t>(it->second)][slot];
      if (InWindow(slot, window_ms) && !std::isnan(value)) {
        out.push_back({t_ring_[slot], value});
      }
    }
    return out;
  }

  double Latest(const std::string& name) const {
    const auto it = index_.find(name);
    for (size_t i = count_; it != index_.end() && i > 0; --i) {
      const double value = rings_[static_cast<size_t>(it->second)][Slot(i - 1)];
      if (!std::isnan(value)) {
        return value;
      }
    }
    return kNaN;
  }

  std::vector<std::string> SeriesNames() const {
    std::vector<std::string> names;
    for (const auto& entry : index_) {
      names.push_back(entry.first);
    }
    return names;
  }

  int64_t last_t_ms() const { return count_ == 0 ? 0 : t_ring_[Slot(count_ - 1)]; }
  size_t num_samples() const { return count_; }

  std::string RenderJson(const std::string& filter, int64_t window_ms) const {
    std::string out = "{\"interval_ms\":" + std::to_string(interval_ms_) + ",\"series\":{";
    bool first_series = true;
    for (const auto& [name, idx] : index_) {
      if (!filter.empty() && name.find(filter) == std::string::npos) {
        continue;
      }
      out += std::string(first_series ? "" : ",") + "\"";
      for (const char c : name) {
        if (c == '"' || c == '\\') {
          out.push_back('\\');
        }
        out.push_back(c);
      }
      out += "\":[";
      first_series = false;
      bool first_point = true;
      for (size_t i = 0; i < count_; ++i) {
        const size_t slot = Slot(i);
        if (!InWindow(slot, window_ms)) {
          continue;
        }
        const double value = rings_[static_cast<size_t>(idx)][slot];
        char buf[64] = "null";
        if (!std::isnan(value)) {
          std::snprintf(buf, sizeof(buf), "%.6g", value);
        }
        out += std::string(first_point ? "" : ",") + "[" + std::to_string(t_ring_[slot]) + "," +
               buf + "]";
        first_point = false;
      }
      out += "]";
    }
    return out + "}}";
  }

 private:
  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  size_t Slot(size_t age) const { return (head_ + cap_ - count_ + age) % cap_; }
  bool InWindow(size_t slot, int64_t window_ms) const {
    return window_ms <= 0 || last_t_ms() - t_ring_[slot] <= window_ms;
  }

  int interval_ms_;
  size_t cap_;
  std::vector<int64_t> t_ring_;
  std::vector<std::vector<double>> rings_;
  std::map<std::string, int> index_;
  size_t head_ = 0;
  size_t count_ = 0;
};

void ExpectSamePoints(const std::vector<TimeSeriesStore::Point>& got,
                      const std::vector<TimeSeriesStore::Point>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t_ms, want[i].t_ms);
    EXPECT_EQ(got[i].value, want[i].value);
  }
}

TEST(TimeSeriesStoreTest, MatchesPreallocatedRingUnderRandomOperations) {
  const std::vector<std::string> names = {"a", "b", "rate_x", "rate_y", "q\"\\s", "zz"};
  const int64_t windows[] = {0, 150, 1000, 20000};
  for (const int capacity : {1, 2, 7, 300}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    std::mt19937 rng(static_cast<uint32_t>(capacity));
    const TimeSeriesConfig config = SmallConfig(capacity);
    TimeSeriesStore store(config);
    PreallocatedRing model(config);
    int64_t t_ms = 0;
    // Several wraps at every capacity, with series joining late throughout.
    const int appends = 3 * capacity + 40;
    for (int appended = 0; appended < appends;) {
      if (rng() % 6 == 0) {
        const std::string& name = names[rng() % names.size()];
        ASSERT_EQ(store.AddSeries(name), model.AddSeries(name));
      } else {
        std::vector<std::pair<int, double>> values;
        const int series = static_cast<int>(model.SeriesNames().size());
        for (int idx = -1; idx <= series + 1; ++idx) {
          if (rng() % 3 == 0) {  // sparse rows, plus out-of-range indices
            values.emplace_back(idx, static_cast<double>(rng() % 100000) / 8.0);
          }
        }
        t_ms += 1 + static_cast<int64_t>(rng() % 200);
        store.Append(t_ms, values);
        model.Append(t_ms, values);
        ++appended;
      }
      const int64_t window = windows[rng() % std::size(windows)];
      ASSERT_EQ(store.num_samples(), model.num_samples());
      ASSERT_EQ(store.last_t_ms(), model.last_t_ms());
      ASSERT_EQ(store.SeriesNames(), model.SeriesNames());
      for (const std::string& name : names) {
        ExpectSamePoints(store.Points(name, 0), model.Points(name, 0));
        ExpectSamePoints(store.Points(name, window), model.Points(name, window));
        const double latest = store.Latest(name);
        const double want = model.Latest(name);
        EXPECT_TRUE(std::isnan(want) ? std::isnan(latest) : latest == want) << name;
      }
      ASSERT_EQ(store.RenderJson("", 0), model.RenderJson("", 0));
      ASSERT_EQ(store.RenderJson("rate", window), model.RenderJson("rate", window));
    }
  }
}

TEST(TimeSeriesStoreTest, StorageGrowsWithRowsAndStopsAtCapacity) {
  constexpr int kCapacity = 300;
  constexpr size_t kRings = 17;  // the timestamp ring plus 16 series
  TimeSeriesStore store(SmallConfig(kCapacity));
  for (int i = 0; i < 16; ++i) {
    store.AddSeries("s" + std::to_string(i));
  }
  EXPECT_EQ(store.reserved_slots(), 0u);  // no row yet, no slot
  for (int k = 1; k <= kCapacity + 50; ++k) {
    store.Append(100 * k, {{k % 16, static_cast<double>(k)}});
    const size_t rows = static_cast<size_t>(std::min(k, kCapacity));
    ASSERT_EQ(store.num_samples(), rows);
    // Each ring holds its k rows; the reservation grows geometrically but
    // never past the capacity.
    ASSERT_GE(store.reserved_slots(), kRings * rows);
    ASSERT_LE(store.reserved_slots(),
              kRings * std::min<size_t>(kCapacity, std::max<size_t>(1, 2 * rows)));
  }
  EXPECT_EQ(store.reserved_slots(), kRings * kCapacity);  // no doubling overshoot

  // A series joining a full store backfills exactly capacity NaN slots.
  store.AddSeries("late");
  EXPECT_EQ(store.reserved_slots(), (kRings + 1) * kCapacity);
  EXPECT_TRUE(std::isnan(store.Latest("late")));
}

TEST(TimeSeriesStoreTest, LateSeriesBackfillsOnlyRecordedRows) {
  TimeSeriesStore store(SmallConfig(300));
  const int a = store.AddSeries("a");
  for (int i = 1; i <= 5; ++i) {
    store.Append(100 * i, {{a, 1.0}});
  }
  const size_t before = store.reserved_slots();
  const int b = store.AddSeries("b");
  EXPECT_EQ(store.reserved_slots(), before + 5);
  store.Append(600, {{b, 2.0}});
  const auto points = store.Points("b", 0);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].t_ms, 600);
  EXPECT_EQ(store.RenderJson("b", 0),
            "{\"interval_ms\":100,\"series\":{\"b\":[[100,null],[200,null],[300,null],"
            "[400,null],[500,null],[600,2]]}}");
}

}  // namespace
}  // namespace lard
