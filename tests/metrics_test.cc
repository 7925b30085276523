#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "src/util/metrics.h"

namespace lard {
namespace {

TEST(MetricsTest, CounterFindOrCreateIsStable) {
  MetricsRegistry registry;
  MetricCounter* counter = registry.Counter("lard_test_total");
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(registry.Counter("lard_test_total"), counter);
  EXPECT_EQ(counter->value(), 42u);
}

TEST(MetricsTest, GaugeSetsAndOverwrites) {
  MetricsRegistry registry;
  MetricGauge* gauge = registry.Gauge("lard_test_load");
  gauge->Set(3.5);
  gauge->Set(-1.25);
  EXPECT_DOUBLE_EQ(registry.Gauge("lard_test_load")->value(), -1.25);
}

TEST(MetricsTest, WithNodeFormatsLabel) {
  EXPECT_EQ(MetricsRegistry::WithNode("lard_node_load", 7), "lard_node_load{node=\"7\"}");
}

TEST(MetricsTest, HistogramPercentilesBracketTheData) {
  MetricsRegistry registry;
  MetricHistogram* histogram = registry.Histogram("lard_test_us");
  // 900 samples near 100, 100 samples near 100000: p50 must bracket 100, p99
  // must bracket 100000. Log-linear buckets (4 sub-buckets per octave) give
  // upper bounds within +25% of the sample, not the old factor of 2.
  for (int i = 0; i < 900; ++i) {
    histogram->Observe(100.0);
  }
  for (int i = 0; i < 100; ++i) {
    histogram->Observe(100000.0);
  }
  EXPECT_EQ(histogram->count(), 1000u);
  EXPECT_NEAR(histogram->sum(), 900 * 100.0 + 100 * 100000.0, 1.0);
  const double p50 = histogram->Percentile(50);
  EXPECT_GE(p50, 100.0);
  EXPECT_LE(p50, 125.0);  // 100 lands in [96, 112): upper bound 112
  const double p99 = histogram->Percentile(99);
  EXPECT_GE(p99, 100000.0);
  EXPECT_LE(p99, 125000.0);  // 100000 lands in [98304, 114688): bound 114688
  // Percentiles are monotone in p.
  EXPECT_LE(histogram->Percentile(10), histogram->Percentile(90));
}

TEST(MetricsTest, HistogramHandlesEdgeSamples) {
  MetricHistogram histogram;
  histogram.Observe(0.0);
  histogram.Observe(-5.0);
  histogram.Observe(0.25);
  histogram.Observe(std::nan(""));
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_GT(histogram.Percentile(100), 0.0);  // everything landed in bucket 0
  EXPECT_LE(histogram.Percentile(100), 1.25);
}

TEST(MetricsTest, LogLinearBucketsAreTight) {
  // Every percentile upper bound is within +25% of the observed value, and
  // bucket bounds are strictly increasing across the whole range.
  for (const double value : {1.0, 3.0, 10.0, 100.0, 999.0, 4096.0, 1e6, 3.7e9}) {
    MetricHistogram histogram;
    histogram.Observe(value);
    const double p100 = histogram.Percentile(100);
    EXPECT_GE(p100, value) << value;
    EXPECT_LE(p100, value * 1.25 + 1e-9) << value;
  }
  for (int i = 1; i < MetricHistogram::kBuckets; ++i) {
    EXPECT_LT(MetricHistogram::BucketUpperBound(i - 1), MetricHistogram::BucketUpperBound(i));
  }
}

// The log2/exp2 bucketing the histogram used before it read the bucket off a
// sample's bits, kept as the reference the exact version must agree with.
int ReferenceBucket(double value) {
  if (!(value >= 1.0)) {
    return 0;
  }
  int octave = static_cast<int>(std::log2(value));
  double frac = value / std::exp2(octave);
  if (frac >= 2.0) {
    ++octave;
    frac = 1.0;
  }
  const int sub = std::min(static_cast<int>((frac - 1.0) * MetricHistogram::kSubBuckets),
                           MetricHistogram::kSubBuckets - 1);
  return std::min(octave * MetricHistogram::kSubBuckets + sub, MetricHistogram::kBuckets - 1);
}

double ReferenceUpperBound(int index) {
  const int octave = index / MetricHistogram::kSubBuckets;
  const int sub = index % MetricHistogram::kSubBuckets;
  return std::exp2(octave) * (1.0 + static_cast<double>(sub + 1) / MetricHistogram::kSubBuckets);
}

// The upper bound of the bucket `value` lands in: a one-sample histogram's
// Percentile(100).
double UpperBoundOf(double value) {
  MetricHistogram histogram;
  histogram.Observe(value);
  return histogram.Percentile(100);
}

TEST(MetricsTest, BucketUpperBoundsMatchTheReference) {
  for (int i = 0; i < MetricHistogram::kBuckets; ++i) {
    EXPECT_EQ(MetricHistogram::BucketUpperBound(i), ReferenceUpperBound(i)) << i;
  }
}

TEST(MetricsTest, IntegerSamplesLandInTheReferenceBuckets) {
  // Every integer in [0, 2^24], observed in ascending order into one
  // histogram. After each sample Percentile(100) is the upper bound of the
  // highest bucket seen so far, and it must be the reference bucket of that
  // sample: so no sample lands above its reference bucket. The bucket
  // counts at the end must equal the reference counts: so none lands below.
  constexpr int64_t kLast = int64_t{1} << 24;
  MetricHistogram histogram;
  std::vector<uint64_t> reference_counts(MetricHistogram::kBuckets, 0);
  int64_t mismatches = 0;
  int64_t first_mismatch = -1;
  for (int64_t v = 0; v <= kLast; ++v) {
    const auto value = static_cast<double>(v);
    const int reference = ReferenceBucket(value);
    ++reference_counts[static_cast<size_t>(reference)];
    histogram.Observe(value);
    if (histogram.Percentile(100) != MetricHistogram::BucketUpperBound(reference) &&
        mismatches++ == 0) {
      first_mismatch = v;
    }
  }
  EXPECT_EQ(mismatches, 0) << "first at " << first_mismatch;
  std::vector<uint64_t> counts(MetricHistogram::kBuckets, 0);
  histogram.SnapshotBuckets(counts.data());
  EXPECT_EQ(counts, reference_counts);
}

TEST(MetricsTest, BucketBoundariesAreExact) {
  // A bucket's upper bound is exclusive: the largest double below it stays in
  // the bucket, the bound itself opens the next one. The log2 version put
  // 2^k - ulp one bucket high.
  for (int i = 0; i + 1 < MetricHistogram::kBuckets; ++i) {
    const double bound = MetricHistogram::BucketUpperBound(i);
    EXPECT_EQ(UpperBoundOf(std::nextafter(bound, 0.0)), bound) << "bucket " << i;
    EXPECT_EQ(UpperBoundOf(bound), MetricHistogram::BucketUpperBound(i + 1)) << "bucket " << i;
  }
  // Past the last octave everything is clamped into the last bucket.
  const double last = MetricHistogram::BucketUpperBound(MetricHistogram::kBuckets - 1);
  EXPECT_EQ(UpperBoundOf(last), last);
  EXPECT_EQ(UpperBoundOf(1e300), last);
  EXPECT_EQ(UpperBoundOf(std::numeric_limits<double>::infinity()), last);
}

TEST(MetricsTest, ConcurrentPublishFromManyThreads) {
  // The dispatcher thread, N back-end threads and the admin renderer all hit
  // the registry at once; counts must not be lost and rendering must not
  // crash mid-publish.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      MetricCounter* counter = registry.Counter("lard_concurrent_total");
      MetricHistogram* histogram = registry.Histogram("lard_concurrent_us");
      for (int i = 0; i < kIncrements; ++i) {
        counter->Increment();
        histogram->Observe(static_cast<double>(i % 1024));
        if (i % 4096 == 0) {
          (void)registry.RenderText();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.Counter("lard_concurrent_total")->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(registry.Histogram("lard_concurrent_us")->count(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, RenderTextContainsAllInstruments) {
  MetricsRegistry registry;
  registry.Counter("b_counter")->Increment(5);
  registry.Gauge("a_gauge")->Set(1.5);
  registry.Histogram("c_hist")->Observe(10.0);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("b_counter 5\n"), std::string::npos);
  EXPECT_NE(text.find("a_gauge 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("c_hist_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("c_hist_sum 10\n"), std::string::npos);
  EXPECT_NE(text.find("c_hist{quantile=\"0.99\"}"), std::string::npos);
  // Prometheus metadata so real scrapers ingest the exposition cleanly.
  EXPECT_NE(text.find("# TYPE b_counter counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE a_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE c_hist summary\n"), std::string::npos);
}

TEST(MetricsTest, RenderTextStripsLabelsFromTypeLinesAndQuantiles) {
  MetricsRegistry registry;
  registry.Counter(MetricsRegistry::WithNode("lard_x_total", 0))->Increment();
  registry.Counter(MetricsRegistry::WithNode("lard_x_total", 1))->Increment();
  registry.Histogram(MetricsRegistry::WithFe("lard_y_us", 2))->Observe(5.0);
  const std::string text = registry.RenderText();
  // One TYPE line for the family, not one per labeled variant.
  const size_t first = text.find("# TYPE lard_x_total counter\n");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE lard_x_total counter\n", first + 1), std::string::npos);
  // Quantile labels merge into the existing label block.
  EXPECT_NE(text.find("lard_y_us{fe=\"2\",quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("lard_y_us_count{fe=\"2\"} 1\n"), std::string::npos);
}

TEST(MetricsTest, RenderJsonIsWellFormedEnough) {
  MetricsRegistry registry;
  registry.Counter(MetricsRegistry::WithNode("lard_backend_requests_total", 3))->Increment(9);
  registry.Gauge("lard_cluster_active_nodes")->Set(4);
  registry.Histogram("lard_sim_batch_latency_us")->Observe(123.0);
  const std::string json = registry.RenderJson();
  // Label quotes must be escaped inside the JSON key.
  EXPECT_NE(json.find("\"lard_backend_requests_total{node=\\\"3\\\"}\":9"), std::string::npos);
  EXPECT_NE(json.find("\"lard_cluster_active_nodes\":4"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace lard
