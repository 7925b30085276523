#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/table.h"

namespace lard {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad flag");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad flag");
}

TEST(StatusTest, StatusOrHoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(StatusTest, StatusOrHoldsError) {
  StatusOr<int> result = NotFoundError("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kUnavailable, StatusCode::kInternal, StatusCode::kIoError}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

// --- Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextUint64() == b.NextUint64() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t x = rng.NextBelow(7);
    EXPECT_LT(x, 7u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);  // every residue appears
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(4.0);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, GeometricMeanConverges) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.NextGeometric(0.25));
  }
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum_squares = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_squares += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(sum_squares / n - mean * mean), 1.0, 0.02);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.NextPareto(100.0, 1.5), 100.0);
  }
}

TEST(ZipfTest, RankOneMostPopular) {
  Rng rng(21);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
  // Rank-0 frequency should approximate 1/H_100 ~ 0.192.
  EXPECT_NEAR(counts[0] / 100000.0, 0.192, 0.02);
}

TEST(ZipfTest, AlphaZeroIsUniform) {
  Rng rng(23);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  for (int count : counts) {
    EXPECT_NEAR(count / 100000.0, 0.1, 0.01);
  }
}

// --- StreamingStats / percentiles / histogram ---

TEST(StreamingStatsTest, BasicMoments) {
  StreamingStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    stats.Add(v);
  }
  EXPECT_EQ(stats.count(), 4);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
}

TEST(StreamingStatsTest, MergeMatchesSequential) {
  StreamingStats all, left, right;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble() * 10;
    all.Add(v);
    (i % 2 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
}

TEST(PercentileTest, ExactQuartiles) {
  PercentileTracker tracker;
  for (int i = 100; i >= 1; --i) {
    tracker.Add(i);
  }
  EXPECT_DOUBLE_EQ(tracker.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(tracker.Percentile(100), 100.0);
  EXPECT_NEAR(tracker.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(tracker.Percentile(95), 95.05, 0.1);
}

TEST(PercentileTest, AddAfterQueryResorts) {
  PercentileTracker tracker;
  tracker.Add(1.0);
  EXPECT_DOUBLE_EQ(tracker.Percentile(50), 1.0);
  tracker.Add(3.0);
  tracker.Add(2.0);
  EXPECT_DOUBLE_EQ(tracker.Percentile(100), 3.0);
}

TEST(LogHistogramTest, CountsAndRenders) {
  LogHistogram histogram;
  for (int i = 0; i < 100; ++i) {
    histogram.Add(1000);  // bucket [512, 1024)
  }
  histogram.Add(1 << 20);
  EXPECT_EQ(histogram.total_count(), 101u);
  EXPECT_FALSE(histogram.ToString().empty());
}

// --- Table ---

TEST(TableTest, RendersAlignedAndCsv) {
  Table table({"name", "value"});
  table.Row().Cell("alpha").Cell(int64_t{42});
  table.Row().Cell("b").Cell(3.14159, 2);
  const std::string text = table.ToString();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_EQ(table.ToCsv(), "name,value\nalpha,42\nb,3.14\n");
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 3), "1.235");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

// --- Flags ---

TEST(FlagsTest, ParsesAllTypes) {
  FlagSet flags("test");
  int64_t nodes = 1;
  double scale = 1.0;
  std::string name = "x";
  bool verbose = false;
  flags.AddInt("nodes", &nodes, "");
  flags.AddDouble("scale", &scale, "");
  flags.AddString("name", &name, "");
  flags.AddBool("verbose", &verbose, "");

  const char* argv[] = {"prog", "--nodes=8", "--scale", "0.5", "--name=rice", "--verbose=true"};
  flags.Parse(6, const_cast<char**>(argv));
  EXPECT_EQ(nodes, 8);
  EXPECT_DOUBLE_EQ(scale, 0.5);
  EXPECT_EQ(name, "rice");
  EXPECT_TRUE(verbose);
}

TEST(FlagsTest, UsageListsDefaults) {
  FlagSet flags("prog");
  int64_t n = 7;
  flags.AddInt("n", &n, "node count");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("7"), std::string::npos);
  EXPECT_NE(usage.find("node count"), std::string::npos);
}

}  // namespace
}  // namespace lard
