#include "src/util/metrics.h"

#include <cstdio>
#include <cstring>
#include <sstream>

namespace lard {
namespace {

// The bucket is read off the sample's IEEE-754 bits: the octave is the
// unbiased exponent and the sub-bucket the top two mantissa bits. Integer
// arithmetic keeps libm off the serve path, and a sample just below a power
// of two stays in its own octave.
int BucketFor(double value) {
  static_assert(MetricHistogram::kSubBuckets == 4, "sub-bucket = top 2 mantissa bits");
  if (!(value >= 1.0)) {
    return 0;  // negatives, NaN and sub-unit samples land in bucket 0
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  const int octave = static_cast<int>(bits >> 52) - 1023;  // sign bit is 0 here
  const int sub = static_cast<int>((bits >> 50) & 3);
  const int bucket = octave * MetricHistogram::kSubBuckets + sub;
  return bucket >= MetricHistogram::kBuckets ? MetricHistogram::kBuckets - 1 : bucket;
}

// Splits "name{label=\"x\"}" into the canonical family name and the label
// block (empty when unlabeled) — Prometheus # TYPE lines and quantile labels
// need the bare family name.
void SplitName(const std::string& name, std::string* base, std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
  } else {
    *base = name.substr(0, brace);
    *labels = name.substr(brace);
  }
}

// "name{key=\"value\"}", built in one allocation.
std::string WithLabel(std::string_view name, std::string_view key, int32_t value) {
  const std::string digits = std::to_string(value);
  std::string out;
  out.reserve(name.size() + key.size() + digits.size() + 5);
  out.append(name).append("{").append(key).append("=\"").append(digits).append("\"}");
  return out;
}

// Appends one label to an existing (possibly empty) label block.
std::string WithExtraLabel(const std::string& labels, const std::string& extra) {
  if (labels.empty()) {
    return "{" + extra + "}";
  }
  return labels.substr(0, labels.size() - 1) + "," + extra + "}";
}

std::string FormatDouble(double value) {
  char buf[64];
  // %.17g round-trips but is noisy; %.6g is plenty for monitoring output.
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

// JSON string escaping for metric names (quotes appear in label syntax).
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

}  // namespace

void MetricHistogram::Observe(double value) {
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // C++17 has no atomic<double>::fetch_add; CAS-loop the sum.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value, std::memory_order_relaxed)) {
  }
}

double MetricHistogram::BucketUpperBound(int index) {
  const int octave = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  return static_cast<double>(uint64_t{1} << octave) *
         (1.0 + static_cast<double>(sub + 1) / kSubBuckets);
}

double MetricHistogram::Percentile(double p) const {
  const uint64_t total = count();
  if (total == 0) {
    return 0.0;
  }
  const double target = static_cast<double>(total) * p / 100.0;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (static_cast<double>(seen) >= target) {
      return BucketUpperBound(i);
    }
  }
  return BucketUpperBound(kBuckets - 1);
}

MetricCounter* MetricsRegistry::Counter(std::string name) {
  MutexLock lock(&mutex_);
  return &counters_.try_emplace(std::move(name)).first->second;
}

MetricGauge* MetricsRegistry::Gauge(std::string name) {
  MutexLock lock(&mutex_);
  return &gauges_.try_emplace(std::move(name)).first->second;
}

MetricHistogram* MetricsRegistry::Histogram(std::string name) {
  MutexLock lock(&mutex_);
  return &histograms_.try_emplace(std::move(name)).first->second;
}

std::string MetricsRegistry::WithNode(std::string_view name, int32_t node) {
  return WithLabel(name, "node", node);
}

std::string MetricsRegistry::WithFe(std::string_view name, int32_t fe) {
  return WithLabel(name, "fe", fe);
}

std::string MetricsRegistry::RenderText() const {
  MutexLock lock(&mutex_);
  std::ostringstream out;
  std::string base;
  std::string labels;
  // Group by family so exactly one # TYPE line precedes each family's
  // samples. Name order alone is not enough: '{' sorts after '_', so
  // "a{...}" lands after "a_b" and a last-family check would re-emit
  // "# TYPE a" — invalid exposition format.
  std::map<std::string, std::string> families;
  for (const auto& [name, counter] : counters_) {
    SplitName(name, &base, &labels);
    families[base] += name + " " + std::to_string(counter.value()) + "\n";
  }
  for (const auto& [family, body] : families) {
    out << "# TYPE " << family << " counter\n" << body;
  }
  families.clear();
  for (const auto& [name, gauge] : gauges_) {
    SplitName(name, &base, &labels);
    families[base] += name + " " + FormatDouble(gauge.value()) + "\n";
  }
  for (const auto& [family, body] : families) {
    out << "# TYPE " << family << " gauge\n" << body;
  }
  families.clear();
  for (const auto& [name, histogram] : histograms_) {
    SplitName(name, &base, &labels);
    std::string& body = families[base];
    body += base + WithExtraLabel(labels, "quantile=\"0.5\"") + " " +
            FormatDouble(histogram.Percentile(50)) + "\n";
    body += base + WithExtraLabel(labels, "quantile=\"0.9\"") + " " +
            FormatDouble(histogram.Percentile(90)) + "\n";
    body += base + WithExtraLabel(labels, "quantile=\"0.99\"") + " " +
            FormatDouble(histogram.Percentile(99)) + "\n";
    body += base + "_count" + labels + " " + std::to_string(histogram.count()) + "\n";
    body += base + "_sum" + labels + " " + FormatDouble(histogram.sum()) + "\n";
  }
  for (const auto& [family, body] : families) {
    out << "# TYPE " << family << " summary\n" << body;
  }
  return out.str();
}

std::string MetricsRegistry::RenderJson() const {
  MutexLock lock(&mutex_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "" : ",") << JsonQuote(name) << ":" << counter.value();
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "" : ",") << JsonQuote(name) << ":" << FormatDouble(gauge.value());
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "" : ",") << JsonQuote(name) << ":{\"count\":" << histogram.count()
        << ",\"sum\":" << FormatDouble(histogram.sum())
        << ",\"p50\":" << FormatDouble(histogram.Percentile(50))
        << ",\"p90\":" << FormatDouble(histogram.Percentile(90))
        << ",\"p99\":" << FormatDouble(histogram.Percentile(99)) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace lard
