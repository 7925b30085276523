#include <gtest/gtest.h>

#include <string>

#include "src/trace/synthetic.h"
#include "src/trace/trace.h"
#include "src/trace/trace_stats.h"

namespace lard {
namespace {

// A small synthetic workload: about 2k targets, 60 MB footprint, 4k sessions.
SyntheticTraceConfig SmallTraceConfig(uint64_t seed) {
  SyntheticTraceConfig config;
  config.seed = seed;
  config.num_pages = 400;
  config.num_sessions = 4000;
  config.num_clients = 64;
  return config;
}

// Bytes of every response in the trace, summed request by request.
uint64_t TotalResponseBytes(const Trace& trace) {
  uint64_t total = 0;
  for (const auto& session : trace.sessions()) {
    for (const auto& batch : session.batches) {
      for (const TargetId id : batch.targets) {
        total += trace.catalog().Get(id).size_bytes;
      }
    }
  }
  return total;
}

TEST(TargetCatalogTest, InternIsIdempotent) {
  TargetCatalog catalog;
  const TargetId a = catalog.Intern("/a.html", 100);
  const TargetId b = catalog.Intern("/b.html", 200);
  EXPECT_NE(a, b);
  EXPECT_EQ(catalog.Intern("/a.html", 999), a);     // existing size wins
  EXPECT_EQ(catalog.Get(a).size_bytes, 100u);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.TotalBytes(), 300u);
}

TEST(TargetCatalogTest, FindMissingReturnsInvalid) {
  TargetCatalog catalog;
  EXPECT_EQ(catalog.Find("/nope"), kInvalidTarget);
  EXPECT_EQ(catalog.Find(""), kInvalidTarget);
  catalog.Intern("/yes", 1);
  EXPECT_NE(catalog.Find("/yes"), kInvalidTarget);
  EXPECT_EQ(catalog.Find("/nope"), kInvalidTarget);
}

TEST(TargetCatalogTest, RepeatInternKeepsFirstSizeAndId) {
  TargetCatalog catalog;
  const TargetId first = catalog.Intern("/doc", 10);
  for (int i = 0; i < 100; ++i) {
    catalog.Intern("/other" + std::to_string(i), 1);  // grow the index past /doc
  }
  EXPECT_EQ(catalog.Intern("/doc", 20), first);
  EXPECT_EQ(catalog.Get(first).size_bytes, 10u);
  EXPECT_EQ(catalog.Find("/doc"), first);
  EXPECT_EQ(catalog.size(), 101u);
}

// 20,000 paths interned across many doublings of the path index (it doubles
// as the count passes each power of two): just before and just after each
// doubling every path interned so far is still found under its id, absent
// paths are not, and ids stay dense in order of first Intern.
TEST(TargetCatalogTest, FindSurvivesIndexGrowth) {
  const auto path = [](int i) { return "/dir" + std::to_string(i % 97) + "/f" + std::to_string(i); };
  TargetCatalog catalog;
  const auto power_of_two = [](int n) { return n > 0 && (n & (n - 1)) == 0; };
  int checks = 0;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(catalog.Intern(path(i), static_cast<uint64_t>(i)), static_cast<TargetId>(i));
    const int n = i + 1;
    if (power_of_two(n) || power_of_two(n - 1)) {
      ++checks;
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(catalog.Find(path(j)), static_cast<TargetId>(j)) << "after " << n;
      }
      ASSERT_EQ(catalog.Find(path(n)), kInvalidTarget) << "after " << n;
      ASSERT_EQ(catalog.Find("/absent"), kInvalidTarget) << "after " << n;
    }
  }
  EXPECT_GE(checks, 28);
  ASSERT_EQ(catalog.size(), 20000u);
  for (TargetId id = 0; id < 20000; ++id) {
    ASSERT_EQ(catalog.Get(id).path, path(static_cast<int>(id)));
    ASSERT_EQ(catalog.Get(id).size_bytes, id);
    ASSERT_EQ(catalog.Find(catalog.Get(id).path), id);
  }
  EXPECT_EQ(catalog.Find("/dir0/f20000"), kInvalidTarget);

  const TargetCatalog copy = catalog;  // Trace::ToHttp10 copies the catalog
  EXPECT_EQ(copy.Find(path(12345)), 12345u);
}

TEST(TraceTest, RequestAndByteAccounting) {
  Trace trace;
  const TargetId a = trace.catalog().Intern("/a", 1000);
  const TargetId b = trace.catalog().Intern("/b", 2000);
  TraceSession session;
  session.batches.push_back(TraceBatch{0, {a}});
  session.batches.push_back(TraceBatch{1000, {b, a}});
  trace.sessions().push_back(session);

  EXPECT_EQ(trace.total_requests(), 3u);
  EXPECT_DOUBLE_EQ(trace.mean_requests_per_session(), 3.0);
  const TraceStats stats = ComputeTraceStats(trace);
  EXPECT_EQ(stats.transferred_bytes, 4000u);
  EXPECT_DOUBLE_EQ(stats.mean_response_bytes, 4000.0 / 3);
}

TEST(TraceTest, ToHttp10FlattensEverything) {
  Trace trace;
  const TargetId a = trace.catalog().Intern("/a", 10);
  const TargetId b = trace.catalog().Intern("/b", 20);
  TraceSession session;
  session.client_id = 4;
  session.start_us = 100;
  session.batches.push_back(TraceBatch{0, {a, b}});
  session.batches.push_back(TraceBatch{500, {a}});
  trace.sessions().push_back(session);

  const Trace flat = trace.ToHttp10();
  ASSERT_EQ(flat.sessions().size(), 3u);
  for (const auto& single : flat.sessions()) {
    EXPECT_EQ(single.batches.size(), 1u);
    EXPECT_EQ(single.batches[0].targets.size(), 1u);
    EXPECT_EQ(single.client_id, 4u);
  }
  EXPECT_EQ(flat.total_requests(), 3u);
  EXPECT_EQ(flat.sessions()[1].start_us, 100);
  EXPECT_EQ(flat.sessions()[2].start_us, 600);
}

TEST(SyntheticTraceTest, DeterministicForSeed) {
  const SyntheticTraceConfig config = SmallTraceConfig(7);
  const Trace a = GenerateSyntheticTrace(config);
  const Trace b = GenerateSyntheticTrace(config);
  ASSERT_EQ(a.sessions().size(), b.sessions().size());
  ASSERT_EQ(a.catalog().size(), b.catalog().size());
  for (size_t i = 0; i < a.sessions().size(); ++i) {
    ASSERT_EQ(a.sessions()[i].batches.size(), b.sessions()[i].batches.size());
    EXPECT_EQ(a.sessions()[i].start_us, b.sessions()[i].start_us);
  }
  EXPECT_EQ(TotalResponseBytes(a), TotalResponseBytes(b));
}

TEST(SyntheticTraceTest, SeedChangesWorkload) {
  const Trace a = GenerateSyntheticTrace(SmallTraceConfig(1));
  const Trace b = GenerateSyntheticTrace(SmallTraceConfig(2));
  EXPECT_NE(TotalResponseBytes(a), TotalResponseBytes(b));
}

TEST(SyntheticTraceTest, MatchesPaperAggregateShape) {
  // The properties the evaluation depends on (DESIGN.md §2): small mean
  // response size, multi-request persistent connections, working set larger
  // than a single-node cache.
  SyntheticTraceConfig config;
  config.num_sessions = 5000;
  const Trace trace = GenerateSyntheticTrace(config);

  const double mean_size = ComputeTraceStats(trace).mean_response_bytes;
  EXPECT_GT(mean_size, 2.0 * 1024);
  EXPECT_LT(mean_size, 20.0 * 1024);  // paper: "less than ~13 KB" era traffic

  EXPECT_GT(trace.mean_requests_per_session(), 3.0);
  EXPECT_GT(trace.catalog().TotalBytes(), 200ull * 1024 * 1024);
  EXPECT_EQ(trace.sessions().size(), 5000u);
}

TEST(SyntheticTraceTest, PipelinedBatchStructure) {
  SyntheticTraceConfig config = SmallTraceConfig(3);
  config.pipeline_embedded_objects = true;
  const Trace trace = GenerateSyntheticTrace(config);
  // First batch of every session is the single HTML request (the paper's
  // assumption: later requests arrive only after the first response).
  for (const auto& session : trace.sessions()) {
    ASSERT_FALSE(session.batches.empty());
    EXPECT_EQ(session.batches[0].targets.size(), 1u);
    for (size_t i = 1; i < session.batches.size(); ++i) {
      EXPECT_GE(session.batches[i].offset_us, session.batches[i - 1].offset_us);
    }
  }
}

TEST(SyntheticTraceTest, SessionsSortedByStart) {
  const Trace trace = GenerateSyntheticTrace(SmallTraceConfig(5));
  for (size_t i = 1; i < trace.sessions().size(); ++i) {
    EXPECT_LE(trace.sessions()[i - 1].start_us, trace.sessions()[i].start_us);
  }
}

TEST(TraceStatsTest, CoverageCurveIsMonotone) {
  const Trace trace = GenerateSyntheticTrace(SmallTraceConfig(11));
  const TraceStats stats = ComputeTraceStats(trace);
  ASSERT_EQ(stats.coverage.size(), 4u);  // 97/98/99/100 %
  for (size_t i = 1; i < stats.coverage.size(); ++i) {
    EXPECT_GE(stats.coverage[i].bytes_needed, stats.coverage[i - 1].bytes_needed);
    EXPECT_GE(stats.coverage[i].targets_needed, stats.coverage[i - 1].targets_needed);
  }
  // Full coverage needs at most the footprint (only requested targets count).
  EXPECT_LE(stats.coverage.back().bytes_needed, stats.footprint_bytes);
  EXPECT_EQ(stats.coverage.back().request_fraction, 1.0);
}

TEST(TraceStatsTest, CountsMatchTrace) {
  const Trace trace = GenerateSyntheticTrace(SmallTraceConfig(13));
  const TraceStats stats = ComputeTraceStats(trace);
  EXPECT_EQ(stats.num_requests, trace.total_requests());
  EXPECT_EQ(stats.num_sessions, trace.sessions().size());
  EXPECT_EQ(stats.num_targets, trace.catalog().size());
  EXPECT_EQ(stats.transferred_bytes, TotalResponseBytes(trace));
  EXPECT_GE(stats.mean_batches_per_session, 1.0);
}

TEST(TraceStatsTest, SkewedWorkloadCoversCheaply) {
  // With Zipf popularity, 97% of requests need notably less memory than 100%.
  SyntheticTraceConfig config;
  config.num_pages = 2000;
  config.num_sessions = 20000;
  config.zipf_alpha = 1.1;
  const Trace trace = GenerateSyntheticTrace(config);
  const TraceStats stats = ComputeTraceStats(trace);
  ASSERT_EQ(stats.coverage.size(), 4u);
  EXPECT_LT(static_cast<double>(stats.coverage[0].bytes_needed),
            0.8 * static_cast<double>(stats.coverage[3].bytes_needed));
}

}  // namespace
}  // namespace lard
