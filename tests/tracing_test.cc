// Unit tests for the tracing subsystem: span lifecycle through the rings,
// overwrite-oldest semantics, slots allocated on a ring's first record,
// deterministic sampling, and well-formedness of the two render formats the
// admin server serves.
#include "src/util/tracing.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace lard {
namespace {

// Minimal structural JSON check: balanced braces/brackets outside strings,
// valid escapes, nothing after the top-level value. Catches the classic
// renderer bugs (stray comma handling is exercised by the substring checks).
bool JsonBalanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        if (i + 1 >= text.size()) {
          return false;
        }
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) {
          return false;
        }
        if (depth == 0 && i + 1 != text.size()) {
          return false;  // trailing garbage
        }
        break;
      case ',':
        if (i + 1 < text.size() && (text[i + 1] == '}' || text[i + 1] == ']')) {
          return false;  // trailing comma
        }
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

TracerConfig TraceAll() {
  TracerConfig config;
  config.sample_every = 1;
  config.ring_capacity = 64;
  return config;
}

TEST(TraceRing, OverwritesOldestAndCountsEverything) {
  TraceRing ring("test", 4);
  for (uint32_t i = 0; i < 6; ++i) {
    TraceSpan span;
    span.trace_id = 7;
    span.seq = i;
    span.start_us = i;
    ring.Record(span);
  }
  EXPECT_EQ(ring.recorded(), 6u);
  const std::vector<TraceSpan> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first: seqs 0 and 1 were overwritten.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].seq, i + 2);
  }
}

TEST(TraceRing, SnapshotBeforeWrapIsInsertionOrder) {
  TraceRing ring("test", 8);
  for (uint32_t i = 0; i < 3; ++i) {
    TraceSpan span;
    span.seq = i;
    ring.Record(span);
  }
  const std::vector<TraceSpan> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].seq, 0u);
  EXPECT_EQ(spans[2].seq, 2u);
}

TEST(TraceRing, SlotsAreAllocatedOnTheFirstRecord) {
  TraceRing ring("lazy", 4096);
  EXPECT_EQ(ring.capacity(), 4096u);
  EXPECT_TRUE(ring.Snapshot().empty());
  TraceSpan span;
  span.seq = 9;
  ring.Record(span);
  ASSERT_EQ(ring.Snapshot().size(), 1u);
  EXPECT_EQ(ring.Snapshot()[0].seq, 9u);
  EXPECT_EQ(ring.capacity(), 4096u);
}

TEST(Tracer, DisabledTracerHoldsNoRingSlots) {
  // Eight rings of 4096 slots are 3.4 MB of spans; a disabled tracer can
  // never record one, so its rings must hold no slots at all.
  TracerConfig config;
  config.enabled = false;
  config.ring_capacity = 4096;
  const int64_t in_use_before = static_cast<int64_t>(mallinfo2().uordblks);
  Tracer tracer(config);
  std::vector<TraceRing*> rings;
  rings.reserve(8);
  for (int i = 0; i < 8; ++i) {
    rings.push_back(tracer.Ring("be" + std::to_string(i)));
  }
  for (TraceRing* ring : rings) {
    RecordSpan(&tracer, ring, 1, 0, SpanKind::kServe, 0, 0, 0, "dropped");
  }
  const int64_t grown = static_cast<int64_t>(mallinfo2().uordblks) - in_use_before;
  EXPECT_LT(grown, 16 * 1024) << "in-use heap grew by " << grown << " bytes";
  // The inventory still reports every ring at its configured capacity.
  const std::string json = tracer.RenderJson();
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(json.find("{\"name\":\"be" + std::to_string(i) +
                        "\",\"capacity\":4096,\"recorded\":0}"),
              std::string::npos)
        << json;
  }
}

TEST(Tracer, SamplingIsDeterministicAndPartial) {
  TracerConfig config;
  config.sample_every = 16;
  Tracer a(config);
  Tracer b(config);
  int sampled = 0;
  for (uint64_t id = 0; id < 4096; ++id) {
    EXPECT_EQ(a.Sampled(id), b.Sampled(id)) << "verdict must depend only on the id";
    sampled += a.Sampled(id) ? 1 : 0;
  }
  // ~1/16 of well-mixed ids: some, but far from all.
  EXPECT_GT(sampled, 64);
  EXPECT_LT(sampled, 1024);

  Tracer all(TraceAll());
  EXPECT_TRUE(all.Sampled(0));
  EXPECT_TRUE(all.Sampled(123456789));

  TracerConfig off;
  off.enabled = false;
  off.sample_every = 1;
  Tracer disabled(off);
  EXPECT_FALSE(disabled.Sampled(0));
}

TEST(Tracer, RecordSpanHonorsSamplingAndNullArguments) {
  TracerConfig config;
  config.sample_every = 16;
  Tracer tracer(config);
  TraceRing* ring = tracer.Ring("fe0");
  // Find an unsampled and a sampled id.
  uint64_t unsampled = 0;
  uint64_t sampled = 0;
  for (uint64_t id = 1; id < 10000 && (unsampled == 0 || sampled == 0); ++id) {
    (tracer.Sampled(id) ? sampled : unsampled) = id;
  }
  ASSERT_NE(unsampled, 0u);
  ASSERT_NE(sampled, 0u);

  RecordSpan(&tracer, ring, unsampled, 0, SpanKind::kServe, 1, 10, 5, "skipped");
  EXPECT_EQ(ring->recorded(), 0u);
  RecordSpan(&tracer, ring, sampled, 0, SpanKind::kServe, 1, 10, 5, "status=%d", 200);
  EXPECT_EQ(ring->recorded(), 1u);
  // Null tracer/ring are silent no-ops (components without a tracer).
  RecordSpan(nullptr, ring, sampled, 0, SpanKind::kServe, 1, 10, 5, "x");
  RecordSpan(&tracer, nullptr, sampled, 0, SpanKind::kServe, 1, 10, 5, "x");
  EXPECT_EQ(ring->recorded(), 1u);

  // The unsampled variant bypasses the per-id verdict but not the kill
  // switch.
  RecordSpanUnsampled(&tracer, ring, unsampled, 0, SpanKind::kGossip, -1, 10, 5, "round=1");
  EXPECT_EQ(ring->recorded(), 2u);
  TracerConfig off;
  off.enabled = false;
  Tracer disabled(off);
  TraceRing* off_ring = disabled.Ring("fe0");
  RecordSpanUnsampled(&disabled, off_ring, 1, 0, SpanKind::kGossip, -1, 10, 5, "round=1");
  EXPECT_EQ(off_ring->recorded(), 0u);
}

TEST(Tracer, RingIsFindOrCreateWithStablePointers) {
  Tracer tracer(TraceAll());
  TraceRing* fe = tracer.Ring("fe0");
  TraceRing* be = tracer.Ring("be1");
  EXPECT_NE(fe, be);
  EXPECT_EQ(tracer.Ring("fe0"), fe);
  EXPECT_EQ(fe->name(), "fe0");
}

TEST(Tracer, DetailIsTruncatedAndTerminated) {
  Tracer tracer(TraceAll());
  TraceRing* ring = tracer.Ring("fe0");
  const std::string longpath(200, 'a');
  RecordSpan(&tracer, ring, 1, 0, SpanKind::kParse, 0, 0, 0, "path=%s", longpath.c_str());
  const std::vector<TraceSpan> spans = ring->Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::strlen(spans[0].detail), sizeof(spans[0].detail) - 1);
}

TEST(Tracer, RenderJsonGroupsSpansByTraceSortedByStart) {
  Tracer tracer(TraceAll());
  TraceRing* fe = tracer.Ring("fe0");
  TraceRing* be = tracer.Ring("be1");
  // One request's life, recorded out of order and across rings.
  RecordSpan(&tracer, be, 42, 2, SpanKind::kServe, 1, 300, 50, "status=200 cache=h /x");
  RecordSpan(&tracer, fe, 42, 0, SpanKind::kAccept, 0, 100, 0, "fd=9");
  RecordSpan(&tracer, fe, 42, 1, SpanKind::kPolicy, 1, 200, 10, "policy=extlard");
  RecordSpan(&tracer, fe, 7, 0, SpanKind::kAccept, 0, 150, 0, "fd=10");

  const std::string json = tracer.RenderJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":7"), std::string::npos);
  // Within trace 42, accept must precede policy must precede serve.
  const size_t accept = json.find("\"kind\":\"accept\",\"seq\":0,\"node\":0,\"start_us\":100");
  const size_t policy = json.find("\"kind\":\"policy\"");
  const size_t serve = json.find("\"kind\":\"serve\"");
  ASSERT_NE(accept, std::string::npos);
  ASSERT_NE(policy, std::string::npos);
  ASSERT_NE(serve, std::string::npos);
  EXPECT_LT(accept, policy);
  EXPECT_LT(policy, serve);
  // Ring inventory rides along.
  EXPECT_NE(json.find("\"rings\":[{\"name\":\"fe0\""), std::string::npos);
}

TEST(Tracer, RenderJsonEscapesDetails) {
  Tracer tracer(TraceAll());
  TraceRing* ring = tracer.Ring("fe0");
  RecordSpan(&tracer, ring, 1, 0, SpanKind::kParse, 0, 0, 0, "path=\"a\\b\"");
  const std::string json = tracer.RenderJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("path=\\\"a\\\\b\\\""), std::string::npos);
}

TEST(Tracer, RenderChromeIsWellFormedTraceEventJson) {
  Tracer tracer(TraceAll());
  TraceRing* fe = tracer.Ring("fe0");
  TraceRing* be = tracer.Ring("be0");
  RecordSpan(&tracer, fe, 42, 0, SpanKind::kAccept, 0, 100, 0, "fd=9");
  RecordSpan(&tracer, be, 42, 1, SpanKind::kServe, 0, 200, 70, "status=200");
  RecordSpan(&tracer, be, 42, 2, SpanKind::kFlush, 0, 270, 0, "bytes=512");

  const std::string chrome = tracer.RenderChrome();
  EXPECT_TRUE(JsonBalanced(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  // One thread_name metadata record per ring.
  EXPECT_NE(chrome.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(chrome.find("\"args\":{\"name\":\"fe0\"}"), std::string::npos);
  EXPECT_NE(chrome.find("\"args\":{\"name\":\"be0\"}"), std::string::npos);
  // Complete events carry the span payload; zero durations render as 1 so
  // the viewer draws a visible slice.
  EXPECT_NE(chrome.find("\"name\":\"serve\",\"cat\":\"lard\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ts\":270,\"dur\":1"), std::string::npos);
  EXPECT_NE(chrome.find("\"trace_id\":\"42\""), std::string::npos);
}

TEST(Tracer, EmptyRendersAreWellFormed) {
  Tracer tracer(TraceAll());
  EXPECT_TRUE(JsonBalanced(tracer.RenderJson()));
  EXPECT_TRUE(JsonBalanced(tracer.RenderChrome()));
}

TEST(Tracer, LogSlowHandlesSampledAndUnsampledTraces) {
  TracerConfig config;
  config.sample_every = 1;
  config.slow_threshold_us = 100;
  Tracer tracer(config);
  TraceRing* ring = tracer.Ring("be0");
  RecordSpan(&tracer, ring, 42, 0, SpanKind::kAdopt, 0, 0, 0, "fe=0");
  TraceSpan final_span;
  final_span.trace_id = 42;
  final_span.kind = SpanKind::kServe;
  final_span.duration_us = 5000;
  tracer.LogSlow(final_span);  // sampled: summary + tree (must not crash)

  TracerConfig sparse = config;
  sparse.sample_every = 1u << 30;
  Tracer sparse_tracer(sparse);
  sparse_tracer.LogSlow(final_span);  // unsampled: summary only
}

}  // namespace
}  // namespace lard
