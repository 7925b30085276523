#include "src/util/tracing.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "src/util/logging.h"

namespace lard {
namespace {

// splitmix64: cheap, well-mixed — consecutive conn ids must not all land in
// (or all miss) the sample.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// JSON string escaping for span details (paths and policy keys flow in).
std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void FillSpan(TraceSpan* span, uint64_t trace_id, uint32_t seq, SpanKind kind, int32_t node,
              int64_t start_us, int64_t duration_us, const char* detail_fmt, va_list args) {
  span->trace_id = trace_id;
  span->seq = seq;
  span->kind = kind;
  span->node = node;
  span->start_us = start_us;
  span->duration_us = duration_us;
  std::vsnprintf(span->detail, sizeof(span->detail), detail_fmt, args);
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAccept:
      return "accept";
    case SpanKind::kParse:
      return "parse";
    case SpanKind::kPolicy:
      return "policy";
    case SpanKind::kHandoff:
      return "handoff";
    case SpanKind::kConsult:
      return "consult";
    case SpanKind::kAdopt:
      return "adopt";
    case SpanKind::kServe:
      return "serve";
    case SpanKind::kDiskWait:
      return "disk_wait";
    case SpanKind::kLateral:
      return "lateral";
    case SpanKind::kFlush:
      return "flush";
    case SpanKind::kJournal:
      return "journal";
    case SpanKind::kReplay:
      return "replay";
    case SpanKind::kReassign:
      return "reassign";
    case SpanKind::kGossip:
      return "gossip";
    case SpanKind::kClose:
      return "close";
  }
  return "unknown";
}

TraceRing::TraceRing(std::string name, size_t capacity)
    : name_(std::move(name)), capacity_(capacity == 0 ? 1 : capacity) {}

void TraceRing::Record(const TraceSpan& span) {
  MutexLock lock(&mutex_);
  if (slots_.empty()) {
    slots_.resize(capacity_);  // first record: a ring never written holds no slots
  }
  slots_[next_] = span;
  next_ = (next_ + 1) % capacity_;
  size_ = std::min(size_ + 1, capacity_);
  ++recorded_;
}

std::vector<TraceSpan> TraceRing::Snapshot() const {
  MutexLock lock(&mutex_);
  std::vector<TraceSpan> out;
  out.reserve(size_);
  // Oldest slot is `next_` once the ring has wrapped, 0 before.
  const size_t start = size_ == capacity_ ? next_ : 0;
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(slots_[(start + i) % capacity_]);
  }
  return out;
}

uint64_t TraceRing::recorded() const {
  MutexLock lock(&mutex_);
  return recorded_;
}

TraceRing* Tracer::Ring(const std::string& name) {
  MutexLock lock(&mutex_);
  for (const auto& ring : rings_) {
    if (ring->name() == name) {
      return ring.get();
    }
  }
  rings_.push_back(std::make_unique<TraceRing>(name, config_.ring_capacity));
  return rings_.back().get();
}

bool Tracer::Sampled(uint64_t trace_id) const {
  if (!config_.enabled) {
    return false;
  }
  if (config_.sample_every <= 1) {
    return true;
  }
  return Mix64(trace_id) % config_.sample_every == 0;
}

// Locks a dynamic set of ring mutexes in a loop — a discipline TSA cannot
// express (the capability set is runtime-sized), so the analysis is disabled
// here and the proof is manual: lock order is fixed (tracer mutex, then rings
// in creation order) and no other path holds two of these locks at once, so
// this cannot deadlock. Writers stall for the duration of one memcpy-scale
// copy.
std::vector<TraceRingSnapshot> Tracer::SnapshotAll() const
    LARD_NO_THREAD_SAFETY_ANALYSIS {
  MutexLock lock(&mutex_);
  // Take every ring's lock before copying any ring: the copies form one
  // coherent epoch across rings instead of N reads racing with writers on
  // other loop threads.
  for (const auto& ring : rings_) {
    ring->mutex_.Lock();
  }
  std::vector<TraceRingSnapshot> out;
  out.reserve(rings_.size());
  for (const auto& ring : rings_) {
    TraceRingSnapshot snap;
    snap.name = ring->name_;
    snap.capacity = ring->capacity_;
    snap.recorded = ring->recorded_;
    snap.spans.reserve(ring->size_);
    const size_t start = ring->size_ == ring->capacity_ ? ring->next_ : 0;
    for (size_t i = 0; i < ring->size_; ++i) {
      snap.spans.push_back(ring->slots_[(start + i) % ring->capacity_]);
    }
    out.push_back(std::move(snap));
  }
  for (auto it = rings_.rbegin(); it != rings_.rend(); ++it) {
    (*it)->mutex_.Unlock();
  }
  return out;
}

std::vector<TraceSpan> Tracer::SpansForTrace(uint64_t trace_id) const {
  std::vector<TraceSpan> spans;
  for (const TraceRingSnapshot& ring : SnapshotAll()) {
    for (const TraceSpan& span : ring.spans) {
      if (span.trace_id == trace_id) {
        spans.push_back(span);
      }
    }
  }
  std::sort(spans.begin(), spans.end(), [](const TraceSpan& a, const TraceSpan& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us : a.seq < b.seq;
  });
  return spans;
}

bool Tracer::HasRing(const std::string& name) const {
  MutexLock lock(&mutex_);
  for (const auto& ring : rings_) {
    if (ring->name() == name) {
      return true;
    }
  }
  return false;
}

std::string Tracer::RenderJson(const std::string& component) const {
  // One coherent capture of every ring, then group by trace id (ordered map
  // so output is stable for tests and diffing).
  std::vector<TraceRingSnapshot> rings = SnapshotAll();
  if (!component.empty()) {
    rings.erase(std::remove_if(rings.begin(), rings.end(),
                               [&component](const TraceRingSnapshot& ring) {
                                 return ring.name != component;
                               }),
                rings.end());
  }
  struct Annotated {
    TraceSpan span;
    const std::string* ring;
  };
  std::map<uint64_t, std::vector<Annotated>> by_trace;
  std::ostringstream rings_json;
  bool first_ring = true;
  for (const TraceRingSnapshot& ring : rings) {
    for (const TraceSpan& span : ring.spans) {
      by_trace[span.trace_id].push_back(Annotated{span, &ring.name});
    }
    rings_json << (first_ring ? "" : ",") << "{\"name\":\"" << JsonEscape(ring.name.c_str())
               << "\",\"capacity\":" << ring.capacity << ",\"recorded\":" << ring.recorded
               << "}";
    first_ring = false;
  }

  std::ostringstream out;
  out << "{\"sample_every\":" << config_.sample_every
      << ",\"enabled\":" << (config_.enabled ? "true" : "false") << ",\"traces\":[";
  bool first_trace = true;
  for (auto& [trace_id, spans] : by_trace) {
    std::sort(spans.begin(), spans.end(), [](const Annotated& a, const Annotated& b) {
      return a.span.start_us != b.span.start_us ? a.span.start_us < b.span.start_us
                                                : a.span.seq < b.span.seq;
    });
    out << (first_trace ? "" : ",") << "{\"trace_id\":" << trace_id << ",\"spans\":[";
    bool first_span = true;
    for (const Annotated& entry : spans) {
      const TraceSpan& span = entry.span;
      out << (first_span ? "" : ",") << "{\"kind\":\"" << SpanKindName(span.kind)
          << "\",\"seq\":" << span.seq << ",\"node\":" << span.node
          << ",\"start_us\":" << span.start_us << ",\"duration_us\":" << span.duration_us
          << ",\"ring\":\"" << JsonEscape(entry.ring->c_str()) << "\",\"detail\":\""
          << JsonEscape(span.detail) << "\"}";
      first_span = false;
    }
    out << "]}";
    first_trace = false;
  }
  out << "],\"rings\":[" << rings_json.str() << "]}";
  return out.str();
}

std::string Tracer::RenderChrome(const std::string& component) const {
  // Chrome trace-event format: one complete ("X") event per span, each ring
  // presented as a named pseudo-thread ("M" thread_name metadata). One
  // coherent capture feeds both the metadata and the events.
  std::vector<TraceRingSnapshot> rings = SnapshotAll();
  if (!component.empty()) {
    rings.erase(std::remove_if(rings.begin(), rings.end(),
                               [&component](const TraceRingSnapshot& ring) {
                                 return ring.name != component;
                               }),
                rings.end());
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (size_t tid = 0; tid < rings.size(); ++tid) {
    out << (first ? "" : ",") << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << JsonEscape(rings[tid].name.c_str()) << "\"}}";
    first = false;
    for (const TraceSpan& span : rings[tid].spans) {
      out << ",{\"name\":\"" << SpanKindName(span.kind) << "\",\"cat\":\"lard\",\"ph\":\"X\""
          << ",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << span.start_us
          << ",\"dur\":" << std::max<int64_t>(span.duration_us, 1) << ",\"args\":{\"trace_id\":\""
          << span.trace_id << "\",\"seq\":" << span.seq << ",\"node\":" << span.node
          << ",\"detail\":\"" << JsonEscape(span.detail) << "\"}}";
    }
  }
  out << "]}";
  return out.str();
}

void Tracer::LogSlow(const TraceSpan& final_span) {
  LARD_LOG(WARNING) << "slow request: trace=" << final_span.trace_id << " seq=" << final_span.seq
                    << " node=" << final_span.node << " took " << final_span.duration_us
                    << "us (threshold " << slow_threshold_us() << "us) "
                    << final_span.detail;
  if (!Sampled(final_span.trace_id)) {
    return;  // unsampled: only the summary line is available
  }
  for (const TraceSpan& span : SpansForTrace(final_span.trace_id)) {
    LARD_LOG(WARNING) << "  span " << SpanKindName(span.kind) << " seq=" << span.seq
                      << " node=" << span.node << " start=" << span.start_us
                      << "us dur=" << span.duration_us << "us " << span.detail;
  }
}

int64_t TraceNowUs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

void RecordSpan(Tracer* tracer, TraceRing* ring, uint64_t trace_id, uint32_t seq, SpanKind kind,
                int32_t node, int64_t start_us, int64_t duration_us, const char* detail_fmt, ...) {
  if (tracer == nullptr || ring == nullptr || !tracer->Sampled(trace_id)) {
    return;
  }
  TraceSpan span;
  va_list args;
  va_start(args, detail_fmt);
  FillSpan(&span, trace_id, seq, kind, node, start_us, duration_us, detail_fmt, args);
  va_end(args);
  ring->Record(span);
}

void RecordSpanUnsampled(Tracer* tracer, TraceRing* ring, uint64_t trace_id, uint32_t seq,
                         SpanKind kind, int32_t node, int64_t start_us, int64_t duration_us,
                         const char* detail_fmt, ...) {
  if (tracer == nullptr || ring == nullptr || !tracer->enabled()) {
    return;
  }
  TraceSpan span;
  va_list args;
  va_start(args, detail_fmt);
  FillSpan(&span, trace_id, seq, kind, node, start_us, duration_us, detail_fmt, args);
  va_end(args);
  ring->Record(span);
}

}  // namespace lard
