// Per-request distributed tracing for the cluster: a lock-cheap, sampled
// span recorder that follows one client request from front-end accept through
// policy decision, handoff/consult, back-end serve (cache/disk/lateral) to
// response flush — and across the failure path (journal, replay,
// reassignment) and mesh gossip rounds.
//
// Design:
//  - The trace id is the FE-namespaced connection id (fe_id << 48 | counter),
//    which already travels in every control message — tracing adds no wire
//    format changes. The request sequence number distinguishes requests on
//    one persistent connection.
//  - Sampling is deterministic on the trace id (hash % sample_every), so the
//    front-end and the back-ends all sample the *same* connections without
//    coordination.
//  - Spans are fixed-size PODs written into per-component ring buffers
//    (overwrite-oldest) whose slots are allocated on a ring's first record,
//    so a disabled or never-sampled tracer holds none. Recording takes one
//    short per-ring mutex (uncontended in steady state: each ring has a
//    single writer thread) and allocates nothing after that first record;
//    detail strings are snprintf'd into a fixed buffer after the sampling
//    check.
//  - The admin server drains the rings: GET /trace renders recent traces as
//    JSON, GET /trace?format=chrome emits Chrome trace-event format loadable
//    in about:tracing / Perfetto.
//  - A slow-request log catches tail outliers even when sampling misses
//    them: when a request exceeds the threshold, its full span tree (if
//    sampled) or a one-line summary (if not) goes to LARD_LOG.
#ifndef SRC_UTIL_TRACING_H_
#define SRC_UTIL_TRACING_H_

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace lard {

// Stages of a request's life, across components. One enum for FE, BE and mesh
// spans so traces from all of them merge into one tree.
enum class SpanKind : uint8_t {
  kAccept = 0,    // FE accepted the client connection
  kParse,         // request bytes parsed into targets
  kPolicy,        // routing decision (detail: policy key, node, loads)
  kHandoff,       // FE shipped the connection to a back-end
  kConsult,       // back-end asked the FE mid-stream / FE answered
  kAdopt,         // BE adopted a handed-off (or replayed) connection
  kServe,         // BE produced one response (detail: cache hit/miss)
  kDiskWait,      // time gated behind the BE disk queue
  kLateral,       // lateral fetch from a peer BE (detail: peer id)
  kFlush,         // response bytes written toward the client
  kJournal,       // replay-journal append
  kReplay,        // orphaned connection replayed after a crash
  kReassign,      // connection reassigned (detail: reason)
  kGossip,        // one mesh gossip round
  kClose,         // connection reaped (detail: reason, e.g. idle deadline)
};

const char* SpanKindName(SpanKind kind);

// One recorded span. Fixed size, trivially copyable: the ring buffers are
// flat arrays of these, allocated once on a ring's first record.
struct TraceSpan {
  uint64_t trace_id = 0;   // FE-namespaced conn id (0 = component-scoped)
  uint32_t seq = 0;        // request ordinal within the connection
  SpanKind kind = SpanKind::kAccept;
  int32_t node = -1;       // serving/chosen node, or FE id for FE spans
  int64_t start_us = 0;    // CLOCK_MONOTONIC µs
  int64_t duration_us = 0;
  char detail[64] = {};    // NUL-terminated free-form annotation
};

// Fixed-capacity overwrite-oldest span store. One ring per component (per FE
// replica, per back-end); a short mutex per record
// keeps cross-thread drains (the admin server) race-free.
class TraceRing {
 public:
  TraceRing(std::string name, size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Record(const TraceSpan& span);
  // Oldest-first copy of the current contents.
  std::vector<TraceSpan> Snapshot() const;

  const std::string& name() const { return name_; }
  size_t capacity() const { return capacity_; }
  // Total spans ever recorded (≥ Snapshot().size(); the excess overwrote).
  uint64_t recorded() const;

 private:
  // Tracer::SnapshotAll() holds every ring's mutex at once to capture one
  // coherent cross-ring epoch for the admin renders.
  friend class Tracer;

  const std::string name_;
  const size_t capacity_;  // fixed at construction
  mutable Mutex mutex_;
  // Empty until the first Record, then capacity_ slots.
  std::vector<TraceSpan> slots_ LARD_GUARDED_BY(mutex_);
  size_t next_ LARD_GUARDED_BY(mutex_) = 0;      // next write position
  size_t size_ LARD_GUARDED_BY(mutex_) = 0;      // live spans (≤ capacity)
  uint64_t recorded_ LARD_GUARDED_BY(mutex_) = 0;
};

// One ring's contents captured at a snapshot epoch (see Tracer::SnapshotAll).
struct TraceRingSnapshot {
  std::string name;
  size_t capacity = 0;
  uint64_t recorded = 0;
  std::vector<TraceSpan> spans;  // oldest-first
};

struct TracerConfig {
  bool enabled = true;
  // Record every Nth connection (deterministic on the trace id); 1 = all.
  uint32_t sample_every = 16;
  size_t ring_capacity = 2048;
  // Requests slower than this are logged (full span tree when sampled,
  // one-line summary otherwise). 0 disables the slow log.
  int64_t slow_threshold_us = 0;
};

// Owns the rings and the sampling decision; one per cluster. All methods are
// thread-safe.
class Tracer {
 public:
  explicit Tracer(const TracerConfig& config)
      : config_(config), slow_threshold_us_(config.slow_threshold_us) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Find-or-create; the returned pointer is stable for the tracer's
  // lifetime — components look their ring up once and cache it.
  TraceRing* Ring(const std::string& name);

  bool enabled() const { return config_.enabled; }
  // The slow-log threshold is runtime-tunable (POST /config) the same way
  // the log level is: a relaxed atomic read per request, no locks.
  int64_t slow_threshold_us() const { return slow_threshold_us_.load(std::memory_order_relaxed); }
  void set_slow_threshold_us(int64_t threshold_us) {
    slow_threshold_us_.store(threshold_us, std::memory_order_relaxed);
  }
  uint32_t sample_every() const { return config_.sample_every; }

  // Deterministic per-connection sampling verdict; identical on every
  // component because it depends only on the trace id.
  bool Sampled(uint64_t trace_id) const;

  // Captures every ring (contents + recorded counter) under one snapshot
  // epoch: all ring locks are held simultaneously while copying, so a
  // concurrent writer on another loop thread can never make the rendered
  // rings mutually inconsistent (a trace half in one ring's snapshot and
  // half missing from another's). Both renders below consume this.
  std::vector<TraceRingSnapshot> SnapshotAll() const;

  // True when a ring with this exact name exists (admin-plane 404s).
  bool HasRing(const std::string& name) const;

  // Recent traces grouped by trace id:
  // {"traces":[{"trace_id":..,"spans":[...]}],"rings":[...]}. A non-empty
  // `component` restricts the render to the ring with that name
  // (GET /trace?component=...), e.g. one FE loop or one back-end.
  std::string RenderJson(const std::string& component = "") const;
  // Chrome trace-event format ("traceEvents") for about:tracing / Perfetto;
  // each ring becomes one named pseudo-thread. Same `component` filter.
  std::string RenderChrome(const std::string& component = "") const;

  // Slow-request log: called by a component when a request's total time
  // exceeded slow_threshold_us. Logs the summary line always, plus the
  // request's full span tree when the trace was sampled.
  void LogSlow(const TraceSpan& final_span);

 private:
  std::vector<TraceSpan> SpansForTrace(uint64_t trace_id) const;

  const TracerConfig config_;
  std::atomic<int64_t> slow_threshold_us_;
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<TraceRing>> rings_ LARD_GUARDED_BY(mutex_);
};

// Monotonic microsecond clock for span timestamps.
int64_t TraceNowUs();

// Records a span iff `tracer`/`ring` are live and the trace is sampled. The
// printf-style detail is formatted into the span's fixed buffer only after
// the sampling check, so unsampled requests pay one hash and nothing else.
void RecordSpan(Tracer* tracer, TraceRing* ring, uint64_t trace_id, uint32_t seq, SpanKind kind,
                int32_t node, int64_t start_us, int64_t duration_us, const char* detail_fmt, ...)
    __attribute__((format(printf, 9, 10)));

// Same, but bypasses sampling (still gated on enabled): for component-scoped
// spans with no connection, like mesh gossip rounds.
void RecordSpanUnsampled(Tracer* tracer, TraceRing* ring, uint64_t trace_id, uint32_t seq,
                         SpanKind kind, int32_t node, int64_t start_us, int64_t duration_us,
                         const char* detail_fmt, ...) __attribute__((format(printf, 9, 10)));

}  // namespace lard

#endif  // SRC_UTIL_TRACING_H_
