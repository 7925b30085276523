// The benchmark's load generator: at most kSlots blocking client connections,
// one per thread, the calling thread being slot 0. It frames responses itself
// (status line + Content-Length) and checks each body against the content
// store's "<path>#<size>#" prefix contract, without src/http, so a change to
// the server's parsers cannot change the instrument.
#ifndef BENCH_REQUEST_COST_CLIENT_H_
#define BENCH_REQUEST_COST_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/request_cost/workload.h"

namespace lard {

inline constexpr int kSlots = 4;

// CLOCK_MONOTONIC, the clock the server's trace spans use.
int64_t NowNs();

// The bytes a client sends for one batch; `last` marks the session's final
// batch, whose last request asks the server to close.
std::string BatchRequest(const TargetCatalog& catalog, const std::vector<TargetId>& targets,
                         bool http10, bool last);

// A client-side span around one call into the server, for the Chrome trace.
struct ClientSpan {
  const char* name = "";
  int slot = 0;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
};

// When something was due and when it happened: a request and its last
// response byte, or a paced session and its slot's wake-up.
struct Timing {
  int64_t due_ns = 0;
  int64_t done_ns = 0;
};

// What one phase of load produced, merged over the slots.
struct PhaseResult {
  uint64_t attempted = 0;  // requests sent or due
  uint64_t failed = 0;     // not answered with the right 200 body
  uint64_t responses = 0;  // responses framed, whatever their status
  uint64_t connect_errors = 0;
  // Open-loop sessions dropped unsent: still waiting for a slot when the
  // phase's grace ran out. Not attempted, not failed.
  uint64_t shed_sessions = 0;
  std::string first_error;
  int64_t start_ns = 0;  // the phase's nominal window
  int64_t end_ns = 0;
  std::vector<Timing> answered;  // correctly answered requests
  // Open loop only.
  std::vector<double> slot_wait_ms;  // per session: arrival -> a slot took it
  std::vector<Timing> wakeups;       // per paced session
  // Median number of sessions waiting for a slot when a session started, in
  // each half of the phase: immune to one stall's burst, not to a trend.
  double backlog_first_half = 0.0;
  double backlog_second_half = 0.0;
  // Per connection and per batch.
  std::vector<double> connect_us;
  std::vector<double> ttfb_us;  // batch sent -> first response byte
  std::vector<ClientSpan> spans;
  // Busiest generator thread's CPU time over the phase's wall time.
  double max_thread_cpu_share = 0.0;

  void Merge(PhaseResult other);
};

class LoadClient {
 public:
  LoadClient(const SessionStream* stream, uint16_t port) : stream_(stream), port_(port) {}

  // Fetches every document once, as fast as the first `slots` slots go.
  PhaseResult Sweep(int slots);
  // Sessions arrive as a Poisson process at `session_rate` for `seconds`;
  // each waits for a free slot. Every arrival is served before returning,
  // except those still waiting a few seconds after the phase ends (shed).
  PhaseResult OpenLoop(StreamId id, double session_rate, double seconds, bool record_spans);
  // Every slot runs sessions back to back for `seconds`.
  PhaseResult ClosedLoop(StreamId id, double seconds);

 private:
  // Runs one session on its own connection; its first batch is due at
  // `due_ns`. Later batches are due when the previous batch completed.
  void RunSession(const TraceSession& session, int64_t due_ns, int slot, bool record_spans,
                  PhaseResult* out) const;

  const SessionStream* stream_;
  uint16_t port_;
};

}  // namespace lard

#endif  // BENCH_REQUEST_COST_CLIENT_H_
