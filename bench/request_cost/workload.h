// The request-cost benchmark's workloads and the inputs one run replays.
//
// A workload fixes the document tree (generated from a constant seed, so
// every run serves the same corpus) and the cluster knobs that make one layer
// do the work. The run's --seed only picks the request stream: which sessions
// of a fixed pool are replayed, in which order, and when they arrive.
#ifndef BENCH_REQUEST_COST_WORKLOAD_H_
#define BENCH_REQUEST_COST_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/synthetic.h"
#include "src/trace/trace.h"

namespace lard {

struct Workload {
  std::string name;
  // One connection per request instead of pipelined P-HTTP sessions.
  bool http10 = false;
  SyntheticTraceConfig corpus;
  uint64_t cache_bytes = 0;
  double disk_time_scale = 1.0;
  int low_disk_queue_threshold = 4;
  // Warm-up first fetches every document once, so the measured phases only
  // ever hit the caches.
  bool sweep = false;
  // Open-loop session arrival rate (sessions/s): 0.5 x closed_rps / mean
  // requests per session, calibrated once and never recomputed, so a faster
  // build meets the same offered load as the one it is compared with.
  double session_rate = 0.0;
};

const std::vector<Workload>& Workloads();
// Null when no workload has that name.
const Workload* FindWorkload(const std::string& name);

// The workload's document tree (a trace with no sessions).
Trace BuildCorpus(const Workload& workload);

// Length of each phase of one run, scaled from --seconds.
struct Schedule {
  double idle_s = 0.0;
  double warm_s = 0.0;
  double open_s = 0.0;
  double closed_s = 0.0;
};
Schedule ScheduleFor(double seconds);

// Independent draws from one run's request stream.
enum class StreamId : uint64_t { kWarm = 1, kOpen = 2, kClosed = 3, kReplay = 4 };

// The sessions one run replays: a fixed pool generated from the workload's
// corpus, drawn from with replacement in an order set by the seed.
class SessionStream {
 public:
  SessionStream(const Workload& workload, uint64_t seed);

  const TargetCatalog& catalog() const { return pool_.catalog(); }
  bool http10() const { return http10_; }
  uint64_t seed() const { return seed_; }
  // The i-th session of stream `id`; thread-safe and deterministic.
  const TraceSession& At(StreamId id, uint64_t i) const;
  double mean_requests_per_session() const { return pool_.mean_requests_per_session(); }
  // Every document once, one page per session (one request per session for
  // HTTP/1.0), in catalog order.
  const std::vector<TraceSession>& sweep() const { return sweep_; }

 private:
  Trace pool_;
  std::vector<TraceSession> sweep_;
  bool http10_ = false;
  uint64_t seed_ = 0;
};

// Poisson arrival instants (ns after the phase start) before `duration_ns`.
std::vector<int64_t> PoissonArrivals(double rate_per_s, int64_t duration_ns, uint64_t seed);

}  // namespace lard

#endif  // BENCH_REQUEST_COST_WORKLOAD_H_
