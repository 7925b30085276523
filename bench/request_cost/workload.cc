#include "bench/request_cost/workload.h"

#include <cmath>

#include "src/util/rng.h"

namespace lard {
namespace {

// Every workload serves the same corpus on every run; only the request
// stream depends on --seed.
constexpr uint64_t kCorpusSeed = 42;
// Sessions in the pool a run draws from. Large enough that no session
// repeats often within one run's phases.
constexpr int64_t kPoolSessions = 20000;
constexpr uint64_t kMiB = 1024 * 1024;

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;

  // Figure 13's headline configuration over Figure 13's trace shape: one
  // cache thrashes, three hold the hot set, so consults, the disk gate and
  // lateral fetches sit on the critical path.
  Workload extlard;
  extlard.name = "phttp_extlard";
  extlard.corpus.seed = kCorpusSeed;
  extlard.corpus.num_pages = 400;
  extlard.corpus.max_size_bytes = 256 * 1024;
  extlard.cache_bytes = 6 * kMiB;
  extlard.disk_time_scale = 0.08;
  // Back-ends serve each connection serially, so with at most four client
  // connections a node's disk queue rarely reaches the default of 4 and the
  // forwarding branch of extLARD would never run.
  extlard.low_disk_queue_threshold = 1;
  extlard.session_rate = 145.8;
  out.push_back(extlard);

  // One connection per small request, every document cached: the
  // per-connection path (accept, parse, policy, fd handoff, adopt, close)
  // does the work while consults, the disk and lateral fetches stay idle.
  Workload small;
  small.name = "http10_small";
  small.http10 = true;
  small.corpus.seed = kCorpusSeed;
  small.corpus.num_pages = 400;
  small.corpus.min_size_bytes = 128;
  small.corpus.max_size_bytes = 8 * 1024;
  small.cache_bytes = 64 * kMiB;
  small.disk_time_scale = 0.08;
  small.sweep = true;
  small.session_rate = 13833.0;
  out.push_back(small);

  // Large cached documents over P-HTTP: per-byte body, serialize and flush
  // cost dominates; one handoff and one consult per batch, no disk reads.
  Workload large;
  large.name = "phttp_large";
  large.corpus.seed = kCorpusSeed;
  large.corpus.num_pages = 40;
  large.corpus.embedded_per_page_mean = 4.0;
  large.corpus.html_lognorm_mu = std::log(128.0 * 1024);
  large.corpus.html_lognorm_sigma = 0.5;
  large.corpus.object_lognorm_mu = std::log(128.0 * 1024);
  large.corpus.object_lognorm_sigma = 0.6;
  large.corpus.tail_probability = 0.0;
  large.corpus.min_size_bytes = 64 * 1024;
  large.corpus.max_size_bytes = 1024 * 1024;
  // One page per session: each page's objects are cached with its HTML on
  // one node, so no request needs a lateral fetch.
  large.corpus.pages_per_session_mean = 1.0;
  large.cache_bytes = 256 * kMiB;
  large.disk_time_scale = 0.01;
  large.sweep = true;
  large.session_rate = 816.5;
  out.push_back(large);
  return out;
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

Trace BuildCorpus(const Workload& workload) {
  SyntheticTraceConfig config = workload.corpus;
  config.num_sessions = 0;
  return GenerateSyntheticTrace(config);
}

Schedule ScheduleFor(double seconds) {
  Schedule schedule;
  schedule.idle_s = 0.1 * seconds;
  schedule.warm_s = 0.2 * seconds;
  schedule.open_s = 0.45 * seconds;
  schedule.closed_s = 0.25 * seconds;
  return schedule;
}

SessionStream::SessionStream(const Workload& workload, uint64_t seed)
    : http10_(workload.http10), seed_(seed) {
  // The corpus comes first out of the generator's random stream, so this
  // pool's catalog is identical to BuildCorpus()'s.
  SyntheticTraceConfig config = workload.corpus;
  config.num_sessions = kPoolSessions;
  pool_ = GenerateSyntheticTrace(config);
  if (http10_) {
    pool_ = pool_.ToHttp10();
  }
  const TargetCatalog& targets = pool_.catalog();
  for (TargetId id = 0; id < targets.size(); ++id) {
    if (http10_) {
      TraceSession single;
      single.batches.push_back(TraceBatch{0, {id}});
      sweep_.push_back(std::move(single));
    } else if (EndsWith(targets.Get(id).path, "/index.html")) {
      TraceSession page;
      page.batches.push_back(TraceBatch{0, {id}});
      sweep_.push_back(std::move(page));
    } else {
      TraceSession& page = sweep_.back();
      if (page.batches.size() == 1) {
        page.batches.push_back(TraceBatch{0, {}});
      }
      page.batches.back().targets.push_back(id);
    }
  }
}

const TraceSession& SessionStream::At(StreamId id, uint64_t i) const {
  Rng rng(seed_ * 0x9e3779b97f4a7c15ULL ^ (static_cast<uint64_t>(id) << 56) ^ i);
  return pool_.sessions()[rng.NextBelow(pool_.sessions().size())];
}

std::vector<int64_t> PoissonArrivals(double rate_per_s, int64_t duration_ns, uint64_t seed) {
  std::vector<int64_t> arrivals;
  Rng rng(seed);
  double t_ns = 0.0;
  while (true) {
    t_ns += rng.NextExponential(1e9 / rate_per_s);
    if (t_ns >= static_cast<double>(duration_ns)) {
      return arrivals;
    }
    arrivals.push_back(static_cast<int64_t>(t_ns));
  }
}

}  // namespace lard
