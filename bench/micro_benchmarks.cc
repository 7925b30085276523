// Google-benchmark microbenchmarks for the hot paths of the library: the
// dispatcher decision, the LRU cache, the catalog lookup, the HTTP parser,
// the event engine and the workload sampler. These bound how much of a real
// deployment's budget the policy machinery itself would consume. The rest
// measure the prototype cluster's bring-up and teardown and its telemetry
// tick's two costs: a time-series row and a /proc read.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/dispatcher.h"
#include "src/http/request_parser.h"
#include "src/net/event_loop.h"
#include "src/obs/process_stats.h"
#include "src/obs/time_series.h"
#include "src/proto/cluster.h"
#include "src/sim/event_queue.h"
#include "src/sim/resources.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"
#include "src/util/rng.h"
#include "src/util/tracing.h"

namespace lard {
namespace {

void BM_LruCacheHit(benchmark::State& state) {
  LruCache cache(1ull << 30);
  for (TargetId id = 0; id < 1024; ++id) {
    cache.Insert(id, 8192);
  }
  TargetId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Touch(id));
    id = (id + 1) & 1023;
  }
}
BENCHMARK(BM_LruCacheHit);

void BM_LruCacheInsertEvict(benchmark::State& state) {
  LruCache cache(1024 * 8192 / 2);  // half the ids fit
  TargetId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Insert(id, 8192));
    id = (id + 1) & 1023;
  }
}
BENCHMARK(BM_LruCacheInsertEvict);

// URL -> TargetId resolution, which the front end does for every request
// and each back end for every request it serves. Arg 1 looks up interned
// paths (hits), arg 0 paths that were never interned (misses).
void BM_CatalogFind(benchmark::State& state) {
  constexpr int kTargets = 20000;
  TargetCatalog catalog;
  std::vector<std::string> queries;
  for (int i = 0; i < kTargets; ++i) {
    const std::string path = "/page" + std::to_string(i / 8) + "/obj" + std::to_string(i % 8);
    catalog.Intern(path, 8192);
    queries.push_back(state.range(0) != 0 ? path : path + ".missing");
  }
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(catalog.Find(queries[q]));
    q = q + 1 == queries.size() ? 0 : q + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CatalogFind)->ArgName("hit")->Arg(1)->Arg(0);

void BM_DispatcherFirstRequest(benchmark::State& state) {
  TargetCatalog catalog;
  std::vector<TargetId> targets;
  for (int i = 0; i < 4096; ++i) {
    targets.push_back(catalog.Intern("/t" + std::to_string(i), 8192));
  }
  NullBackendStats stats;
  DispatcherConfig config;
  config.policy = Policy::kLard;
  config.mechanism = Mechanism::kSingleHandoff;
  config.num_nodes = static_cast<int>(state.range(0));
  Dispatcher dispatcher(config, &catalog, &stats);
  ConnId conn = 1;
  size_t t = 0;
  for (auto _ : state) {
    dispatcher.OnConnectionOpen(conn);
    benchmark::DoNotOptimize(dispatcher.OnBatch(conn, {targets[t & 4095]}));
    dispatcher.OnConnectionClose(conn);
    ++conn;
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatcherFirstRequest)->Arg(4)->Arg(16)->Arg(64);

void BM_DispatcherExtLardBatch(benchmark::State& state) {
  TargetCatalog catalog;
  std::vector<TargetId> targets;
  for (int i = 0; i < 4096; ++i) {
    targets.push_back(catalog.Intern("/t" + std::to_string(i), 8192));
  }
  NullBackendStats stats;
  DispatcherConfig config;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.num_nodes = 8;
  Dispatcher dispatcher(config, &catalog, &stats);
  dispatcher.OnConnectionOpen(1);
  dispatcher.OnBatch(1, {targets[0]});
  size_t t = 0;
  std::vector<TargetId> batch(8);
  for (auto _ : state) {
    for (auto& entry : batch) {
      entry = targets[t++ & 4095];
    }
    benchmark::DoNotOptimize(dispatcher.OnBatch(1, batch));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_DispatcherExtLardBatch);

void BM_RequestParserPipelined(benchmark::State& state) {
  std::string wire;
  for (int i = 0; i < 8; ++i) {
    wire += "GET /page" + std::to_string(i) + "/obj.dat HTTP/1.1\r\nHost: cluster\r\n\r\n";
  }
  for (auto _ : state) {
    RequestParser parser;
    std::vector<HttpRequest> requests;
    parser.Feed(wire, &requests);
    benchmark::DoNotOptimize(requests);
  }
  state.SetItemsProcessed(state.iterations() * 8);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_RequestParserPipelined);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue queue;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      queue.ScheduleAt(i * 7 % 997, [&fired]() { ++fired; });
    }
    queue.RunUntilEmpty();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

void BM_FifoServerSubmit(benchmark::State& state) {
  EventQueue queue;
  FifoServer server(&queue);
  for (auto _ : state) {
    server.Submit(10.0, []() {});
    if (queue.pending() > 4096) {
      state.PauseTiming();
      queue.RunUntilEmpty();
      state.ResumeTiming();
    }
  }
  queue.RunUntilEmpty();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoServerSubmit);

// The three costs a request can pay at a RecordSpan call site: tracer
// disabled (one branch), enabled but this connection unsampled (one hash —
// the steady-state hot path at the default 1/16 sampling), and sampled
// (snprintf + locked ring write).
void BM_RecordSpanDisabled(benchmark::State& state) {
  TracerConfig config;
  config.enabled = false;
  Tracer tracer(config);
  TraceRing* ring = tracer.Ring("bench");
  uint32_t seq = 0;
  for (auto _ : state) {
    RecordSpan(&tracer, ring, 7, seq++, SpanKind::kServe, 1, 0, 0, "status=%d", 200);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordSpanDisabled);

void BM_RecordSpanUnsampled(benchmark::State& state) {
  TracerConfig config;
  config.sample_every = 1u << 30;  // effectively nothing samples
  Tracer tracer(config);
  TraceRing* ring = tracer.Ring("bench");
  uint64_t id = 1;
  uint32_t seq = 0;
  for (auto _ : state) {
    RecordSpan(&tracer, ring, id++, seq++, SpanKind::kServe, 1, 0, 0, "status=%d", 200);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordSpanUnsampled);

void BM_RecordSpanSampled(benchmark::State& state) {
  TracerConfig config;
  config.sample_every = 1;
  config.ring_capacity = 4096;
  Tracer tracer(config);
  TraceRing* ring = tracer.Ring("bench");
  uint32_t seq = 0;
  for (auto _ : state) {
    RecordSpan(&tracer, ring, 7, seq++, SpanKind::kServe, 1, 0, 0, "status=%d cache=%c", 200,
               'h');
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordSpanSampled);

void BM_TraceRingSnapshot(benchmark::State& state) {
  TracerConfig config;
  config.sample_every = 1;
  config.ring_capacity = 2048;
  Tracer tracer(config);
  TraceRing* ring = tracer.Ring("bench");
  for (uint32_t i = 0; i < 4096; ++i) {
    RecordSpan(&tracer, ring, 7, i, SpanKind::kServe, 1, i, 1, "status=%d", 200);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring->Snapshot());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRingSnapshot);

// Cross-loop post round trip: another thread posts to a running loop and
// waits for the closure to execute. This is the price every CompleteHandoff
// pays to hop from a shard loop to the control-plane loop in the
// reactor-per-core front end, and what the Post wakeup-contention fix
// (atomic pending count + in-thread eventfd skip) was about.
void BM_EventLoopCrossPost(benchmark::State& state) {
  EventLoop loop;
  std::thread runner([&loop]() { loop.Run(); });
  for (auto _ : state) {
    std::atomic<bool> done{false};
    loop.Post([&done]() { done.store(true, std::memory_order_release); });
    while (!done.load(std::memory_order_acquire)) {
    }
  }
  loop.Stop();
  runner.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopCrossPost);

// Same-loop self-posts: tasks a loop queues onto itself (deferred conn-map
// erases, re-scheduled work) take the no-wakeup fast path — no eventfd
// write, no syscall. A batch per round trip amortizes the one cross-thread
// hop that kicks each measurement off.
void BM_EventLoopSelfPost(benchmark::State& state) {
  constexpr int kBatch = 256;
  EventLoop loop;
  std::thread runner([&loop]() { loop.Run(); });
  for (auto _ : state) {
    std::atomic<bool> done{false};
    loop.Post([&loop, &done]() {
      for (int i = 0; i < kBatch - 1; ++i) {
        loop.Post([]() {});
      }
      loop.Post([&done]() { done.store(true, std::memory_order_release); });
    });
    while (!done.load(std::memory_order_acquire)) {
    }
  }
  loop.Stop();
  runner.join();
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventLoopSelfPost);

// Cluster::Start() and Stop() with the request-cost benchmark's cluster:
// 3 back ends, 1 front end on 1 loop, extLARD, back-end forwarding, admin
// on, tracing off. start_us and stop_us are the mean wall time of each call;
// the iteration time adds construction and destruction.
void BM_ClusterStartStop(benchmark::State& state) {
  SetMinLogSeverity(LogSeverity::kWarning);  // Start() logs at info
  TargetCatalog catalog;
  catalog.Intern("/index.html", 8192);
  ClusterConfig config;
  config.num_nodes = 3;
  config.num_frontends = 1;
  config.fe_loops = 1;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.tracing_enabled = false;
  using Clock = std::chrono::steady_clock;
  Clock::duration start{};
  Clock::duration stop{};
  for (auto _ : state) {
    Cluster cluster(config, &catalog);
    const Clock::time_point t0 = Clock::now();
    if (!cluster.Start().ok()) {
      state.SkipWithError("Cluster::Start() failed");
      break;
    }
    const Clock::time_point t1 = Clock::now();
    cluster.Stop();
    start += t1 - t0;
    stop += Clock::now() - t1;
  }
  const auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  state.counters["start_us"] = benchmark::Counter(us(start), benchmark::Counter::kAvgIterations);
  state.counters["stop_us"] = benchmark::Counter(us(stop), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ClusterStartStop)->Unit(benchmark::kMicrosecond);

// One telemetry row of 16 series, as the front end appends each tick, into
// the default 300-row store. full=0: a new store grows to capacity, its
// construction included (items are rows); full=1: rows wrap a full store.
void BM_TimeSeriesAppend(benchmark::State& state) {
  const bool full = state.range(0) != 0;
  constexpr int kSeries = 16;
  const TimeSeriesConfig config;
  const auto make_store = [&config]() {
    auto store = std::make_unique<TimeSeriesStore>(config);
    for (int i = 0; i < kSeries; ++i) {
      store->AddSeries("series_" + std::to_string(i));
    }
    return store;
  };
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < kSeries; ++i) {
    row.emplace_back(i, 1.5 * i);
  }
  int64_t t_ms = 0;
  std::unique_ptr<TimeSeriesStore> store = make_store();
  if (full) {
    for (int i = 0; i < config.capacity; ++i) {
      store->Append(t_ms += 1000, row);
    }
    for (auto _ : state) {
      store->Append(t_ms += 1000, row);
    }
    state.SetItemsProcessed(state.iterations());
    return;
  }
  for (auto _ : state) {
    store = make_store();
    for (int i = 0; i < config.capacity; ++i) {
      store->Append(t_ms += 1000, row);
    }
  }
  state.SetItemsProcessed(state.iterations() * config.capacity);
}
BENCHMARK(BM_TimeSeriesAppend)->ArgName("full")->Arg(0)->Arg(1);

// The front end's per-tick process snapshot: /proc/self/statm plus a walk of
// /proc/self/fd.
void BM_ReadProcessStats(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReadProcessStats());
  }
}
BENCHMARK(BM_ReadProcessStats)->Unit(benchmark::kMicrosecond);

// One MetricHistogram::Observe of an integer-µs sample, as each loop tick,
// profiled callback and back-end request pays. The samples cycle through
// 1024 values spread over 1..65536 µs so the bucket varies.
void BM_HistogramObserve(benchmark::State& state) {
  std::vector<double> samples;
  for (uint32_t i = 0; i < 1024; ++i) {
    samples.push_back(static_cast<double>((i * 7919u) % 65536u + 1u));
  }
  MetricHistogram histogram;
  size_t next = 0;
  for (auto _ : state) {
    histogram.Observe(samples[next]);
    next = (next + 1) & 1023;
  }
  benchmark::DoNotOptimize(histogram.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(1);
  ZipfSampler zipf(40000, 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

}  // namespace
}  // namespace lard

BENCHMARK_MAIN();
