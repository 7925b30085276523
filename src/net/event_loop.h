// Single-threaded epoll event loop: the execution substrate for the
// prototype's front-end and back-end components (one loop thread each, like
// the paper's kernel-resident protocol contexts).
//
// Threading contract: Register/Modify/Unregister and timer APIs must be
// called on the loop thread; Post() and Stop() may be called from any thread.
#ifndef SRC_NET_EVENT_LOOP_H_
#define SRC_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/fd.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace lard {

class MetricsRegistry;
class MetricHistogram;
class MetricGauge;

class EventLoop {
 public:
  using IoCallback = std::function<void(uint32_t epoll_events)>;
  using TimerId = uint64_t;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Watches `fd` for `events` (EPOLLIN/EPOLLOUT/...). The loop does not own
  // the fd. One registration per fd.
  void Register(int fd, uint32_t events, IoCallback callback);
  void Modify(int fd, uint32_t events);
  void Unregister(int fd);

  // Runs `fn` once on the loop thread, never before `delay_ms` has passed
  // and usually within a millisecond after it. Timers armed with equal
  // delays fire in arming order.
  TimerId ScheduleAfterMs(int64_t delay_ms, std::function<void()> fn);
  void CancelTimer(TimerId id);
  // Live timers (cancelled tombstones excluded).
  size_t pending_timers() const { return timer_fns_.size(); }
  // Heap entries including cancelled tombstones — tests assert the purge
  // keeps this O(live) under cancel churn.
  size_t timer_heap_size() const { return timers_.size(); }

  // Enqueues `task` for execution on the loop thread (thread-safe).
  void Post(std::function<void()> task);

  // Publishes loop health into `metrics` under a {loop="<label>"} label:
  // lard_loop_tick_us (work per iteration, excluding the epoll wait),
  // lard_loop_callback_us (per I/O handler / task / timer run time),
  // lard_loop_pending_tasks (posted-queue depth at each drain) and
  // lard_loop_wakeup_delay_us (Post() enqueue to execution latency — the
  // reactor's scheduling lag). Must be called before Run() starts; the
  // instruments then cost two clock reads per callback and nothing when
  // profiling was never enabled.
  void EnableProfiling(MetricsRegistry* metrics, const std::string& label);
  // The wakeup-delay histogram and pending-task gauge EnableProfiling
  // registered; null when profiling is off. Stable from before Run(), so
  // any thread may read them.
  MetricHistogram* wakeup_delay_histogram() const { return wakeup_delay_us_; }
  MetricGauge* pending_tasks_gauge() const { return pending_tasks_; }

  // Runs until Stop(). Must be called from exactly one thread, which becomes
  // the loop thread.
  void Run();
  // Signals the loop to exit (thread-safe), also when called before Run().
  void Stop();

  // Thread-safe: RunOnLoop-style helpers call this from arbitrary threads
  // while the loop thread publishes its id at Run() entry.
  bool IsInLoopThread() const {
    return std::this_thread::get_id() == loop_thread_.load(std::memory_order_acquire);
  }

  // Pinning contract enforcement: fatal in debug builds when called off the
  // loop thread while the loop is running; release builds count the
  // violation (see pinning_violations()) and keep serving. Passes before
  // Run() / after Stop(), when setup and teardown legally happen on the
  // owner thread. Loop-confined mutation paths (LoopShard state, Connection
  // maps, the loop's own fd/timer tables) call this at the top.
  void AssertInLoopThread() const;
  // Off-thread touches observed by AssertInLoopThread in release builds.
  // Stays 0 in a correct run; scraped into tests and health checks.
  uint64_t pinning_violations() const {
    return pinning_violations_.load(std::memory_order_relaxed);
  }

 private:
  struct Timer {
    int64_t deadline_ns = 0;  // ns, so arming never rounds a deadline down
    TimerId id = 0;
    bool operator>(const Timer& other) const {
      return deadline_ns != other.deadline_ns ? deadline_ns > other.deadline_ns : id > other.id;
    }
  };

  static int64_t NowNs();
  static int64_t NowUs();
  void Wakeup();
  void DrainTasks();
  int NextTimeoutMs();
  void FireDueTimers();
  // Rebuilds timers_ without its cancelled tombstones (CancelTimer calls
  // this once the dead fraction crosses a threshold, so a cancel-heavy
  // workload on long timers stays O(live), not O(ever-scheduled)).
  void PurgeCancelledTimers();
  // Runs `fn`, observing its duration into the callback histogram when
  // profiling is on.
  template <typename Fn>
  void RunTimed(Fn&& fn);

  UniqueFd epoll_fd_;
  UniqueFd wakeup_fd_;  // eventfd
  std::atomic<bool> running_{false};
  // Set by Stop() and never cleared, so a Stop() that lands before the loop
  // thread reaches Run() still ends it (running_ alone would be overwritten
  // by Run()'s entry store).
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::thread::id> loop_thread_{};

  // fd -> callback; shared_ptr so a handler staying alive through dispatch is
  // safe even if Unregister runs from inside another handler.
  std::unordered_map<int, std::shared_ptr<IoCallback>> handlers_;

  // Posted tasks carry their enqueue time so wakeup-to-run latency is
  // measurable; the timestamp is only taken while profiling is enabled.
  struct PostedTask {
    std::function<void()> fn;
    int64_t enqueue_us = 0;
  };
  Mutex tasks_mutex_;
  std::deque<PostedTask> tasks_ LARD_GUARDED_BY(tasks_mutex_);
  // Lock-free mirror of tasks_.size(): DrainTasks() skips the mutex entirely
  // when nothing is pending (the steady-state case — the drain runs every
  // loop iteration), and NextTimeoutMs() returns 0 while tasks wait so a
  // self-post during a drain is picked up next iteration without an eventfd
  // round trip.
  std::atomic<size_t> pending_count_{0};

  // Profiling instruments (EnableProfiling). The flag is atomic so Post()
  // may consult it from any thread; the pointers are written before the loop
  // thread starts and never change.
  std::atomic<bool> profiling_{false};
  MetricHistogram* tick_us_ = nullptr;
  MetricHistogram* callback_us_ = nullptr;
  MetricHistogram* wakeup_delay_us_ = nullptr;
  MetricGauge* pending_tasks_ = nullptr;

  // Loop-confined (no mutex by design): handlers_, timers_, timer_fns_ and
  // next_timer_id_ are only touched from the loop thread —
  // AssertInLoopThread() guards the mutating entry points at runtime and
  // tools/lint/concurrency_lint.py checks the callers statically.
  //
  // Timers: timers_ is a min-heap (std::*_heap over a vector) of deadlines
  // and timer_fns_ maps each live id to its callback. A cancelled timer
  // leaves a tombstone in timers_ until it reaches the top or
  // PurgeCancelledTimers sweeps it; heap_cancelled_ counts the live
  // tombstones so the sweep triggers on the dead fraction.
  std::vector<Timer> timers_;
  std::unordered_map<TimerId, std::function<void()>> timer_fns_;
  size_t heap_cancelled_ = 0;
  TimerId next_timer_id_ = 1;
  mutable std::atomic<uint64_t> pinning_violations_{0};
};

}  // namespace lard

#endif  // SRC_NET_EVENT_LOOP_H_
