#include "src/net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/util/logging.h"
#include "src/util/metrics.h"

namespace lard {

EventLoop::EventLoop() {
  epoll_fd_.Reset(::epoll_create1(EPOLL_CLOEXEC));
  LARD_CHECK(epoll_fd_.valid()) << "epoll_create1 failed";
  wakeup_fd_.Reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  LARD_CHECK(wakeup_fd_.valid()) << "eventfd failed";

  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wakeup_fd_.get();
  LARD_CHECK(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wakeup_fd_.get(), &event) == 0);
}

EventLoop::~EventLoop() = default;

int64_t EventLoop::NowNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t EventLoop::NowUs() { return NowNs() / 1000; }

void EventLoop::EnableProfiling(MetricsRegistry* metrics, const std::string& label) {
  LARD_CHECK(metrics != nullptr);
  LARD_CHECK(!running_.load()) << "EnableProfiling must precede Run()";
  const std::string suffix = "{loop=\"" + label + "\"}";
  tick_us_ = metrics->Histogram("lard_loop_tick_us" + suffix);
  callback_us_ = metrics->Histogram("lard_loop_callback_us" + suffix);
  wakeup_delay_us_ = metrics->Histogram("lard_loop_wakeup_delay_us" + suffix);
  pending_tasks_ = metrics->Gauge("lard_loop_pending_tasks" + suffix);
  profiling_.store(true, std::memory_order_release);
}

template <typename Fn>
void EventLoop::RunTimed(Fn&& fn) {
  if (!profiling_.load(std::memory_order_relaxed)) {
    fn();
    return;
  }
  const int64_t start = NowUs();
  fn();
  callback_us_->Observe(static_cast<double>(NowUs() - start));
}

void EventLoop::AssertInLoopThread() const {
  if (IsInLoopThread() || !running_.load(std::memory_order_acquire)) {
    return;  // on the loop thread, or single-threaded setup/teardown
  }
#ifndef NDEBUG
  LARD_CHECK(false) << "loop-confined state touched off its loop thread";
#else
  pinning_violations_.fetch_add(1, std::memory_order_relaxed);
#endif
}

void EventLoop::Register(int fd, uint32_t events, IoCallback callback) {
  AssertInLoopThread();
  LARD_CHECK(handlers_.find(fd) == handlers_.end()) << "fd " << fd << " already registered";
  handlers_[fd] = std::make_shared<IoCallback>(std::move(callback));
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  LARD_CHECK(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &event) == 0)
      << "epoll_ctl(ADD) fd=" << fd;
}

void EventLoop::Modify(int fd, uint32_t events) {
  AssertInLoopThread();
  LARD_CHECK(handlers_.find(fd) != handlers_.end()) << "fd " << fd << " not registered";
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  LARD_CHECK(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &event) == 0)
      << "epoll_ctl(MOD) fd=" << fd;
}

void EventLoop::Unregister(int fd) {
  AssertInLoopThread();
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) {
    return;
  }
  handlers_.erase(it);
  // The fd may already be closed by the owner; ignore ENOENT/EBADF.
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

EventLoop::TimerId EventLoop::ScheduleAfterMs(int64_t delay_ms, std::function<void()> fn) {
  AssertInLoopThread();
  const TimerId id = next_timer_id_++;
  timer_fns_[id] = std::move(fn);
  timers_.push_back(Timer{NowNs() + delay_ms * 1000000, id});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<Timer>());
  return id;
}

void EventLoop::CancelTimer(TimerId id) {
  AssertInLoopThread();
  if (timer_fns_.erase(id) == 0) {
    return;  // unknown or already fired
  }
  // The heap entry is now a tombstone; sweep once the dead outweigh the live
  // so cancel-heavy workloads on long timers stay O(live).
  ++heap_cancelled_;
  if (heap_cancelled_ >= 16 && heap_cancelled_ * 2 > timers_.size()) {
    PurgeCancelledTimers();
  }
}

void EventLoop::PurgeCancelledTimers() {
  timers_.erase(std::remove_if(timers_.begin(), timers_.end(),
                               [this](const Timer& timer) {
                                 return timer_fns_.find(timer.id) == timer_fns_.end();
                               }),
                timers_.end());
  std::make_heap(timers_.begin(), timers_.end(), std::greater<Timer>());
  heap_cancelled_ = 0;
}

void EventLoop::Post(std::function<void()> task) {
  PostedTask entry;
  entry.fn = std::move(task);
  if (profiling_.load(std::memory_order_acquire)) {
    entry.enqueue_us = NowUs();
  }
  {
    MutexLock lock(&tasks_mutex_);
    tasks_.push_back(std::move(entry));
  }
  pending_count_.fetch_add(1, std::memory_order_release);
  // A post from the loop thread itself needs no eventfd write: the loop is
  // between callbacks right now, and NextTimeoutMs() sees pending_count_ > 0
  // so the next epoll_wait returns immediately and drains the queue.
  if (!IsInLoopThread()) {
    Wakeup();
  }
}

void EventLoop::Wakeup() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakeup_fd_.get(), &one, sizeof(one));
}

void EventLoop::DrainTasks() {
  // Fast path: the queue is empty in the common iteration; skip the mutex. A
  // concurrent Post() that this load misses also wrote the eventfd, so the
  // next epoll_wait wakes immediately and the following drain sees it.
  if (pending_count_.load(std::memory_order_acquire) == 0) {
    return;
  }
  std::deque<PostedTask> tasks;
  {
    MutexLock lock(&tasks_mutex_);
    tasks.swap(tasks_);
  }
  pending_count_.fetch_sub(tasks.size(), std::memory_order_release);
  const bool profiling = profiling_.load(std::memory_order_relaxed);
  if (profiling) {
    pending_tasks_->Set(static_cast<double>(tasks.size()));
  }
  for (auto& task : tasks) {
    if (profiling && task.enqueue_us > 0) {
      wakeup_delay_us_->Observe(static_cast<double>(NowUs() - task.enqueue_us));
    }
    RunTimed(task.fn);
  }
}

int EventLoop::NextTimeoutMs() {
  // Tasks posted after the last drain (e.g. by the loop thread itself, which
  // skips the eventfd) must run now, not after a 100ms nap.
  if (pending_count_.load(std::memory_order_acquire) > 0) {
    return 0;
  }
  // Skip cancelled timers sitting at the heap top.
  while (!timers_.empty() && timer_fns_.find(timers_.front().id) == timer_fns_.end()) {
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<Timer>());
    timers_.pop_back();
    if (heap_cancelled_ > 0) {
      --heap_cancelled_;
    }
  }
  int64_t delta = 100;  // wake periodically so Stop() is prompt even without timers
  if (!timers_.empty()) {
    // Round up: a wait that ends before the deadline would fire nothing.
    const int64_t until_ns = timers_.front().deadline_ns - NowNs();
    delta = std::min<int64_t>(delta, (until_ns + 999999) / 1000000);
  }
  return static_cast<int>(std::max<int64_t>(delta, 0));
}

void EventLoop::FireDueTimers() {
  const int64_t now = NowNs();
  while (!timers_.empty() && timers_.front().deadline_ns <= now) {
    const Timer timer = timers_.front();
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<Timer>());
    timers_.pop_back();
    auto it = timer_fns_.find(timer.id);
    if (it == timer_fns_.end()) {
      if (heap_cancelled_ > 0) {
        --heap_cancelled_;
      }
      continue;  // cancelled tombstone reaching its original deadline
    }
    auto fn = std::move(it->second);
    timer_fns_.erase(it);
    RunTimed(fn);
  }
}

void EventLoop::Run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  running_.store(true);
  epoll_event events[64];
  while (!stop_requested_.load()) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, 64, NextTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      LARD_LOG(FATAL) << "epoll_wait: " << std::strerror(errno);
    }
    const bool profiling = profiling_.load(std::memory_order_relaxed);
    const int64_t tick_start = profiling ? NowUs() : 0;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_fd_.get()) {
        uint64_t drain = 0;
        while (::read(wakeup_fd_.get(), &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      // Look the handler up fresh: an earlier callback in this batch may have
      // unregistered this fd.
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) {
        continue;
      }
      auto handler = it->second;  // keep alive across the call
      RunTimed([&]() { (*handler)(events[i].events); });
    }
    DrainTasks();
    FireDueTimers();
    if (profiling) {
      // Work done this iteration, excluding the epoll wait itself.
      tick_us_->Observe(static_cast<double>(NowUs() - tick_start));
    }
  }
  running_.store(false);
  // Final drain so no posted task is silently dropped at shutdown.
  DrainTasks();
}

void EventLoop::Stop() {
  stop_requested_.store(true);
  running_.store(false);
  Wakeup();
}

}  // namespace lard
