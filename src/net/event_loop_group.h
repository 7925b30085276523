// A reactor-per-core bundle of EventLoops: N epoll loops, one thread each.
// The group is the execution substrate for a multi-loop front-end process —
// loop 0 is the control-plane loop (admin, back-end control sessions, mesh
// gossip), loops 1..N-1 carry sharded client connections. With size() == 1
// the group degenerates to exactly the old one-loop-per-process shape.
//
// Threading contract: construction, Start() and Stop() happen on the owner's
// thread; loop(i) pointers are stable for the group's lifetime and may be
// shared across threads (EventLoop::Post is thread-safe). Before Start() the
// loops have no threads and the owner wires them directly. RunOn() may be
// called from any thread, including a loop thread targeting itself (runs
// inline) or a sibling loop (posts).
#ifndef SRC_NET_EVENT_LOOP_GROUP_H_
#define SRC_NET_EVENT_LOOP_GROUP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/event_loop.h"

namespace lard {

class MetricsRegistry;

class EventLoopGroup {
 public:
  // `num_loops` >= 1. The loops exist (and accept Post()) from construction;
  // their threads spin up in Start().
  explicit EventLoopGroup(int num_loops);
  ~EventLoopGroup();

  EventLoopGroup(const EventLoopGroup&) = delete;
  EventLoopGroup& operator=(const EventLoopGroup&) = delete;

  int size() const { return static_cast<int>(loops_.size()); }
  EventLoop* loop(int idx) { return loops_[static_cast<size_t>(idx)].get(); }

  // Round-robin pick for spreading new work (thread-safe). Prefer per-loop
  // SO_REUSEPORT accept when available; this backs the portable fallback.
  int NextLoopIndex() {
    return static_cast<int>(next_.fetch_add(1, std::memory_order_relaxed) % loops_.size());
  }

  // Runs `fn` on loop `loop_idx`: inline when already on that loop's thread
  // or before Start() (the owner's single-threaded setup), otherwise via
  // EventLoop::Post (fire-and-forget).
  void RunOn(int loop_idx, std::function<void()> fn);

  // Publishes per-loop health metrics as {loop="<prefix>"} for loop 0 and
  // {loop="<prefix>.<n>"} for loops >= 1 — so a single-loop group keeps the
  // exact label the one-loop front-end always had. Must precede Start().
  void EnableProfiling(MetricsRegistry* metrics, const std::string& label_prefix);

  // Spawns one thread per loop and runs them. Idempotent-hostile: call once.
  void Start();
  // Stops every loop and joins the threads. Safe to call more than once.
  void Stop();

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;
  // Set by Start() before the first thread spawns; RunOn reads it from any
  // thread.
  std::atomic<bool> started_{false};
  std::atomic<uint64_t> next_{0};
};

}  // namespace lard

#endif  // SRC_NET_EVENT_LOOP_GROUP_H_
