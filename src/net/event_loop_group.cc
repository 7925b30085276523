#include "src/net/event_loop_group.h"

#include "src/util/logging.h"

namespace lard {

EventLoopGroup::EventLoopGroup(int num_loops) {
  LARD_CHECK(num_loops >= 1) << "EventLoopGroup needs at least one loop";
  loops_.reserve(static_cast<size_t>(num_loops));
  for (int i = 0; i < num_loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
  }
}

EventLoopGroup::~EventLoopGroup() { Stop(); }

void EventLoopGroup::RunOn(int loop_idx, std::function<void()> fn) {
  EventLoop* target = loop(loop_idx);
  if (!started_.load(std::memory_order_acquire) || target->IsInLoopThread()) {
    fn();
    return;
  }
  target->Post(std::move(fn));
}

void EventLoopGroup::EnableProfiling(MetricsRegistry* metrics, const std::string& label_prefix) {
  LARD_CHECK(threads_.empty()) << "EnableProfiling must precede Start()";
  for (size_t i = 0; i < loops_.size(); ++i) {
    const std::string label =
        i == 0 ? label_prefix : label_prefix + "." + std::to_string(i);
    loops_[i]->EnableProfiling(metrics, label);
  }
}

void EventLoopGroup::Start() {
  LARD_CHECK(threads_.empty()) << "EventLoopGroup already started";
  started_.store(true, std::memory_order_release);
  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    EventLoop* raw = loop.get();
    threads_.emplace_back([raw]() { raw->Run(); });
  }
}

void EventLoopGroup::Stop() {
  for (auto& loop : loops_) {
    loop->Stop();
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  threads_.clear();
}

}  // namespace lard
