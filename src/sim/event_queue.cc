#include "src/sim/event_queue.h"

#include <cmath>

namespace lard {

void EventQueue::ScheduleAt(SimTimeUs when_us, std::function<void()> fn) {
  LARD_CHECK(when_us >= now_us_) << "scheduling into the past: " << when_us << " < " << now_us_;
  heap_.push(Event{when_us, next_seq_++, std::move(fn)});
}

void EventQueue::ScheduleAfter(double delay_us, std::function<void()> fn) {
  LARD_CHECK(delay_us >= 0.0);
  ScheduleAt(now_us_ + static_cast<SimTimeUs>(std::llround(delay_us)), std::move(fn));
}

uint64_t EventQueue::RunUntilEmpty() {
  uint64_t count = 0;
  while (!heap_.empty()) {
    // Move out before pop so the callback may schedule more events.
    Event event = heap_.top();
    heap_.pop();
    now_us_ = event.when_us;
    event.fn();
    ++count;
  }
  return count;
}

}  // namespace lard
