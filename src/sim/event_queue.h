// Discrete-event simulation core: a clock and a time-ordered queue of
// callbacks. Deterministic: ties in time are broken by insertion order.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/util/logging.h"

namespace lard {

using SimTimeUs = int64_t;

class EventQueue {
 public:
  // Schedules `fn` to run at absolute simulated time `when_us` (>= now).
  void ScheduleAt(SimTimeUs when_us, std::function<void()> fn);
  // Schedules `fn` to run `delay_us` from now.
  void ScheduleAfter(double delay_us, std::function<void()> fn);

  // Runs events until the queue drains. Returns the number of events run.
  uint64_t RunUntilEmpty();

  SimTimeUs now_us() const { return now_us_; }
  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    SimTimeUs when_us = 0;
    uint64_t seq = 0;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when_us != b.when_us) {
        return a.when_us > b.when_us;
      }
      return a.seq > b.seq;
    }
  };

  SimTimeUs now_us_ = 0;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

}  // namespace lard

#endif  // SRC_SIM_EVENT_QUEUE_H_
