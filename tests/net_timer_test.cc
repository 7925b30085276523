// EventLoop timer tests against the real clock: a deadline never fires early,
// equal-delay timers fire in arming order, a callback can cancel a sibling due
// in the same pass, and cancel churn on long timers leaves no tombstone pile.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "src/net/event_loop.h"

namespace lard {
namespace {

using Clock = std::chrono::steady_clock;

class LoopTimerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thread_ = std::thread([this]() { loop_.Run(); });
  }
  void TearDown() override {
    loop_.Stop();
    thread_.join();
  }
  void RunOnLoop(std::function<void()> fn) {
    std::promise<void> done;
    loop_.Post([&]() {
      fn();
      done.set_value();
    });
    done.get_future().wait();
  }
  // Blocks the loop thread past every deadline armed so far, so those timers
  // all come due in the loop's next timer pass.
  static void HoldLoop() { std::this_thread::sleep_for(std::chrono::milliseconds(10)); }

  EventLoop loop_;
  std::thread thread_;
};

TEST_F(LoopTimerTest, NeverFiresEarly) {
  for (const int64_t delay_ms : {1, 5, 20}) {
    for (int round = 0; round < 5; ++round) {
      std::promise<Clock::duration> fired;
      Clock::time_point armed_at;
      bool done = false;
      // Keeps the loop spinning until the timer fires (a self-post makes the
      // next epoll wait zero), so a deadline rounded down to the millisecond
      // would fire at the first pass after that earlier instant.
      std::function<void()> spin = [&]() {
        if (!done) {
          loop_.Post(spin);
        }
      };
      RunOnLoop([&]() {
        armed_at = Clock::now();
        loop_.ScheduleAfterMs(delay_ms, [&]() {
          done = true;
          fired.set_value(Clock::now() - armed_at);
        });
        spin();
      });
      const Clock::duration elapsed = fired.get_future().get();
      RunOnLoop([]() {});  // the last queued spin runs before its captures die
      EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count(),
                delay_ms * 1000)
          << "delay " << delay_ms << " ms, round " << round;
    }
  }
}

TEST_F(LoopTimerTest, EqualDelayTimersFireInArmingOrder) {
  // DiskGate's FCFS order rides on this: reads it schedules back to back
  // complete in the order they were queued.
  std::vector<int> order;
  std::promise<void> done;
  RunOnLoop([&]() {
    for (int i = 1; i <= 4; ++i) {
      loop_.ScheduleAfterMs(5, [&order, i]() { order.push_back(i); });
    }
    loop_.ScheduleAfterMs(5, [&]() { done.set_value(); });
    HoldLoop();
  });
  done.get_future().wait();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST_F(LoopTimerTest, CallbackCancelsSiblingDueInSamePass) {
  std::vector<int> order;
  std::promise<void> done;
  EventLoop::TimerId sibling = 0;
  RunOnLoop([&]() {
    loop_.ScheduleAfterMs(5, [&]() {
      order.push_back(1);
      loop_.CancelTimer(sibling);
    });
    sibling = loop_.ScheduleAfterMs(5, [&]() { order.push_back(2); });
    loop_.ScheduleAfterMs(5, [&]() { done.set_value(); });
    HoldLoop();
  });
  done.get_future().wait();
  EXPECT_EQ(order, (std::vector<int>{1}));
  RunOnLoop([&]() { EXPECT_EQ(loop_.pending_timers(), 0u); });
}

TEST_F(LoopTimerTest, CancelHeavyChurnPurgesHeapTombstones) {
  // Cancelling nearly every long timer must not leave O(cancelled)
  // tombstones behind in the heap.
  RunOnLoop([&]() {
    std::vector<EventLoop::TimerId> ids;
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 100; ++i) {
        ids.push_back(loop_.ScheduleAfterMs(3'600'000, []() { ADD_FAILURE(); }));
      }
      for (EventLoop::TimerId id : ids) {
        loop_.CancelTimer(id);
      }
      ids.clear();
    }
    EXPECT_EQ(loop_.pending_timers(), 0u);
    // 5000 cancels must not leave 5000 tombstones: the purge keeps the heap
    // proportional to the live population (here, none).
    EXPECT_LE(loop_.timer_heap_size(), 128u);
  });
}

}  // namespace
}  // namespace lard
