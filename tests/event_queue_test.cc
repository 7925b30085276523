#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/resources.h"

namespace lard {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(30, [&]() { order.push_back(3); });
  queue.ScheduleAt(10, [&]() { order.push_back(1); });
  queue.ScheduleAt(20, [&]() { order.push_back(2); });
  EXPECT_EQ(queue.RunUntilEmpty(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now_us(), 30);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.ScheduleAt(5, [&order, i]() { order.push_back(i); });
  }
  queue.RunUntilEmpty();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, CallbacksMayScheduleMore) {
  EventQueue queue;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) {
      queue.ScheduleAfter(10, chain);
    }
  };
  queue.ScheduleAt(0, chain);
  queue.RunUntilEmpty();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(queue.now_us(), 40);
}

TEST(EventQueueTest, ScheduleAfterRounds) {
  EventQueue queue;
  bool fired = false;
  queue.ScheduleAfter(1.4, [&]() { fired = true; });
  queue.RunUntilEmpty();
  EXPECT_TRUE(fired);
  EXPECT_EQ(queue.now_us(), 1);
}

TEST(FifoServerTest, SerializesWork) {
  EventQueue queue;
  FifoServer server(&queue);
  std::vector<int64_t> completions;
  server.Submit(100, [&]() { completions.push_back(queue.now_us()); });
  server.Submit(50, [&]() { completions.push_back(queue.now_us()); });
  EXPECT_EQ(server.queue_length(), 2);
  queue.RunUntilEmpty();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], 100);
  EXPECT_EQ(completions[1], 150);  // FIFO: starts after the first finishes
  EXPECT_EQ(server.queue_length(), 0);
  EXPECT_DOUBLE_EQ(server.total_busy_us(), 150.0);
}

TEST(FifoServerTest, IdleGapsDoNotAccrueBusyTime) {
  EventQueue queue;
  FifoServer server(&queue);
  server.Submit(10, []() {});
  queue.RunUntilEmpty();
  // Later work after an idle gap.
  queue.ScheduleAt(100, [&]() { server.Submit(10, []() {}); });
  queue.RunUntilEmpty();
  EXPECT_EQ(queue.now_us(), 110);
  EXPECT_DOUBLE_EQ(server.total_busy_us(), 20.0);
  EXPECT_NEAR(server.Utilization(), 20.0 / 110.0, 1e-9);
}

TEST(DiskServerTest, UsesServiceTimeModel) {
  EventQueue queue;
  DiskCostModel costs;
  DiskServer disk(&queue, costs);
  int64_t completed_at = -1;
  disk.Read(4096, [&]() { completed_at = queue.now_us(); });
  EXPECT_EQ(disk.queue_length(), 1);
  queue.RunUntilEmpty();
  EXPECT_EQ(completed_at, static_cast<int64_t>(DiskServiceTimeUs(costs, 4096)));
  EXPECT_EQ(disk.queue_length(), 0);
}

TEST(DiskServerTest, QueueLengthTracksBacklog) {
  EventQueue queue;
  DiskCostModel costs;
  DiskServer disk(&queue, costs);
  for (int i = 0; i < 5; ++i) {
    disk.Read(4096, []() {});
  }
  EXPECT_EQ(disk.queue_length(), 5);
  queue.RunUntilEmpty();
  EXPECT_EQ(disk.queue_length(), 0);
}

}  // namespace
}  // namespace lard
