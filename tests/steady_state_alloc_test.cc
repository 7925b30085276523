// Pins the allocation-free steady state of the loop threads' serve and
// control paths: a control frame the socket takes is sent and received
// without a heap allocation, and a new connection's first request is parsed
// without copying it. The global operator new is replaced by one that counts
// per thread, so this file is its own test binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/http/request_parser.h"
#include "src/net/event_loop.h"
#include "src/net/framed_channel.h"
#include "src/net/socket.h"

namespace {
thread_local long t_allocations = 0;
}  // namespace

void* operator new(size_t size) {
  ++t_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace lard {
namespace {

bool WaitFor(const std::atomic<int>& value, int target) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (value.load() < target) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

TEST(SteadyStateAllocTest, FramedChannelSendAndReceiveAllocateNothing) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().second.get(), true).ok());
  // The sending channel's loop never runs: this thread drives its sends, so
  // its allocation count is this thread's. The receiving channel runs on a
  // loop thread of its own and counts there.
  EventLoop sender_loop;
  EventLoop receiver_loop;
  FramedChannel sender(&sender_loop, std::move(pair.value().first));
  FramedChannel receiver(&receiver_loop, std::move(pair.value().second));
  std::atomic<int> received{0};
  std::atomic<long> receive_allocations{0};
  std::atomic<bool> payloads_match{true};
  std::vector<std::string> payloads;
  for (int i = 0; i < 64; ++i) {
    payloads.push_back(std::string(16 + (i * 7) % 48, static_cast<char>('a' + i % 26)));
  }
  long allocations_at_last_message = 0;  // loop thread only
  // `auto`: the test reads the payload as a view, whatever type it arrives as.
  receiver.set_on_message([&](uint8_t type, auto payload, UniqueFd) {
    // Everything the loop thread allocated since the previous frame's
    // callback: the rest of that frame, epoll, the read and this frame.
    receive_allocations.fetch_add(t_allocations - allocations_at_last_message);
    allocations_at_last_message = t_allocations;
    if (std::string_view(payload) != payloads[static_cast<size_t>(type)]) {
      payloads_match.store(false);
    }
    received.fetch_add(1);
  });
  sender.Start();
  receiver.Start();
  std::thread loop_thread([&]() { receiver_loop.Run(); });

  // Warm-up: every payload once, so each buffer has grown to its largest.
  int sent = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    sender.Send(static_cast<uint8_t>(i), payloads[i]);
    ASSERT_TRUE(WaitFor(received, ++sent));
  }
  receive_allocations.store(0);
  long send_allocations = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const long before = t_allocations;
    sender.Send(static_cast<uint8_t>(i), payloads[i]);
    send_allocations += t_allocations - before;
    ASSERT_TRUE(WaitFor(received, ++sent));
  }
  receiver_loop.Stop();
  loop_thread.join();
  EXPECT_TRUE(sender.open());
  EXPECT_TRUE(payloads_match.load());
  EXPECT_EQ(send_allocations, 0) << "over " << payloads.size() << " sends";
  EXPECT_EQ(receive_allocations.load(), 0) << "over " << payloads.size() << " receives";
}

TEST(SteadyStateAllocTest, FirstRequestOfAConnectionIsParsedInPlace) {
  std::vector<HttpRequest> requests;
  requests.reserve(4);
  const std::string_view short_path = "GET /page3/a.html HTTP/1.1\r\n\r\n";
  long before = t_allocations;
  {
    RequestParser parser;  // fresh, as on each new connection
    ASSERT_EQ(parser.Feed(short_path, &requests), RequestParser::State::kNeedMore);
    EXPECT_EQ(t_allocations - before, 0);
    EXPECT_TRUE(parser.buffered().empty());
  }
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].path, "/page3/a.html");

  // A path longer than the string's inline capacity is the one allocation.
  const std::string_view long_path = "GET /page3/a-longer-document-name.html HTTP/1.1\r\n\r\n";
  before = t_allocations;
  {
    RequestParser parser;
    ASSERT_EQ(parser.Feed(long_path, &requests), RequestParser::State::kNeedMore);
    EXPECT_EQ(t_allocations - before, 1);
    EXPECT_TRUE(parser.buffered().empty());
  }
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[1].path, "/page3/a-longer-document-name.html");
}

// Every request of `requests` and the parser's unconsumed bytes, as one
// comparable string.
std::string Describe(const std::vector<HttpRequest>& requests, const RequestParser& parser) {
  std::string out;
  for (const HttpRequest& request : requests) {
    out += request.Serialize() + "|";
  }
  return out + "buffered[" + parser.buffered() + "]";
}

TEST(SteadyStateAllocTest, PipelinedBatchSplitAtEveryByteParsesTheSame) {
  const std::string batch =
      "GET /page1/index.html HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /p HTTP/1.1\r\n\r\n"
      "POST /form HTTP/1.1\r\nContent-Length: 19\r\n\r\nGET /not-a-request\r"
      "GET /page2/a-much-longer-document-name.html HTTP/1.1\r\nAccept: */*\r\n\r\n"
      "GET /page4/partial.html HTTP/1.1\r\nHo";
  RequestParser whole;
  std::vector<HttpRequest> expected_requests;
  ASSERT_EQ(whole.Feed(batch, &expected_requests), RequestParser::State::kNeedMore);
  ASSERT_EQ(expected_requests.size(), 4u);
  const std::string expected = Describe(expected_requests, whole);

  for (size_t split = 0; split <= batch.size(); ++split) {
    for (size_t second = split; second <= batch.size(); second += 13) {
      RequestParser parser;
      std::vector<HttpRequest> requests;
      const std::string_view view(batch);
      for (const std::string_view piece :
           {view.substr(0, split), view.substr(split, second - split), view.substr(second)}) {
        ASSERT_EQ(parser.Feed(piece, &requests), RequestParser::State::kNeedMore)
            << "split at " << split << " and " << second;
      }
      EXPECT_EQ(Describe(requests, parser), expected) << "split at " << split << " and " << second;
    }
  }
}

}  // namespace
}  // namespace lard
