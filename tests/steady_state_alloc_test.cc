// Pins the allocation-free steady state of the loop threads' serve and
// control paths: a control frame the socket takes is sent and received
// without a heap allocation, a new connection's first request is parsed
// without copying it, a response head allocates its header list once, a
// reused request batch keeps its capacity up to a bound, and an LRU cache
// that holds its working set allocates nothing. The global
// operator new and delete are replaced by ones that count per thread, so this
// file is its own test binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/lru_cache.h"
#include "src/http/http_message.h"
#include "src/http/request_parser.h"
#include "src/net/event_loop.h"
#include "src/net/framed_channel.h"
#include "src/net/socket.h"
#include "src/util/capacity.h"
#include "src/util/rng.h"

namespace {
thread_local long t_allocations = 0;
thread_local long t_allocated_bytes = 0;
thread_local long t_frees = 0;
}  // namespace

void* operator new(size_t size) {
  ++t_allocations;
  t_allocated_bytes += static_cast<long>(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void operator delete(void* p) noexcept {
  if (p != nullptr) {
    ++t_frees;
  }
  std::free(p);
}
void operator delete(void* p, size_t) noexcept {
  if (p != nullptr) {
    ++t_frees;
  }
  std::free(p);
}
// The array forms too: a sanitizer runtime would otherwise serve them itself.
void* operator new[](size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, size_t size) noexcept { operator delete(p, size); }

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

// A back end's response head has two or three headers (BeginResponse
// reserves three), so its list grows once, not 1 -> 2 -> 4.
TEST(SteadyStateAllocTest, HeadWithThreeHeadersAllocatesItsListOnce) {
  HttpResponse response;
  const long before = t_allocations;
  response.headers.Reserve(3);
  response.headers.Add("Content-Type", "text/html");
  response.headers.Add("Connection", "close");
  response.headers.Add("Server", "lard");
  EXPECT_EQ(t_allocations - before, 1);  // names and values fit inline
}

// A loop's request batch keeps its capacity between reads up to
// kKeepBatchRequests; a longer pipelined burst releases it.
TEST(SteadyStateAllocTest, RequestBatchKeepsItsCapacityUpToTheBound) {
  std::vector<HttpRequest> batch(RequestParser::kKeepBatchRequests);
  ClearKeeping(&batch, RequestParser::kKeepBatchRequests);
  EXPECT_TRUE(batch.empty());
  const long before = t_allocations;
  batch.resize(RequestParser::kKeepBatchRequests);
  EXPECT_EQ(t_allocations - before, 0);
  batch.resize(RequestParser::kKeepBatchRequests + 1);
  ClearKeeping(&batch, RequestParser::kKeepBatchRequests);
  EXPECT_EQ(batch.capacity(), 0u);
}

// Slot pages are 256 slots of 16 B.
constexpr long kPageBytes = 4096;

// Growing to 1,000 entries takes four slot pages, which stay where they are.
// Besides them only the index (8 positions, doubling to 2,048) and the
// four-entry page table (1 -> 2 -> 4 pointers of 8 B) allocate, and only
// their outgrown blocks are freed. (Frees are counted, not their bytes: a
// compiler without sized deallocation calls the unsized delete.)
TEST(SteadyStateAllocTest, LruGrowthAllocatesPagesAndFreesNone) {
  LruCache cache(1 << 20);
  const long allocations = t_allocations;
  const long allocated = t_allocated_bytes;
  const long frees = t_frees;
  for (TargetId id = 0; id < 1000; ++id) {
    ASSERT_TRUE(cache.Insert(id * 7919, 100));
  }
  // Read before any expectation, whose failure message would allocate.
  const long grown_allocations = t_allocations - allocations;
  const long grown_allocated = t_allocated_bytes - allocated;
  const long grown_frees = t_frees - frees;
  ASSERT_EQ(cache.entry_count(), 1000u);
  long index_bytes = 0;  // every index block allocated
  for (long positions = 8; positions <= 2048; positions *= 2) {
    index_bytes += positions * 4;
  }
  const long table_bytes = 8 * (1 + 2 + 4);
  EXPECT_EQ(grown_allocations, 4 + 9 + 3);
  EXPECT_EQ(grown_allocated, 4 * kPageBytes + index_bytes + table_bytes);
  EXPECT_EQ(grown_frees, 8 + 2);  // outgrown index and page-table blocks
}

// Once a cache's pages and index have grown to its working set, hits, misses
// and the evictions they cause allocate nothing.
TEST(SteadyStateAllocTest, LruAtItsWorkingSetAllocatesNothing) {
  LruCache cache(600 * 1000);  // about 600 of 2,000 objects of 500-1,499 B
  Rng rng(3);
  std::vector<TargetId> evicted;
  evicted.reserve(64);
  size_t evictions = 0;
  const auto run = [&](int ops) {
    for (int op = 0; op < ops; ++op) {
      const TargetId id = static_cast<TargetId>(rng.NextBelow(2000));
      if (!cache.Touch(id)) {
        evicted.clear();
        cache.Insert(id, 500 + id % 1000, &evicted);
        evictions += evicted.size();
      }
    }
  };
  run(100000);  // warm-up: the resident count has peaked
  evictions = 0;
  const long before = t_allocations;
  run(100000);
  EXPECT_EQ(t_allocations - before, 0);
  EXPECT_GT(evictions, 10000u);
}

}  // namespace
}  // namespace lard
