#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/net/event_loop_group.h"
#include "src/net/fd.h"
#include "src/net/framed_channel.h"
#include "src/net/socket.h"

namespace lard {
namespace {

// Helper: run a loop on a thread, with setup/teardown marshalled onto it.
class LoopFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    thread_ = std::thread([this]() { loop_.Run(); });
  }
  void TearDown() override {
    loop_.Stop();
    thread_.join();
  }
  // Runs fn on the loop thread, waits for completion.
  void OnLoop(std::function<void()> fn) {
    std::promise<void> done;
    loop_.Post([&]() {
      fn();
      done.set_value();
    });
    done.get_future().wait();
  }

  EventLoop loop_;
  std::thread thread_;
};

TEST(UniqueFdTest, ClosesOnDestruction) {
  int raw;
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    UniqueFd a(fds[0]);
    UniqueFd b(fds[1]);
    raw = fds[0];
    EXPECT_TRUE(a.valid());
  }
  // fd should now be closed: fcntl fails.
  EXPECT_EQ(::fcntl(raw, F_GETFD), -1);
}

TEST(UniqueFdTest, MoveTransfersOwnership) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  UniqueFd a(fds[0]);
  UniqueFd b(fds[1]);
  UniqueFd moved = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(moved.get(), fds[0]);
}

TEST(SocketTest, ListenConnectRoundTrip) {
  uint16_t port = 0;
  auto listener = ListenTcp(0, &port);
  ASSERT_TRUE(listener.ok());
  ASSERT_NE(port, 0);
  auto client = ConnectTcp(port);
  ASSERT_TRUE(client.ok());
  const int accepted = ::accept(listener.value().get(), nullptr, nullptr);
  ASSERT_GE(accepted, 0);
  UniqueFd server(accepted);
  ASSERT_EQ(::send(client.value().get(), "ping", 4, 0), 4);
  char buf[8] = {0};
  ASSERT_EQ(::recv(server.get(), buf, sizeof(buf), 0), 4);
  EXPECT_STREQ(buf, "ping");
}

TEST(SocketTest, AcceptAllDrainsTheBacklogInOneCall) {
  constexpr int kPending = 32;
  uint16_t port = 0;
  auto listener = ListenTcp(0, &port);
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(SetNonBlocking(listener.value().get(), true).ok());
  std::vector<UniqueFd> clients;
  for (int i = 0; i < kPending; ++i) {
    auto client = ConnectTcp(port);
    ASSERT_TRUE(client.ok());
    clients.push_back(std::move(client.value()));
  }

  std::vector<UniqueFd> accepted;
  EXPECT_EQ(AcceptAll(listener.value().get(),
                      [&](UniqueFd fd) { accepted.push_back(std::move(fd)); }),
            0)
      << "an empty backlog (EAGAIN) ends the call without an error";
  ASSERT_EQ(accepted.size(), static_cast<size_t>(kPending));
  for (const UniqueFd& fd : accepted) {
    EXPECT_NE(::fcntl(fd.get(), F_GETFL) & O_NONBLOCK, 0);
    EXPECT_NE(::fcntl(fd.get(), F_GETFD) & FD_CLOEXEC, 0);
  }
  EXPECT_EQ(AcceptAll(listener.value().get(), [&](UniqueFd fd) {
              accepted.push_back(std::move(fd));
            }),
            0);
  EXPECT_EQ(accepted.size(), static_cast<size_t>(kPending));
}

TEST(SocketTest, AcceptAllShedsPendingConnectionsWhenTheFdTableIsFull) {
  uint16_t port = 0;
  auto listener = ListenTcp(0, &port);
  ASSERT_TRUE(listener.ok());
  const int listen_fd = listener.value().get();
  ASSERT_TRUE(SetNonBlocking(listen_fd, true).ok());
  std::vector<UniqueFd> accepted;
  const auto keep = [&](UniqueFd fd) { accepted.push_back(std::move(fd)); };
  // A call with room in the table opens this thread's spare descriptor.
  ASSERT_EQ(AcceptAll(listen_fd, keep), 0);
  auto client = ConnectTcp(port);
  ASSERT_TRUE(client.ok());

  // Fill the table: a soft limit just above the highest open descriptor,
  // then every free slot below it taken.
  const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  int highest_open = 0;
  for (int fd = 0; fd < 4096; ++fd) {
    if (::fcntl(fd, F_GETFD) != -1) {
      highest_open = fd;
    }
  }
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit full = saved;
  full.rlim_cur = static_cast<rlim_t>(highest_open + 1);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &full), 0);
  std::vector<UniqueFd> fillers;
  for (UniqueFd fd(::open("/dev/null", O_RDONLY | O_CLOEXEC)); fd.valid();
       fd = UniqueFd(::open("/dev/null", O_RDONLY | O_CLOEXEC))) {
    fillers.push_back(std::move(fd));
  }
  const int error = AcceptAll(listen_fd, keep);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  fillers.clear();

  EXPECT_EQ(error, EMFILE) << "the errno still reaches the caller's log";
  EXPECT_TRUE(accepted.empty());
  pollfd listen_poll{listen_fd, POLLIN, 0};
  EXPECT_EQ(::poll(&listen_poll, 1, 0), 0) << "the shed connection no longer wakes the loop";
  pollfd client_poll{client.value().get(), POLLIN, 0};
  ASSERT_EQ(::poll(&client_poll, 1, 5000), 1);
  char byte = 0;
  EXPECT_LE(::recv(client.value().get(), &byte, 1, 0), 0) << "the client sees a close";
  // The spare is back in its slot and the shed connections' fds are closed:
  // the lowest free descriptor is the same as before.
  const int lowest_after = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  EXPECT_EQ(lowest_after, lowest_free);
  ::close(lowest_after);
}

TEST(SocketTest, UnixPairIsConnected) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_EQ(::send(pair.value().first.get(), "x", 1, 0), 1);
  char c = 0;
  ASSERT_EQ(::recv(pair.value().second.get(), &c, 1, 0), 1);
  EXPECT_EQ(c, 'x');
}

TEST_F(LoopFixture, PostRunsOnLoopThread) {
  std::promise<bool> in_loop;
  loop_.Post([&]() { in_loop.set_value(loop_.IsInLoopThread()); });
  EXPECT_TRUE(in_loop.get_future().get());
  EXPECT_FALSE(loop_.IsInLoopThread());
}

TEST_F(LoopFixture, TimerFires) {
  std::promise<void> fired;
  OnLoop([&]() { loop_.ScheduleAfterMs(10, [&]() { fired.set_value(); }); });
  EXPECT_EQ(fired.get_future().wait_for(std::chrono::seconds(5)), std::future_status::ready);
}

TEST_F(LoopFixture, CancelledTimerDoesNotFire) {
  std::atomic<bool> fired{false};
  OnLoop([&]() {
    const EventLoop::TimerId id = loop_.ScheduleAfterMs(20, [&]() { fired.store(true); });
    loop_.CancelTimer(id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(fired.load());
}

TEST_F(LoopFixture, ConnectionEchoes) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  UniqueFd outside = std::move(pair.value().second);

  std::unique_ptr<Connection> conn;
  OnLoop([&]() {
    conn = std::make_unique<Connection>(&loop_, std::move(pair.value().first));
    conn->set_on_data([&](std::string_view data) { conn->Write(data); });  // echo
    conn->Start();
  });
  ASSERT_EQ(::send(outside.get(), "hello", 5, 0), 5);
  char buf[8] = {0};
  ssize_t n = 0;
  for (int attempt = 0; attempt < 100 && n <= 0; ++attempt) {
    n = ::recv(outside.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(n, 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
  OnLoop([&]() { conn.reset(); });
}

TEST_F(LoopFixture, ConnectionDetachKeepsTheLiveSocket) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  UniqueFd outside = std::move(pair.value().second);

  std::unique_ptr<Connection> conn;
  std::promise<UniqueFd> detached_promise;
  OnLoop([&]() {
    conn = std::make_unique<Connection>(&loop_, std::move(pair.value().first));
    conn->set_on_data([&](std::string_view) { detached_promise.set_value(conn->Detach()); });
    conn->Start();
  });
  ASSERT_EQ(::send(outside.get(), "head", 4, 0), 4);
  UniqueFd detached = detached_promise.get_future().get();
  ASSERT_TRUE(detached.valid());
  // The detached fd is still the live socket: the peer can keep talking.
  ASSERT_EQ(::send(outside.get(), "more", 4, 0), 4);
  char buf[8] = {0};
  ssize_t n = -1;
  for (int attempt = 0; attempt < 100 && n <= 0; ++attempt) {
    n = ::recv(detached.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_EQ(n, 4);
  EXPECT_EQ(std::string(buf, 4), "more");
  OnLoop([&]() { conn.reset(); });
}

// Borrowed segments must outlive the connection: static storage.
std::string_view StaticBytes() {
  static const std::string bytes = []() {
    std::string out;
    for (int i = 0; i < 8192; ++i) {
      out.push_back(static_cast<char>('a' + i % 26));
    }
    return out;
  }();
  return bytes;
}

void SetSmallSendBuffer(int fd) {
  const int size = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size)), 0);
}

void SetRecvTimeout(int fd) {
  timeval tv{};
  tv.tv_sec = 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
}

TEST_F(LoopFixture, ConnectionSegmentQueueSendsMixedSegmentsInOrder) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  SetSmallSendBuffer(pair.value().first.get());
  UniqueFd outside = std::move(pair.value().second);
  SetRecvTimeout(outside.get());

  // 150 segments (more than the 64-iovec cap): owned strings and borrowed
  // views above the join size, each its own iovec, and small owned ones.
  // Skips land inside an owned segment, across a whole segment into the
  // next, and inside a borrowed view. `expected` models the wire; `ends`
  // holds each segment's end in flushed-byte space.
  std::unique_ptr<Connection> conn;
  std::string expected;
  std::set<uint64_t> ends;
  std::vector<uint64_t> flush_points;
  int drained = 0;
  int progress = 0;
  OnLoop([&]() {
    conn = std::make_unique<Connection>(&loop_, std::move(pair.value().first));
    conn->set_on_write_progress([&]() {
      ++progress;
      flush_points.push_back(conn->bytes_flushed());
    });
    conn->Start();
    uint64_t skip = 0;
    for (int i = 0; i < 150; ++i) {
      const uint64_t extra = i == 0 ? 10 : i == 60 ? 1560 + 5 : i == 100 ? 1700 : 0;
      conn->SkipNext(extra);
      skip += extra;
      std::string bytes;
      if (i == 75) {
        // Larger than the send buffer: several sends start and end inside it.
        std::string owned;
        for (int j = 0; j < 64 * 1024; ++j) {
          owned.push_back(static_cast<char>('0' + j % 10));
        }
        bytes = owned;
        conn->Queue(std::move(owned));
      } else if (i % 3 == 0) {
        std::string owned(static_cast<size_t>(1500 + i), static_cast<char>('A' + i % 26));
        bytes = owned;
        conn->Queue(std::move(owned));
      } else if (i % 3 == 1) {
        const std::string_view view = StaticBytes().substr(static_cast<size_t>(i), 2000 + i);
        bytes = std::string(view);
        conn->QueueBorrowed(view);
      } else {
        std::string small = "<" + std::to_string(i) + ">";
        bytes = small;
        conn->Queue(std::move(small));
      }
      const size_t dropped = static_cast<size_t>(std::min<uint64_t>(skip, bytes.size()));
      skip -= dropped;
      expected += bytes.substr(dropped);
      ends.insert(expected.size());
    }
    EXPECT_EQ(conn->pending_write_bytes(), expected.size());
    EXPECT_EQ(conn->bytes_flushed(), 0u);
    conn->Flush();
    flush_points.push_back(conn->bytes_flushed());
    EXPECT_GT(conn->bytes_flushed(), 0u);
    EXPECT_GT(conn->pending_write_bytes(), 0u) << "the small send buffer takes only part";
    EXPECT_EQ(conn->bytes_flushed() + conn->pending_write_bytes(), expected.size());
    EXPECT_EQ(progress, 0) << "Flush on the caller's stack fires no callback";
    conn->set_on_write_drained([&]() { ++drained; });
  });

  std::string received;
  char buf[1000];
  while (received.size() < expected.size()) {
    const ssize_t n = ::recv(outside.get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "after " << received.size() << " of " << expected.size() << " bytes";
    received.append(buf, static_cast<size_t>(n));
    OnLoop([&]() {
      EXPECT_EQ(conn->bytes_flushed() + conn->pending_write_bytes(), expected.size());
      EXPECT_GE(conn->bytes_flushed(), received.size());
    });
  }
  EXPECT_EQ(received, expected);
  OnLoop([&]() {
    EXPECT_EQ(conn->pending_write_bytes(), 0u);
    EXPECT_EQ(conn->bytes_flushed(), expected.size());
    EXPECT_EQ(drained, 1);
    EXPECT_GT(progress, 0);
    // Some partial send stopped inside a segment, so the next gather write
    // started mid-segment.
    EXPECT_TRUE(std::any_of(flush_points.begin(), flush_points.end(),
                            [&](uint64_t point) { return ends.count(point) == 0; }));
    // Later writes still queue behind nothing and go straight out.
    conn->Write(std::string("tail"));
    conn.reset();
  });
  ASSERT_EQ(::recv(outside.get(), buf, sizeof(buf), 0), 4);
  EXPECT_EQ(std::string(buf, 4), "tail");
}

TEST_F(LoopFixture, ConnectionWriteViewCopiesOnlyWhatTheSocketRefuses) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  SetSmallSendBuffer(pair.value().first.get());
  UniqueFd outside = std::move(pair.value().second);
  SetRecvTimeout(outside.get());

  std::unique_ptr<Connection> conn;
  std::string expected;
  int progress = 0;
  int drained = 0;
  const std::string head = "HTTP/1.1 200 OK\r\nContent-Length: 65536\r\n\r\n";
  OnLoop([&]() {
    conn = std::make_unique<Connection>(&loop_, std::move(pair.value().first));
    conn->set_on_write_progress([&]() { ++progress; });
    conn->Start();
    // A head queued unsent, then a view far larger than the send buffer:
    // one gather write takes the head and the start of the view, and only
    // the refused rest is copied, so the caller's storage can go at once.
    conn->Queue(head);
    EXPECT_EQ(conn->pending_write_bytes(), head.size());
    EXPECT_EQ(conn->bytes_flushed(), 0u);
    std::string body(64 * 1024, '\0');
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<char>('a' + i % 23);
    }
    expected = head + body;
    conn->Write(std::string_view(body));
    body.assign(body.size(), 'X');
    EXPECT_GT(conn->bytes_flushed(), head.size()) << "the head went out with the view";
    EXPECT_GT(conn->pending_write_bytes(), 0u) << "the small buffer refused part of the view";
    EXPECT_EQ(conn->bytes_flushed() + conn->pending_write_bytes(), expected.size());
    // A second view while EPOLLOUT is armed lands behind the refused bytes.
    const uint64_t flushed = conn->bytes_flushed();
    conn->Write(StaticBytes().substr(0, 3000));
    expected += StaticBytes().substr(0, 3000);
    EXPECT_EQ(conn->bytes_flushed() + conn->pending_write_bytes(), expected.size());
    EXPECT_GE(conn->bytes_flushed(), flushed);
    EXPECT_EQ(progress, 0) << "Write on the caller's stack fires no callback";
    conn->set_on_write_drained([&]() { ++drained; });
  });
  std::string received;
  char buf[4096];
  while (received.size() < expected.size()) {
    const ssize_t n = ::recv(outside.get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "after " << received.size() << " of " << expected.size() << " bytes";
    received.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(received, expected);

  const std::string head2 = "HEAD";
  const std::string_view view = StaticBytes().substr(100, 200);
  OnLoop([&]() {
    EXPECT_EQ(conn->pending_write_bytes(), 0u);
    EXPECT_EQ(conn->bytes_flushed(), expected.size());
    EXPECT_EQ(drained, 1);
    EXPECT_GT(progress, 0);
    // A skip budget that covers the queued head and ends 7 bytes into the
    // view: those bytes never go out nor count as flushed.
    conn->SkipNext(head2.size() + 7);
    conn->Queue(head2);
    EXPECT_EQ(conn->pending_write_bytes(), 0u);
    conn->Write(view);
    EXPECT_EQ(conn->pending_write_bytes(), 0u);
    EXPECT_EQ(conn->bytes_flushed(), expected.size() + view.size() - 7);
  });
  received.clear();
  while (received.size() < view.size() - 7) {
    const ssize_t n = ::recv(outside.get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    received.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(received, view.substr(7));
  OnLoop([&]() { conn.reset(); });
}

TEST_F(LoopFixture, ConnectionCloseAfterFlushSendsQueuedBorrowedBytes) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  SetSmallSendBuffer(pair.value().first.get());
  UniqueFd outside = std::move(pair.value().second);
  SetRecvTimeout(outside.get());

  std::unique_ptr<Connection> conn;
  std::string expected;
  bool on_close_fired = false;
  OnLoop([&]() {
    conn = std::make_unique<Connection>(&loop_, std::move(pair.value().first));
    conn->set_on_close([&]() { on_close_fired = true; });
    conn->Start();
    conn->Write("HTTP/1.0 200 OK\r\n\r\n");
    expected = "HTTP/1.0 200 OK\r\n\r\n";
    for (int i = 0; i < 100; ++i) {
      const std::string_view view = StaticBytes().substr(static_cast<size_t>(i), 1500);
      conn->QueueBorrowed(view);
      expected += view;
    }
    conn->Flush();
    EXPECT_GT(conn->pending_write_bytes(), 0u);
    conn->CloseAfterFlush();
    EXPECT_TRUE(conn->open()) << "borrowed segments still queued";
  });

  std::string received;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(outside.get(), buf, sizeof(buf), 0)) > 0) {
    received.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(n, 0) << "EOF after the queue drained";
  EXPECT_EQ(received, expected);
  OnLoop([&]() {
    EXPECT_FALSE(conn->open());
    EXPECT_EQ(conn->pending_write_bytes(), 0u);
    EXPECT_FALSE(on_close_fired) << "a requested close is not a failure";
    conn.reset();
  });
}

TEST_F(LoopFixture, FramedChannelRoundTrip) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().second.get(), true).ok());

  std::unique_ptr<FramedChannel> a;
  std::unique_ptr<FramedChannel> b;
  std::promise<std::pair<uint8_t, std::string>> received;
  OnLoop([&]() {
    a = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().first));
    b = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().second));
    b->set_on_message([&](uint8_t type, std::string_view payload, UniqueFd) {
      received.set_value({type, std::string(payload)});
    });
    a->Start();
    b->Start();
    a->Send(7, "payload bytes");
  });
  const auto [type, payload] = received.get_future().get();
  EXPECT_EQ(type, 7);
  EXPECT_EQ(payload, "payload bytes");
  OnLoop([&]() {
    a.reset();
    b.reset();
  });
}

TEST_F(LoopFixture, FramedChannelPassesFd) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().second.get(), true).ok());

  // The fd we pass: one end of a pipe; we verify by writing through it.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  UniqueFd read_end(pipe_fds[0]);

  std::unique_ptr<FramedChannel> a;
  std::unique_ptr<FramedChannel> b;
  std::promise<UniqueFd> received_fd;
  OnLoop([&]() {
    a = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().first));
    b = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().second));
    b->set_on_message([&](uint8_t, std::string_view, UniqueFd fd) {
      received_fd.set_value(std::move(fd));
    });
    a->Start();
    b->Start();
    a->SendWithFd(1, "handoff", UniqueFd(pipe_fds[1]));
  });
  UniqueFd write_end = received_fd.get_future().get();
  ASSERT_TRUE(write_end.valid());
  EXPECT_NE(::fcntl(write_end.get(), F_GETFD) & FD_CLOEXEC, 0);
  ASSERT_EQ(::write(write_end.get(), "via-scm", 7), 7);
  char buf[16] = {0};
  ASSERT_EQ(::read(read_end.get(), buf, sizeof(buf)), 7);
  EXPECT_EQ(std::string(buf, 7), "via-scm");
  OnLoop([&]() {
    a.reset();
    b.reset();
  });
}

TEST_F(LoopFixture, FramedChannelInterleavesManyMessages) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().second.get(), true).ok());

  constexpr int kMessages = 500;
  std::unique_ptr<FramedChannel> a;
  std::unique_ptr<FramedChannel> b;
  std::promise<void> all_received;
  std::atomic<int> count{0};
  std::atomic<bool> in_order{true};
  OnLoop([&]() {
    a = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().first));
    b = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().second));
    b->set_on_message([&](uint8_t, std::string_view payload, UniqueFd) {
      const int expected = count.fetch_add(1);
      const std::string prefix = "msg" + std::to_string(expected) + ";";
      if (payload.rfind(prefix, 0) != 0) {
        in_order.store(false);
      }
      if (expected + 1 == kMessages) {
        all_received.set_value();
      }
    });
    a->Start();
    b->Start();
    for (int i = 0; i < kMessages; ++i) {
      // Mix small and large payloads to force partial writes and fragmented
      // frames on the receive side.
      std::string payload = "msg" + std::to_string(i) + ";";
      if (i % 7 == 0) {
        payload.append(60000, '#');
      }
      a->Send(2, payload);
    }
  });
  ASSERT_EQ(all_received.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(in_order.load());
  OnLoop([&]() {
    a.reset();
    b.reset();
  });
}

// Bytes 0..n-1 of a pattern with no short period, so a dropped, repeated or
// reordered chunk cannot go unnoticed.
std::string PatternBytes(size_t n) {
  std::string out;
  out.reserve(n);
  uint32_t x = 12345;
  for (size_t i = 0; i < n; ++i) {
    x = x * 1103515245u + 12345u;
    out.push_back(static_cast<char>(x >> 24));
  }
  return out;
}

// Blocking send of all of `data` from a plain (blocking) socket.
void SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), 0);
    ASSERT_GT(n, 0);
    data.remove_prefix(static_cast<size_t>(n));
  }
}

TEST_F(LoopFixture, ConnectionDeliversBurstInReadChunks) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  UniqueFd outside = std::move(pair.value().second);

  const std::string burst = PatternBytes(200 * 1024);
  std::unique_ptr<Connection> conn;
  std::string received;  // loop-confined until all_received
  size_t largest = 0;
  std::promise<void> all_received;
  OnLoop([&]() {
    conn = std::make_unique<Connection>(&loop_, std::move(pair.value().first));
    conn->set_on_data([&](std::string_view data) {
      largest = std::max(largest, data.size());
      received.append(data);
      if (received.size() == burst.size()) {
        all_received.set_value();
      }
    });
    conn->Start();
  });
  SendAll(outside.get(), burst);
  ASSERT_EQ(all_received.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  OnLoop([&]() {
    EXPECT_LE(largest, kReadChunkBytes);
    EXPECT_TRUE(received == burst);
    conn.reset();
  });
}

TEST_F(LoopFixture, FramedChannelDeliversFrameSplitOverManyReadsOnce) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  UniqueFd outside = std::move(pair.value().second);

  // Wire format: u32 payload length (LE) | u8 type | u8 flags | u16 zero.
  const auto frame = [](uint8_t type, const std::string& payload) {
    std::string bytes;
    const uint32_t len = static_cast<uint32_t>(payload.size());
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<char>((len >> shift) & 0xff));
    }
    bytes.push_back(static_cast<char>(type));
    bytes.append(3, '\0');
    return bytes + payload;
  };
  const std::string big = PatternBytes(100 * 1024);
  const std::string wire = frame(3, big) + frame(4, "after");

  std::unique_ptr<FramedChannel> channel;
  std::vector<std::pair<uint8_t, std::string>> messages;  // loop-confined
  std::promise<void> both_received;
  OnLoop([&]() {
    channel = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().first));
    channel->set_on_message([&](uint8_t type, std::string_view payload, UniqueFd) {
      messages.emplace_back(type, std::string(payload));
      if (messages.size() == 2) {
        both_received.set_value();
      }
    });
    channel->Start();
  });
  // Small pieces with pauses, the first one splitting the header, so the
  // big frame reaches the channel over many reads.
  size_t pos = 0;
  for (size_t piece = 3; pos < wire.size(); piece = 4096) {
    const size_t n = std::min(piece, wire.size() - pos);
    SendAll(outside.get(), std::string_view(wire).substr(pos, n));
    pos += n;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(both_received.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  OnLoop([&]() {
    ASSERT_EQ(messages.size(), 2u);
    EXPECT_EQ(messages[0].first, 3);
    EXPECT_TRUE(messages[0].second == big);
    EXPECT_EQ(messages[1].first, 4);
    EXPECT_EQ(messages[1].second, "after");
    channel.reset();
  });
}

// Entries in /proc/self/fd (the directory's own fd included, so the count is
// comparable between two calls).
int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    return -1;
  }
  int count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ++count;
    }
  }
  ::closedir(dir);
  return count;
}

// One frame on the wire, with the length field and flags given explicitly.
std::string RawFrame(uint32_t len, uint8_t type, uint8_t flags, std::string_view payload) {
  std::string bytes;
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<char>((len >> shift) & 0xff));
  }
  bytes.push_back(static_cast<char>(type));
  bytes.push_back(static_cast<char>(flags));
  bytes.append(2, '\0');
  bytes.append(payload);
  return bytes;
}

// Sends all of `bytes` from a blocking socket, with `fd` attached to the
// first byte as SCM_RIGHTS.
void SendAllWithRights(int sock, std::string_view bytes, int fd) {
  iovec iov{const_cast<char*>(bytes.data()), bytes.size()};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cmsg), &fd, sizeof(int));
  const ssize_t n = ::sendmsg(sock, &msg, 0);
  ASSERT_GT(n, 0);
  SendAll(sock, bytes.substr(static_cast<size_t>(n)));
}

// The payload of backlogged frame `i`: its index, then a size that mixes
// empty, small and 64 KB frames.
std::string BackloggedPayload(int i) {
  std::string payload = std::to_string(i) + ";";
  const size_t sizes[] = {0, 17, 1000, 4096, 30000, 64 * 1024 - 16};
  payload.append(PatternBytes(sizes[(i * 5) % 6]));
  return payload;
}

TEST_F(LoopFixture, FramedChannelBackloggedFramesKeepOrderAndFds) {
  const int fds_before = CountOpenFds();
  {
    auto pair = UnixPair();
    ASSERT_TRUE(pair.ok());
    ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
    ASSERT_TRUE(SetNonBlocking(pair.value().second.get(), true).ok());
    SetSmallSendBuffer(pair.value().first.get());

    constexpr int kFrames = 200;
    std::vector<UniqueFd> twins(kFrames);  // kept end of each passed pair
    std::vector<UniqueFd> received(kFrames);
    std::vector<std::string> payloads;  // loop-confined until all_received
    std::promise<void> all_received;
    std::unique_ptr<FramedChannel> a;
    std::unique_ptr<FramedChannel> b;
    OnLoop([&]() {
      a = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().first));
      b = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().second));
      b->set_on_message([&](uint8_t type, std::string_view payload, UniqueFd fd) {
        EXPECT_EQ(type, 9);
        received[payloads.size()] = std::move(fd);
        payloads.emplace_back(payload);
        if (payloads.size() == kFrames) {
          all_received.set_value();
        }
      });
      a->Start();
      b->Start();
      for (int i = 0; i < kFrames; ++i) {
        if (i % 3 != 0) {
          a->Send(9, BackloggedPayload(i));
          continue;
        }
        auto passed = UnixPair();
        ASSERT_TRUE(passed.ok());
        twins[i] = std::move(passed.value().second);
        a->SendWithFd(9, BackloggedPayload(i), std::move(passed.value().first));
      }
    });
    ASSERT_EQ(all_received.get_future().wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(payloads[i] == BackloggedPayload(i)) << "frame " << i;
      ASSERT_EQ(received[i].valid(), i % 3 == 0) << "frame " << i;
      if (i % 3 == 0) {
        const char tag = static_cast<char>(i);
        ASSERT_EQ(::send(twins[i].get(), &tag, 1, 0), 1);
      }
    }
    for (int i = 0; i < kFrames; i += 3) {
      char tag = 0;
      ASSERT_EQ(::recv(received[i].get(), &tag, 1, MSG_DONTWAIT), 1) << "frame " << i;
      EXPECT_EQ(tag, static_cast<char>(i)) << "frame " << i;
    }

    // Fd frames still queued behind a full socket when both ends close: the
    // sender's unsent fds and the receiver's unclaimed ones must be closed.
    OnLoop([&]() {
      for (int i = 0; i < 20; ++i) {
        auto passed = UnixPair();
        ASSERT_TRUE(passed.ok());
        a->SendWithFd(9, BackloggedPayload(5), std::move(passed.value().first));
      }
      a.reset();
      b.reset();
    });
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
}

TEST_F(LoopFixture, FramedChannelOversizedLengthClosesOnce) {
  const int fds_before = CountOpenFds();
  {
    auto pair = UnixPair();
    ASSERT_TRUE(pair.ok());
    ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
    UniqueFd outside = std::move(pair.value().second);

    std::unique_ptr<FramedChannel> channel;
    std::atomic<int> messages{0};
    std::atomic<int> closes{0};
    std::promise<void> closed;
    OnLoop([&]() {
      channel = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().first));
      channel->set_on_message([&](uint8_t, std::string_view, UniqueFd) { messages.fetch_add(1); });
      channel->set_on_close([&]() {
        if (closes.fetch_add(1) == 0) {
          closed.set_value();
        }
      });
      channel->Start();
    });
    // The header carries an fd that no frame will claim.
    auto passed = UnixPair();
    ASSERT_TRUE(passed.ok());
    const auto len = static_cast<uint32_t>(FramedChannel::kMaxPayload + 1);
    SendAllWithRights(outside.get(), RawFrame(len, 5, 0, "x"), passed.value().first.get());
    ASSERT_EQ(closed.get_future().wait_for(std::chrono::seconds(10)), std::future_status::ready);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    OnLoop([&]() {
      EXPECT_FALSE(channel->open());
      channel.reset();
    });
    EXPECT_EQ(closes.load(), 1);
    EXPECT_EQ(messages.load(), 0);
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
}

TEST_F(LoopFixture, FramedChannelFrameMissingItsFdClosesOnce) {
  const int fds_before = CountOpenFds();
  {
    auto pair = UnixPair();
    ASSERT_TRUE(pair.ok());
    ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
    UniqueFd outside = std::move(pair.value().second);

    std::unique_ptr<FramedChannel> channel;
    std::atomic<int> messages{0};
    std::atomic<int> closes{0};
    std::promise<void> closed;
    OnLoop([&]() {
      channel = std::make_unique<FramedChannel>(&loop_, std::move(pair.value().first));
      channel->set_on_message([&](uint8_t, std::string_view, UniqueFd) { messages.fetch_add(1); });
      channel->set_on_close([&]() {
        if (closes.fetch_add(1) == 0) {
          closed.set_value();
        }
      });
      channel->Start();
    });
    SendAll(outside.get(), RawFrame(7, 1, /*flags=*/0x1, "handoff"));
    ASSERT_EQ(closed.get_future().wait_for(std::chrono::seconds(10)), std::future_status::ready);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    OnLoop([&]() {
      EXPECT_FALSE(channel->open());
      channel.reset();
    });
    EXPECT_EQ(closes.load(), 1);
    EXPECT_EQ(messages.load(), 0);
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
}

// A unix peer that writes and closes before the loop wakes raises EPOLLHUP
// together with EPOLLIN: the bytes are delivered before on_close.
TEST_F(LoopFixture, ConnectionDeliversBytesThatArriveBeforeHangup) {
  auto pair = UnixPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
  UniqueFd outside = std::move(pair.value().second);
  ASSERT_EQ(::send(outside.get(), "abc", 3, 0), 3);
  outside.Reset();

  std::unique_ptr<Connection> conn;
  std::string received;  // loop-confined until closed
  int closes = 0;
  std::promise<void> closed;
  OnLoop([&]() {
    conn = std::make_unique<Connection>(&loop_, std::move(pair.value().first));
    conn->set_on_data([&](std::string_view data) { received.append(data); });
    conn->set_on_close([&]() {
      if (closes++ == 0) {
        closed.set_value();
      }
    });
    conn->Start();
  });
  ASSERT_EQ(closed.get_future().wait_for(std::chrono::seconds(10)), std::future_status::ready);
  OnLoop([&]() {
    EXPECT_EQ(received, "abc");
    EXPECT_EQ(closes, 1);
    conn.reset();
  });
}

TEST_F(LoopFixture, ConnectionWithoutFdSinkClosesReceivedFds) {
  const int fds_before = CountOpenFds();
  {
    auto pair = UnixPair();
    ASSERT_TRUE(pair.ok());
    ASSERT_TRUE(SetNonBlocking(pair.value().first.get(), true).ok());
    UniqueFd outside = std::move(pair.value().second);

    std::unique_ptr<Connection> conn;
    std::promise<void> received;
    OnLoop([&]() {
      conn = std::make_unique<Connection>(&loop_, std::move(pair.value().first));
      conn->set_on_data([&](std::string_view data) {
        EXPECT_EQ(data, "x");
        received.set_value();
      });
      conn->Start();
    });
    {
      auto passed = UnixPair();
      ASSERT_TRUE(passed.ok());
      SendAllWithRights(outside.get(), "x", passed.value().first.get());
    }
    ASSERT_EQ(received.get_future().wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    // The bytes were delivered and the fd that came with them is already
    // closed: only the connection's own socket and the peer remain.
    EXPECT_EQ(CountOpenFds(), fds_before + 2);
    OnLoop([&]() { conn.reset(); });
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
}

// Before Start() the group's loops have no threads: RunOn runs inline on the
// owner (single-threaded setup). Afterwards it posts to the target loop.
TEST(EventLoopGroupTest, RunOnIsInlineBeforeStartAndPostedAfter) {
  EventLoopGroup loops(2);
  const std::thread::id owner = std::this_thread::get_id();
  std::thread::id ran_on;
  loops.RunOn(1, [&]() { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, owner);

  loops.Start();
  std::promise<std::thread::id> posted;
  loops.RunOn(1, [&]() { posted.set_value(std::this_thread::get_id()); });
  EXPECT_NE(posted.get_future().get(), owner);
  loops.Stop();
}

}  // namespace
}  // namespace lard
