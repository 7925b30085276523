// Failure-path tests for LateralClient, the pipelined back-end-to-back-end
// fetch channel: transport failure mid-pipeline and mid-body, FIFO response
// matching when errors interleave with successes, the deadline on a peer
// that goes silent after the head, one deadline timer however many fetches
// completed, streamed body runs, and reconnect-on-next-fetch after the peer
// goes away.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/socket.h"
#include "src/proto/lateral_client.h"

namespace lard {
namespace {

std::string OkResponse(const std::string& body) {
  return "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

// Drives a LateralClient on a real event loop; Fetch() calls are posted to
// the loop thread (the class contract) and results collected under a mutex.
class LateralClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto listener = ListenTcp(0, &port_);
    ASSERT_TRUE(listener.ok());
    listener_ = std::move(listener.value());
    loop_thread_ = std::thread([this]() { loop_.Run(); });
  }

  void TearDown() override {
    loop_.Post([this]() { client_.reset(); });
    loop_.Stop();
    loop_thread_.join();
    if (peer_thread_.joinable()) {
      peer_thread_.join();
    }
  }

  void StartClient(int64_t timeout_ms = 2000) {
    loop_.Post([this, timeout_ms]() {
      client_ = std::make_unique<LateralClient>(&loop_, port_, timeout_ms);
    });
  }

  // Issues a fetch from the loop thread; results land in results_ in
  // callback order.
  void Fetch(const std::string& path) { FetchAll({path}); }

  // Issues several fetches in ONE loop task, so all of them are in flight
  // before the loop can process any peer response — tests that expect "both
  // fetches fail together" must not race the peer's (instant, under
  // sanitizer timing) reply against the second Fetch's posting.
  void FetchAll(std::vector<std::string> paths) {
    loop_.Post([this, paths = std::move(paths)]() {
      for (const std::string& path : paths) {
        // The handlers run on the loop thread, one fetch at a time.
        auto result = std::make_shared<FetchResult>();
        result->path = path;
        LateralClient::FetchHandler handler;
        handler.on_head = [result](int status, uint64_t length) {
          result->status = status;
          result->length = length;
        };
        handler.on_body = [result](std::string_view bytes) {
          result->body.append(bytes);
          ++result->runs;
        };
        handler.on_end = [this, result](bool ok) {
          result->ok = ok;
          std::lock_guard<std::mutex> lock(mutex_);
          results_.push_back(*result);
          cv_.notify_all();
        };
        client_->Fetch(path, std::move(handler));
      }
    });
  }

  void WaitForResults(size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    ASSERT_TRUE(cv_.wait_for(lock, std::chrono::seconds(5),
                             [&]() { return results_.size() >= count; }))
        << "only " << results_.size() << " of " << count << " callbacks fired";
  }

  struct FetchResult {
    std::string path;
    int status = 0;  // 0: no head arrived
    uint64_t length = 0;
    std::string body;
    int runs = 0;  // on_body calls
    bool ok = false;
  };

  uint16_t port_ = 0;
  UniqueFd listener_;
  EventLoop loop_;
  std::thread loop_thread_;
  std::thread peer_thread_;
  std::unique_ptr<LateralClient> client_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<FetchResult> results_;
};

TEST_F(LateralClientTest, TransportFailureMidPipelineFailsAllInFlightInOrder) {
  // Peer accepts, answers the first request, then slams the connection while
  // two more fetches are in flight.
  peer_thread_ = std::thread([this]() {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    ASSERT_GE(fd, 0);
    char buf[4096];
    size_t got = 0;
    std::string data;
    // Read until all three pipelined requests arrived (three "\r\n\r\n").
    while (got < 3) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        break;
      }
      data.append(buf, static_cast<size_t>(n));
      got = 0;
      for (size_t pos = 0; (pos = data.find("\r\n\r\n", pos)) != std::string::npos; pos += 4) {
        ++got;
      }
    }
    const std::string response = OkResponse("first");
    (void)!::send(fd, response.data(), response.size(), MSG_NOSIGNAL);
    ::usleep(50 * 1000);  // let the response drain before the reset
    ::close(fd);
  });

  StartClient();
  Fetch("/a");
  Fetch("/b");
  Fetch("/c");
  WaitForResults(3);

  std::lock_guard<std::mutex> lock(mutex_);
  ASSERT_EQ(results_.size(), 3u);
  // FIFO: /a got the one real response; /b and /c fail with transport
  // status 0 in issue order, not reversed or dropped.
  EXPECT_EQ(results_[0].path, "/a");
  EXPECT_EQ(results_[0].status, 200);
  EXPECT_EQ(results_[0].body, "first");
  EXPECT_TRUE(results_[0].ok);
  EXPECT_EQ(results_[1].path, "/b");
  EXPECT_EQ(results_[1].status, 0);
  EXPECT_TRUE(results_[1].body.empty());
  EXPECT_FALSE(results_[1].ok);
  EXPECT_EQ(results_[2].path, "/c");
  EXPECT_EQ(results_[2].status, 0);
  EXPECT_FALSE(results_[2].ok);
}

TEST_F(LateralClientTest, GarbageResponseFailsPipelineWithStatusZero) {
  peer_thread_ = std::thread([this]() {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    ASSERT_GE(fd, 0);
    char buf[4096];
    (void)!::recv(fd, buf, sizeof(buf), 0);
    const std::string garbage = "NOT/HTTP nonsense\r\n\r\n";
    (void)!::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL);
    ::usleep(100 * 1000);
    ::close(fd);
  });

  StartClient();
  FetchAll({"/x", "/y"});
  WaitForResults(2);

  std::lock_guard<std::mutex> lock(mutex_);
  // A peer speaking garbage is a transport failure for everything in flight.
  EXPECT_EQ(results_[0].status, 0);
  EXPECT_EQ(results_[1].status, 0);
}

TEST_F(LateralClientTest, ReconnectsAfterPeerLossAndKeepsServing) {
  std::atomic<int> connections{0};
  peer_thread_ = std::thread([this, &connections]() {
    // First connection: die without answering. Second: behave.
    for (int round = 0; round < 2; ++round) {
      const int fd = ::accept(listener_.get(), nullptr, nullptr);
      if (fd < 0) {
        return;
      }
      ++connections;
      char buf[4096];
      (void)!::recv(fd, buf, sizeof(buf), 0);
      if (round == 1) {
        const std::string response = OkResponse("back");
        (void)!::send(fd, response.data(), response.size(), MSG_NOSIGNAL);
        ::usleep(50 * 1000);
      }
      ::close(fd);
    }
  });

  StartClient();
  Fetch("/dead");
  WaitForResults(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    EXPECT_EQ(results_[0].status, 0);
  }
  // The next fetch must transparently reconnect and succeed.
  Fetch("/alive");
  WaitForResults(2);
  std::lock_guard<std::mutex> lock(mutex_);
  EXPECT_EQ(results_[1].path, "/alive");
  EXPECT_EQ(results_[1].status, 200);
  EXPECT_EQ(results_[1].body, "back");
  EXPECT_EQ(connections.load(), 2);
  EXPECT_EQ(client_->fetches_issued(), 2u);
}

// Accepts one connection and reads until one whole request arrived.
int AcceptOneRequest(int listener) {
  const int fd = ::accept(listener, nullptr, nullptr);
  if (fd < 0) {
    return fd;
  }
  std::string data;
  char buf[4096];
  while (data.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    data.append(buf, static_cast<size_t>(n));
  }
  return fd;
}

void SendString(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

TEST_F(LateralClientTest, BodyArrivesInRunsAsTheyAreRead) {
  // The body comes in two sends far apart: the first run reaches the
  // handler before the second is even sent, nothing is assembled.
  peer_thread_ = std::thread([this]() {
    const int fd = AcceptOneRequest(listener_.get());
    ASSERT_GE(fd, 0);
    SendString(fd, "HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nfour");
    ::usleep(100 * 1000);
    SendString(fd, "more");
    ::usleep(50 * 1000);
    ::close(fd);
  });
  StartClient();
  Fetch("/runs");
  WaitForResults(1);
  std::lock_guard<std::mutex> lock(mutex_);
  EXPECT_TRUE(results_[0].ok);
  EXPECT_EQ(results_[0].status, 200);
  EXPECT_EQ(results_[0].length, 8u);
  EXPECT_EQ(results_[0].body, "fourmore");
  EXPECT_EQ(results_[0].runs, 2);
}

TEST_F(LateralClientTest, PeerDeathMidBodyEndsTheFetchAfterItsHead) {
  // Head plus 3 of 10 body bytes, then the peer dies: the handler saw the
  // head and the 3 bytes, then on_end(false); a second fetch fails unheard.
  peer_thread_ = std::thread([this]() {
    const int fd = AcceptOneRequest(listener_.get());
    ASSERT_GE(fd, 0);
    SendString(fd, "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc");
    ::usleep(50 * 1000);
    ::close(fd);
  });
  StartClient();
  FetchAll({"/cut", "/next"});
  WaitForResults(2);
  std::lock_guard<std::mutex> lock(mutex_);
  EXPECT_EQ(results_[0].path, "/cut");
  EXPECT_EQ(results_[0].status, 200);
  EXPECT_EQ(results_[0].length, 10u);
  EXPECT_EQ(results_[0].body, "abc");
  EXPECT_FALSE(results_[0].ok);
  EXPECT_EQ(results_[1].path, "/next");
  EXPECT_EQ(results_[1].status, 0);
  EXPECT_FALSE(results_[1].ok);
}

TEST_F(LateralClientTest, PeerSilentAfterHeadHitsTheDeadline) {
  // The head and one body byte arrive, then nothing while the socket stays
  // open: the per-fetch deadline runs to the last body byte and fails it.
  std::atomic<bool> done{false};
  peer_thread_ = std::thread([this, &done]() {
    const int fd = AcceptOneRequest(listener_.get());
    ASSERT_GE(fd, 0);
    SendString(fd, "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nx");
    while (!done.load()) {
      ::usleep(10 * 1000);
    }
    ::close(fd);
  });
  StartClient(/*timeout_ms=*/200);
  Fetch("/silent");
  WaitForResults(1);
  done = true;
  peer_thread_.join();  // `done` dies with this frame
  std::lock_guard<std::mutex> lock(mutex_);
  EXPECT_EQ(results_[0].status, 200);
  EXPECT_EQ(results_[0].body, "x");
  EXPECT_FALSE(results_[0].ok);
  EXPECT_EQ(client_->fetches_timed_out(), 1u);
}

TEST_F(LateralClientTest, CompletedFetchesLeaveAtMostOneTimerArmed) {
  // 100 pipelined fetches, all answered well inside the deadline: once they
  // completed, the loop holds at most the one deadline timer, not one per
  // fetch for the rest of its timeout.
  constexpr int kFetches = 100;
  std::atomic<bool> done{false};
  peer_thread_ = std::thread([this, &done]() {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    ASSERT_GE(fd, 0);
    std::string data;
    char buf[4096];
    int answered = 0;
    while (answered < kFetches) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        break;
      }
      data.append(buf, static_cast<size_t>(n));
      size_t end;
      while ((end = data.find("\r\n\r\n")) != std::string::npos) {
        data.erase(0, end + 4);
        SendString(fd, OkResponse("ok"));
        ++answered;
      }
    }
    while (!done.load()) {
      ::usleep(10 * 1000);
    }
    ::close(fd);
  });
  StartClient();
  FetchAll(std::vector<std::string>(kFetches, "/answered"));
  WaitForResults(kFetches);
  std::promise<size_t> timers;
  loop_.Post([this, &timers]() { timers.set_value(loop_.pending_timers()); });
  EXPECT_LE(timers.get_future().get(), 1u);
  done = true;
  peer_thread_.join();  // `done` dies with this frame
  std::lock_guard<std::mutex> lock(mutex_);
  for (const FetchResult& result : results_) {
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.body, "ok");
  }
  EXPECT_EQ(client_->fetches_timed_out(), 0u);
}

TEST_F(LateralClientTest, ConnectFailureFailsImmediatelyWithStatusZero) {
  // Nothing listens on the drained port once the listener closes.
  listener_ = UniqueFd();
  StartClient();
  Fetch("/nobody");
  WaitForResults(1);
  std::lock_guard<std::mutex> lock(mutex_);
  EXPECT_EQ(results_[0].status, 0);
}

}  // namespace
}  // namespace lard
