// The back end's zero-copy serve path, end to end: every byte a client
// receives (head, body prefix and the body's slab views) through a cache
// hit, a disk miss, a cut-through lateral relay (also one cut short by its
// peer) and a spliced replay adoption, plus deep pipelines and a 16 MB
// relay that must neither overflow the stack nor amplify memory.
//
// The benchmark client and the load generator check only a body's prefix, so
// these full-byte comparisons are what guards the rest of the body.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/http/tagging.h"
#include "src/net/event_loop.h"
#include "src/net/framed_channel.h"
#include "src/net/socket.h"
#include "src/proto/backend_server.h"
#include "src/proto/cluster.h"
#include "src/proto/content_store.h"
#include "src/proto/control_protocol.h"
#include "src/util/logging.h"

namespace lard {
namespace {

// The body a client should see for a document: the store's one definition
// of a body's bytes, materialized.
std::string ExpectedBody(const std::string& path, uint64_t size_bytes) {
  return ContentStore::ExpectedParts(path, size_bytes).Materialize();
}

void SetRecvTimeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
}

// Everything until EOF (or the receive timeout).
std::string ReadToEof(int fd) {
  std::string out;
  char buf[64 * 1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

// The exact wire form of a back end's 200 response, written out literally.
std::string ExpectedWire(NodeId server, const std::string& path, uint64_t size, bool close) {
  return "HTTP/1.1 200 OK\r\nServer: lard-be" + std::to_string(server) +
         "\r\nContent-Type: application/octet-stream\r\n" +
         (close ? "Connection: close\r\n" : "") + "Content-Length: " + std::to_string(size) +
         "\r\n\r\n" + ExpectedBody(path, size);
}

std::string Get(const std::string& path, bool close) {
  return "GET " + path + " HTTP/1.1\r\nHost: x\r\n" + (close ? "Connection: close\r\n" : "") +
         "\r\n";
}

// Two back ends on one event loop, driven through their control sessions:
// the test plays the front end, so which node serves what is fixed.
class BackendPairTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kBigSize = (uint64_t{1} << 20) + 7;  // 17 slab views
  static constexpr uint64_t kSmallSize = 700;                   // joins the head
  static constexpr uint64_t kHugeSize = (uint64_t{16} << 20) + 7;
  static constexpr uint64_t kTinySize = 64;

  void SetUp() override {
    catalog_.Intern(kBig, kBigSize);
    catalog_.Intern(kSmall, kSmallSize);
    catalog_.Intern(kHuge, kHugeSize);
    catalog_.Intern(kTiny, kTinySize);
    store_ = std::make_unique<ContentStore>(&catalog_);
    thread_ = std::thread([this]() { loop_.Run(); });
    OnLoop([this]() {
      std::vector<uint16_t> ports;
      for (int node = 0; node < 2; ++node) {
        ClusterConfig config;
        config.num_nodes = 2;
        config.disk_time_scale = 0.01;
        config.lateral_timeout_ms = lateral_timeout_ms_;
        config.idle_close_ms = idle_close_ms_;
        config.telemetry_interval_ms = 0;
        auto pair = UnixPair();
        LARD_CHECK(pair.ok());
        LARD_CHECK_OK(SetNonBlocking(pair.value().second.get(), true));
        nodes_.push_back(std::make_unique<BackendServer>(config, node, &loop_, store_.get()));
        LARD_CHECK_OK(nodes_.back()->Start(std::move(pair.value().first)));
        // The front end's side of the session: only kConnClosed and the
        // latest node-status frame are kept.
        fes_.push_back(std::make_unique<FramedChannel>(&loop_, std::move(pair.value().second)));
        fes_.back()->set_on_message([this, node](uint8_t type, std::string_view payload,
                                                 UniqueFd) {
          uint64_t id = 0;
          NodeStatusMsg status;
          if (static_cast<ControlMsg>(type) == ControlMsg::kConnClosed &&
              DecodeU64(payload, &id)) {
            std::lock_guard<std::mutex> lock(closed_mutex_);
            closed_.push_back(id);
          } else if (static_cast<ControlMsg>(type) == ControlMsg::kNodeStatus &&
                     DecodeNodeStatus(payload, &status)) {
            std::lock_guard<std::mutex> lock(closed_mutex_);
            last_status_[node] = status;
          }
        });
        fes_.back()->Start();
        ports.push_back(nodes_.back()->lateral_port());
      }
      for (auto& node : nodes_) {
        node->ConnectPeers(ports);
      }
    });
  }

  void TearDown() override {
    OnLoop([this]() {
      nodes_.clear();
      fes_.clear();
    });
    loop_.Stop();
    thread_.join();
  }

  void OnLoop(std::function<void()> fn) {
    std::promise<void> done;
    loop_.Post([&]() {
      fn();
      done.set_value();
    });
    done.get_future().wait();
  }

  // Hands a fresh client connection to `node` as the front end would (type
  // kHandoff or kReplay with `payload`) and returns the client's end.
  // The client is a unix socketpair, or with `tcp` a loopback TCP
  // connection, as a real front end hands off.
  UniqueFd HandTo(NodeId node, ControlMsg type, const std::string& payload, bool tcp = false) {
    UniqueFd server;
    UniqueFd client;
    if (tcp) {
      uint16_t port = 0;
      auto listener = ListenTcp(0, &port);
      LARD_CHECK(listener.ok());
      auto connected = ConnectTcp(port);
      LARD_CHECK(connected.ok());
      client = std::move(connected.value());
      server = UniqueFd(::accept(listener.value().get(), nullptr, nullptr));
      LARD_CHECK(server.valid());
    } else {
      auto pair = UnixPair();
      LARD_CHECK(pair.ok());
      server = std::move(pair.value().first);
      client = std::move(pair.value().second);
    }
    SetRecvTimeout(client.get(), 10);
    OnLoop([&]() {
      fes_[static_cast<size_t>(node)]->SendWithFd(static_cast<uint8_t>(type), payload,
                                                   std::move(server));
    });
    return client;
  }

  UniqueFd Handoff(NodeId node, std::vector<RequestDirective> directives,
                   const std::string& requests, bool tcp = false) {
    HandoffMsg msg;
    msg.conn_id = next_conn_id_++;
    msg.autonomous = true;
    msg.directives = std::move(directives);
    msg.unparsed_input = requests;
    return HandTo(node, ControlMsg::kHandoff, EncodeHandoff(msg), tcp);
  }

  const BackendCounters& counters(NodeId node) const {
    return nodes_[static_cast<size_t>(node)]->counters();
  }

  // Hands node 0 a connection whose one request (Connection: close) it
  // relays from node 1.
  UniqueFd RelayFromNode1(const std::string& path, bool tcp = false) {
    RequestDirective directive;
    directive.action = DirectiveAction::kLateral;
    directive.path = TagPathForNode(path, 1);
    return Handoff(0, {directive}, Get(path, true), tcp);
  }

  bool ConnClosedReported(ConnId id) {
    std::lock_guard<std::mutex> lock(closed_mutex_);
    return std::find(closed_.begin(), closed_.end(), id) != closed_.end();
  }

  // A node-status frame from `node` built after this call began: the one
  // after the next, so a frame already being built cannot be taken for it.
  NodeStatusMsg FreshStatus(NodeId node) {
    uint64_t after = 0;
    {
      std::lock_guard<std::mutex> lock(closed_mutex_);
      after = last_status_[node].seq + 1;
    }
    for (int i = 0; i < 500; ++i) {
      {
        std::lock_guard<std::mutex> lock(closed_mutex_);
        if (last_status_[node].seq > after) {
          return last_status_[node];
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "no node-status frame from node " << node;
    return {};
  }

  // A connection to `node`'s lateral listener, opened as a peer's would be.
  UniqueFd ConnectPeer(NodeId node) {
    auto fd = ConnectTcp(nodes_[static_cast<size_t>(node)]->lateral_port());
    LARD_CHECK(fd.ok());
    SetRecvTimeout(fd.value().get(), 10);
    return std::move(fd.value());
  }

  const std::string kBig = "/docs/big.bin";
  const std::string kSmall = "/docs/small.html";
  const std::string kHuge = "/docs/huge.bin";
  const std::string kTiny = "/docs/tiny.txt";
  int64_t lateral_timeout_ms_ = 2000;
  int64_t idle_close_ms_ = 15000;
  std::mutex closed_mutex_;
  std::vector<ConnId> closed_;  // kConnClosed reports from either node
  NodeStatusMsg last_status_[2];  // the latest node-status frame per node
  TargetCatalog catalog_;
  std::unique_ptr<ContentStore> store_;
  EventLoop loop_;
  std::thread thread_;
  std::vector<std::unique_ptr<BackendServer>> nodes_;
  std::vector<std::unique_ptr<FramedChannel>> fes_;
  ConnId next_conn_id_ = 1;
};

TEST_F(BackendPairTest, DiskMissAndCacheHitSendEveryByte) {
  UniqueFd client =
      Handoff(0, {}, Get(kBig, false) + Get(kBig, false) + Get(kSmall, false) + Get(kSmall, true));
  const std::string wire = ReadToEof(client.get());
  const std::string expected =
      ExpectedWire(0, kBig, kBigSize, false) + ExpectedWire(0, kBig, kBigSize, false) +
      ExpectedWire(0, kSmall, kSmallSize, false) + ExpectedWire(0, kSmall, kSmallSize, true);
  ASSERT_EQ(wire.size(), expected.size());
  EXPECT_TRUE(wire == expected) << "first difference at byte "
                                << std::mismatch(wire.begin(), wire.end(), expected.begin())
                                           .first -
                                       wire.begin();
  EXPECT_EQ(counters(0).local_misses.load(), 2u);
  EXPECT_EQ(counters(0).local_hits.load(), 2u);
  EXPECT_EQ(counters(0).bytes_to_clients.load(), 2 * kBigSize + 2 * kSmallSize);
}

TEST_F(BackendPairTest, LateralRelaySendsEveryByte) {
  // Node 0 relays both requests from node 1: the first is a miss at node 1,
  // the second a hit, both sent by node 1 as slab views.
  std::vector<RequestDirective> directives(2);
  for (RequestDirective& directive : directives) {
    directive.action = DirectiveAction::kLateral;
    directive.path = TagPathForNode(kBig, 1);
  }
  UniqueFd client = Handoff(0, directives, Get(kBig, false) + Get(kBig, true));
  const std::string wire = ReadToEof(client.get());
  const std::string expected =
      ExpectedWire(0, kBig, kBigSize, false) + ExpectedWire(0, kBig, kBigSize, true);
  ASSERT_EQ(wire.size(), expected.size());
  EXPECT_TRUE(wire == expected);
  EXPECT_EQ(counters(0).lateral_out.load(), 2u);
  EXPECT_EQ(counters(1).lateral_in.load(), 2u);
  EXPECT_EQ(counters(1).local_hits.load(), 1u);
  EXPECT_EQ(counters(0).local_hits.load() + counters(0).local_misses.load(), 0u);
}

TEST_F(BackendPairTest, SplicedReplayResumesAtAnyOffset) {
  // Node 1 adopts a connection node 0 was serving when it died, with the
  // first `offset` bytes of the response already delivered. A spliced
  // response carries the dead node's Server token; an unspliced one is node
  // 1's own.
  const std::string full = ExpectedWire(0, kBig, kBigSize, true);
  const std::string own = ExpectedWire(1, kBig, kBigSize, true);
  const size_t head = full.size() - kBigSize;
  const size_t prefix = ContentStore::ExpectedParts(kBig, kBigSize).prefix.size();
  const size_t offsets[] = {
      0,                     // nothing delivered: no splice
      1,                     // inside the head
      head - 1,              // last head byte
      head,                  // head/body boundary
      head + prefix,         // body prefix / first slab view boundary
      head + prefix + 70000, // inside the second slab view
      full.size() - 1,       // all but the last byte
  };
  uint64_t spliced = 0;
  for (const size_t offset : offsets) {
    ReplayMsg msg;
    msg.conn_id = next_conn_id_++;
    msg.origin_node = 0;
    msg.splice_offset = offset;
    msg.autonomous = true;
    msg.directives.resize(1);
    msg.directives[0].path = kBig;
    msg.replay_input = Get(kBig, true);
    UniqueFd client = HandTo(1, ControlMsg::kReplay, EncodeReplay(msg));
    const std::string wire = ReadToEof(client.get());
    const std::string expected = offset == 0 ? own : full.substr(offset);
    EXPECT_EQ(wire.size(), expected.size()) << "offset " << offset;
    EXPECT_TRUE(wire == expected) << "offset " << offset;
    spliced += offset > 0 ? 1 : 0;
  }
  EXPECT_EQ(counters(1).spliced_responses.load(), spliced);

  // An offset past the regenerated response cannot be reconciled: the
  // connection closes without a byte.
  ReplayMsg msg;
  msg.conn_id = next_conn_id_++;
  msg.origin_node = 0;
  msg.splice_offset = full.size();
  msg.autonomous = true;
  msg.directives.resize(1);
  msg.directives[0].path = kBig;
  msg.replay_input = Get(kBig, true);
  UniqueFd client = HandTo(1, ControlMsg::kReplay, EncodeReplay(msg));
  EXPECT_EQ(ReadToEof(client.get()), "");
}

// A stand-in for node 1's lateral listener: each connection reads one
// request and gets the next scripted reply, then the socket closes — or,
// for a held reply, stays open and silent until the peer is destroyed.
class FakePeer {
 public:
  struct Reply {
    std::string bytes;
    bool hold = false;
    // Sent after `bytes` from the content store's views (never built), in
    // runs of at most 64 KB spaced 400 us apart: a peer on a ~150 MB/s link.
    BodyParts paced_body;
  };

  explicit FakePeer(std::vector<Reply> replies) {
    auto listener = ListenTcp(0, &port_);
    LARD_CHECK(listener.ok());
    listener_ = std::move(listener.value());
    thread_ = std::thread([this, replies = std::move(replies)]() {
      for (const Reply& reply : replies) {
        UniqueFd fd(::accept(listener_.get(), nullptr, nullptr));
        if (!fd.valid()) {
          return;
        }
        std::string request;
        char buf[4096];
        ssize_t n;
        while (request.find("\r\n\r\n") == std::string::npos &&
               (n = ::recv(fd.get(), buf, sizeof(buf), 0)) > 0) {
          request.append(buf, static_cast<size_t>(n));
        }
        bool ok = SendAll(fd.get(), reply.bytes) && SendAll(fd.get(), reply.paced_body.prefix);
        reply.paced_body.ForEachFillView([&](std::string_view view) {
          std::this_thread::sleep_for(std::chrono::microseconds(400));
          ok = ok && SendAll(fd.get(), view);
        });
        if (reply.hold) {
          std::unique_lock<std::mutex> lock(mutex_);
          released_cv_.wait(lock, [this]() { return released_; });
        }
      }
    });
  }

  ~FakePeer() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    released_cv_.notify_all();
    ::shutdown(listener_.get(), SHUT_RDWR);  // unblocks a pending accept
    thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  static bool SendAll(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      bytes.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  uint16_t port_ = 0;
  UniqueFd listener_;
  std::mutex mutex_;
  std::condition_variable released_cv_;
  bool released_ = false;
  std::thread thread_;
};

// A peer's response head plus the first `body_bytes` of `path`'s body.
std::string PeerReplyPrefix(const std::string& path, uint64_t size, uint64_t length,
                            size_t body_bytes) {
  return "HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(length) + "\r\n\r\n" +
         ExpectedBody(path, size).substr(0, body_bytes);
}

TEST_F(BackendPairTest, RelayCutMidBodyIsFinishedLocally) {
  // The peer dies after its head and K body bytes: K = 0, 1, and K inside
  // the second slab view. The document is node 0's too, at the same
  // length, so node 0 finishes the body from its own store.
  const size_t prefix = ContentStore::ExpectedParts(kBig, kBigSize).prefix.size();
  const std::vector<size_t> cuts = {0, 1, prefix + BodyParts::kMaxView + 4000};
  std::vector<FakePeer::Reply> replies;
  for (const size_t cut : cuts) {
    replies.push_back({PeerReplyPrefix(kBig, kBigSize, kBigSize, cut), false, {}});
  }
  FakePeer peer(std::move(replies));
  OnLoop([&]() { nodes_[0]->AddPeer(1, peer.port()); });
  const std::string expected = ExpectedWire(0, kBig, kBigSize, true);
  for (const size_t cut : cuts) {
    UniqueFd client = RelayFromNode1(kBig);
    const std::string wire = ReadToEof(client.get());
    EXPECT_EQ(wire.size(), expected.size()) << "cut after " << cut;
    EXPECT_TRUE(wire == expected) << "cut after " << cut;
  }
  EXPECT_EQ(counters(0).lateral_out.load(), cuts.size());
  EXPECT_EQ(counters(0).requests_served.load(), cuts.size());
  EXPECT_EQ(counters(0).bytes_to_clients.load(), cuts.size() * kBigSize);
}

TEST_F(BackendPairTest, RelayCutWithAForeignLengthClosesTheClient) {
  // The peer's length is not the local document's: nothing local can
  // finish the body, so the client is closed (and the front end told)
  // after at most what the peer sent — never a short response followed by
  // another one.
  constexpr size_t kSent = 5000;
  FakePeer peer({{PeerReplyPrefix(kBig, kBigSize, kBigSize + 1, kSent), false, {}}});
  OnLoop([&]() { nodes_[0]->AddPeer(1, peer.port()); });
  const ConnId id = next_conn_id_;
  UniqueFd client = RelayFromNode1(kBig);
  const std::string wire = ReadToEof(client.get());
  const std::string head = "HTTP/1.1 200 OK\r\nServer: lard-be0\r\n"
                           "Content-Type: application/octet-stream\r\nConnection: close\r\n"
                           "Content-Length: " +
                           std::to_string(kBigSize + 1) + "\r\n\r\n";
  ASSERT_GE(wire.size(), head.size());
  EXPECT_LE(wire.size(), head.size() + kSent);
  EXPECT_EQ(wire.substr(0, head.size()), head);
  EXPECT_EQ(wire.substr(head.size()),
            ExpectedBody(kBig, kBigSize).substr(0, wire.size() - head.size()));
  for (int i = 0; i < 500 && !ConnClosedReported(id); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(ConnClosedReported(id));
}

TEST_F(BackendPairTest, RelayedNotFoundPassesThrough) {
  const std::string path = "/docs/missing.html";
  UniqueFd client = RelayFromNode1(path);
  EXPECT_EQ(ReadToEof(client.get()),
            "HTTP/1.1 404 Not Found\r\nServer: lard-be0\r\n"
            "Content-Type: application/octet-stream\r\nConnection: close\r\n"
            "Content-Length: 10\r\n\r\nnot found\n");
  EXPECT_EQ(counters(0).lateral_out.load(), 1u);
  EXPECT_EQ(counters(1).lateral_in.load(), 1u);
  EXPECT_EQ(counters(1).not_found.load() + counters(0).not_found.load(), 0u)
      << "not_found counts client 404s served locally";
}

// A fetch deadline shorter than the default, and an idle sweep shorter
// still, so a relay waiting on its peer would be reaped if the sweep took it
// for a stalled write.
class BackendPairShortDeadlineTest : public BackendPairTest {
 protected:
  BackendPairShortDeadlineTest() {
    lateral_timeout_ms_ = 300;
    idle_close_ms_ = 100;
  }
};

TEST_F(BackendPairShortDeadlineTest, RelaySilentAfterHeadIsFinishedLocally) {
  // The peer sends its head (alone, or with some body), then keeps the
  // socket open and says nothing: the fetch deadline fails it and node 0
  // finishes locally. A head queued while the relay waits is not a stalled
  // write, so the idle sweep leaves the connection alone meanwhile.
  const std::string expected = ExpectedWire(0, kBig, kBigSize, true);
  for (const size_t sent : {size_t{0}, size_t{100000}}) {
    FakePeer peer({{PeerReplyPrefix(kBig, kBigSize, kBigSize, sent), /*hold=*/true, {}}});
    OnLoop([&]() { nodes_[0]->AddPeer(1, peer.port()); });
    UniqueFd client = RelayFromNode1(kBig);
    const std::string wire = ReadToEof(client.get());
    EXPECT_EQ(wire.size(), expected.size()) << "after " << sent << " body bytes";
    EXPECT_TRUE(wire == expected) << "after " << sent << " body bytes";
  }
  EXPECT_EQ(counters(0).idle_closes.load(), 0u);
}

TEST_F(BackendPairTest, SplicedReplayOfARelayedResponseResumesAtAnyOffset) {
  // Node 1 adopts a connection whose first response it relays from node 0,
  // with part of it already delivered by the dead origin (node 0's token).
  const std::string full = ExpectedWire(0, kBig, kBigSize, true);
  const size_t head = full.size() - kBigSize;
  const size_t prefix = ContentStore::ExpectedParts(kBig, kBigSize).prefix.size();
  const size_t offsets[] = {
      1,                       // inside the head
      head,                    // head/body boundary
      head + prefix + 100000,  // inside the relayed body
  };
  for (const size_t offset : offsets) {
    ReplayMsg msg;
    msg.conn_id = next_conn_id_++;
    msg.origin_node = 0;
    msg.splice_offset = offset;
    msg.autonomous = true;
    msg.directives.resize(1);
    msg.directives[0].action = DirectiveAction::kLateral;
    msg.directives[0].path = TagPathForNode(kBig, 0);
    msg.replay_input = Get(kBig, true);
    UniqueFd client = HandTo(1, ControlMsg::kReplay, EncodeReplay(msg));
    const std::string wire = ReadToEof(client.get());
    const std::string expected = full.substr(offset);
    EXPECT_EQ(wire.size(), expected.size()) << "offset " << offset;
    EXPECT_TRUE(wire == expected) << "offset " << offset;
  }
  EXPECT_EQ(counters(1).spliced_responses.load(), std::size(offsets));
  EXPECT_EQ(counters(1).lateral_out.load(), std::size(offsets));
  EXPECT_EQ(counters(0).lateral_in.load(), std::size(offsets));
}

// Peak resident set of this process (VmHWM), in kB.
uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

TEST_F(BackendPairTest, SixteenMegabyteRelayHoldsOnlyBytesInFlight) {
  // The peer sends the body from views at link speed rather than memcpy
  // speed, and the client (a TCP socket, as a front end hands off) checks
  // each read against the head and the body's prefix and slab views: the
  // body is materialized nowhere, so any growth is the relay's. Assembling
  // it (a doubling buffer, then a copy) costs well over 32 MB. Cut-through
  // holds only what the client socket refuses; a client that stalls for
  // long enough costs up to one body, copied, by design, since the shared
  // lateral connection is never paused.
  FakePeer peer({{"HTTP/1.1 200 OK\r\nContent-Length: " + std::to_string(kHugeSize) + "\r\n\r\n",
                  false, ContentStore::ExpectedParts(kHuge, kHugeSize)}});
  OnLoop([&]() { nodes_[0]->AddPeer(1, peer.port()); });
  const uint64_t peak_before_kb = PeakRssKb();
  UniqueFd client = RelayFromNode1(kHuge, /*tcp=*/true);
  const std::string full_head = ExpectedWire(0, kHuge, 0, true);
  const std::string head =
      full_head.substr(0, full_head.find("Content-Length: ")) +
      "Content-Length: " + std::to_string(kHugeSize) + "\r\n\r\n";
  const BodyParts parts = ContentStore::ExpectedParts(kHuge, kHugeSize);
  const std::string lead = head + parts.prefix;  // then the fill views
  const uint64_t total = lead.size() + parts.fill_bytes;
  // The expected bytes at `offset`, as long a run as one view allows.
  const auto expected_at = [&](uint64_t offset) {
    if (offset < lead.size()) {
      return std::string_view(lead).substr(offset);
    }
    const uint64_t fill_offset = offset - lead.size();
    const size_t in_view = static_cast<size_t>(fill_offset % BodyParts::kMaxView);
    return parts.fill.substr(
        in_view, static_cast<size_t>(std::min<uint64_t>(BodyParts::kMaxView - in_view,
                                                        parts.fill_bytes - fill_offset)));
  };
  uint64_t offset = 0;
  bool match = true;
  char buf[64 * 1024];
  ssize_t n;
  while (match && (n = ::recv(client.get(), buf, sizeof(buf), 0)) > 0) {
    for (size_t done = 0; match && done < static_cast<size_t>(n);) {
      const std::string_view want = offset < total ? expected_at(offset) : std::string_view();
      const size_t run = std::min(want.size(), static_cast<size_t>(n) - done);
      match = run > 0 && std::memcmp(buf + done, want.data(), run) == 0;
      done += run;
      offset += run;
    }
  }
  const uint64_t peak_after_kb = PeakRssKb();
  EXPECT_TRUE(match) << "first difference at or before byte " << offset;
  EXPECT_EQ(offset, total);
  EXPECT_EQ(counters(0).lateral_out.load(), 1u);
  EXPECT_LT(peak_after_kb - peak_before_kb, 4u * 1024)
      << "VmHWM grew by " << (peak_after_kb - peak_before_kb) << " kB";
}

// ---------------------------------------------------------------------------
// Deep pipelines through the whole cluster
// ---------------------------------------------------------------------------

// Reads responses off a blocking socket one at a time, keeping at most one
// read's worth of bytes: head through the blank line, then the body compared
// against the expected bytes as they arrive.
class ResponseStream {
 public:
  explicit ResponseStream(int fd) : fd_(fd) {}

  // True when the next response is a 200 whose body is exactly `body`.
  bool Next200(std::string_view body) { return Next(200, body); }

  // True when the next response has status `status` and a body of exactly
  // `body`, with a Content-Length to match.
  bool Next(int status, std::string_view body) {
    size_t end;
    while ((end = buffer_.find("\r\n\r\n", pos_)) == std::string::npos) {
      if (!Fill()) {
        return false;
      }
    }
    const std::string head = buffer_.substr(pos_, end + 4 - pos_);
    pos_ = end + 4;
    const std::string status_line =
        "HTTP/1.1 " + std::to_string(status) + " " + ReasonPhrase(status) + "\r\n";
    if (head.rfind(status_line, 0) != 0 ||
        head.find("Content-Length: " + std::to_string(body.size()) + "\r\n") ==
            std::string::npos) {
      return false;
    }
    for (size_t matched = 0; matched < body.size();) {
      if (pos_ == buffer_.size() && !Fill()) {
        return false;
      }
      const size_t n = std::min(body.size() - matched, buffer_.size() - pos_);
      if (buffer_.compare(pos_, n, body.data() + matched, n) != 0) {
        return false;
      }
      pos_ += n;
      matched += n;
    }
    return true;
  }

  bool AtEof() { return pos_ == buffer_.size() && !Fill(); }

 private:
  bool Fill() {
    buffer_.erase(0, pos_);
    pos_ = 0;
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      return false;
    }
    buffer_.append(buf, static_cast<size_t>(n));
    return true;
  }

  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
};

// Sends `requests` in one call from a second thread while the caller reads.
std::thread SendAll(int fd, std::string requests) {
  return std::thread([fd, requests = std::move(requests)]() {
    size_t sent = 0;
    while (sent < requests.size()) {
      const ssize_t n = ::send(fd, requests.data() + sent, requests.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return;
      }
      sent += static_cast<size_t>(n);
    }
  });
}

ClusterConfig PipelineCluster() {
  ClusterConfig config;
  config.num_nodes = 2;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 64ull * 1024 * 1024;
  config.disk_time_scale = 0.01;
  return config;
}

TEST(ProtoServePathTest, HundredThousandPipelinedRequestsComplete) {
  // ~3 MB of requests in one send, almost all served synchronously as cache
  // hits: serving must not take a stack frame per request (the default
  // 8 MB stack overflows near this depth).
  constexpr int kRequests = 100000;
  TargetCatalog catalog;
  const std::string path = "/d64";
  catalog.Intern(path, 64);
  Cluster cluster(PipelineCluster(), &catalog);
  ASSERT_TRUE(cluster.Start().ok());
  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  SetRecvTimeout(fd.value().get(), 60);

  std::string requests;
  for (int i = 0; i < kRequests; ++i) {
    requests += Get(path, i + 1 == kRequests);
  }
  std::thread sender = SendAll(fd.value().get(), std::move(requests));
  const std::string body = ExpectedBody(path, 64);
  ResponseStream stream(fd.value().get());
  int ok = 0;
  while (ok < kRequests && stream.Next200(body)) {
    ++ok;
  }
  sender.join();
  EXPECT_EQ(ok, kRequests);
  EXPECT_TRUE(stream.AtEof()) << "the last request asked for Connection: close";
  EXPECT_EQ(cluster.Snapshot().requests_served, static_cast<uint64_t>(kRequests));
  cluster.Stop();
}

TEST(ProtoServePathTest, PipelinedMegabyteBodiesKeepMemoryFlat) {
  // 500 pipelined GETs for a 1 MB document (an ~18 KB request). The queued
  // responses hold views of the static slab, not 500 MB of bodies, and the
  // back end keeps its heartbeats while it serves them.
  constexpr int kRequests = 500;
  constexpr uint64_t kSize = uint64_t{1} << 20;
  TargetCatalog catalog;
  const std::string path = "/mega.bin";
  catalog.Intern(path, kSize);
  Cluster cluster(PipelineCluster(), &catalog);
  ASSERT_TRUE(cluster.Start().ok());
  auto fd = ConnectTcp(cluster.port());
  ASSERT_TRUE(fd.ok());
  SetRecvTimeout(fd.value().get(), 60);

  const std::string body = ExpectedBody(path, kSize);
  const uint64_t peak_before_kb = PeakRssKb();
  std::string requests;
  for (int i = 0; i < kRequests; ++i) {
    requests += Get(path, i + 1 == kRequests);
  }
  std::thread sender = SendAll(fd.value().get(), std::move(requests));
  ResponseStream stream(fd.value().get());
  int ok = 0;
  while (ok < kRequests && stream.Next200(body)) {
    ++ok;
  }
  sender.join();
  const uint64_t peak_after_kb = PeakRssKb();

  EXPECT_EQ(ok, kRequests) << "every byte of every response arrives";
  EXPECT_TRUE(stream.AtEof());
  const ClusterSnapshot snapshot = cluster.Snapshot();
  EXPECT_EQ(snapshot.auto_removals, 0u) << "the serving node must keep its heartbeats";
  EXPECT_EQ(snapshot.bytes_to_clients, kRequests * kSize);
  EXPECT_LT(peak_after_kb - peak_before_kb, 64u * 1024) << "VmHWM grew by "
                                                       << (peak_after_kb - peak_before_kb)
                                                       << " kB";
  cluster.Stop();
}

// ---------------------------------------------------------------------------
// Peer service: what a back end's lateral listener answers
// ---------------------------------------------------------------------------

TEST_F(BackendPairTest, PeerPipelineAnswersInRequestOrder) {
  // A peer pipelines a disk miss, a second miss, a cache hit queued behind
  // that miss, a 404 and another hit. Node 1 answers in request order even
  // though the hit could be produced before the disk finishes.
  const std::string missing = "/docs/missing.html";
  UniqueFd peer = ConnectPeer(1);
  std::thread sender = SendAll(peer.get(), Get(kSmall, false) + Get(kBig, false) +
                                               Get(kSmall, false) + Get(missing, false) +
                                               Get(kBig, false));
  const std::string small = ExpectedBody(kSmall, kSmallSize);
  const std::string big = ExpectedBody(kBig, kBigSize);
  ResponseStream stream(peer.get());
  EXPECT_TRUE(stream.Next(200, small));
  EXPECT_TRUE(stream.Next(200, big));
  EXPECT_TRUE(stream.Next(200, small));
  EXPECT_TRUE(stream.Next(404, "not found\n"));
  EXPECT_TRUE(stream.Next(200, big));
  sender.join();

  // Peer service counts as lateral service, never as client service.
  EXPECT_EQ(counters(1).lateral_in.load(), 5u);
  EXPECT_EQ(counters(1).local_misses.load(), 2u);
  EXPECT_EQ(counters(1).local_hits.load(), 2u);
  EXPECT_EQ(counters(1).requests_served.load(), 0u);
  EXPECT_EQ(counters(1).bytes_to_clients.load(), 0u);
  EXPECT_EQ(counters(1).not_found.load(), 0u);
  EXPECT_EQ(counters(1).connections_adopted.load(), 0u);
}

TEST_F(BackendPairTest, HundredThousandPipelinedPeerRequestsComplete) {
  // The requests queue behind a 16 MB disk miss (~70 ms at this disk time
  // scale), then are served synchronously as cache hits when it completes:
  // one stack frame per request would overflow the stack.
  constexpr int kRequests = 100000;
  UniqueFd peer = ConnectPeer(1);
  std::string requests = Get(kHuge, false);
  for (int i = 0; i < kRequests; ++i) {
    requests += Get(kTiny, false);
  }
  std::thread sender = SendAll(peer.get(), std::move(requests));
  const std::string body = ExpectedBody(kTiny, kTinySize);
  ResponseStream stream(peer.get());
  EXPECT_TRUE(stream.Next200(ExpectedBody(kHuge, kHugeSize)));
  int ok = 0;
  while (ok < kRequests && stream.Next200(body)) {
    ++ok;
  }
  sender.join();
  EXPECT_EQ(ok, kRequests);
  EXPECT_EQ(counters(1).lateral_in.load(), static_cast<uint64_t>(kRequests) + 1);
  EXPECT_EQ(counters(1).requests_served.load(), 0u);
}

TEST_F(BackendPairShortDeadlineTest, QuietPeerConnectionOutlivesIdleSweeps) {
  // The idle sweep reaps quiet client connections after 100 ms. A peer's
  // connection is shared by all its fetches, so it is never reaped.
  UniqueFd peer = ConnectPeer(1);
  const std::string body = ExpectedBody(kSmall, kSmallSize);
  ResponseStream stream(peer.get());
  std::thread first = SendAll(peer.get(), Get(kSmall, false));
  first.join();
  EXPECT_TRUE(stream.Next200(body));
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  std::thread second = SendAll(peer.get(), Get(kSmall, false));
  second.join();
  EXPECT_TRUE(stream.Next200(body));
  EXPECT_EQ(counters(1).idle_closes.load(), 0u);
}

TEST_F(BackendPairTest, NodeStatusCountsClientConnectionsOnly) {
  // One keep-alive client connection and one peer connection are open on
  // node 1; its status frame reports one open connection.
  UniqueFd client = Handoff(1, {}, Get(kSmall, false));
  const std::string body = ExpectedBody(kSmall, kSmallSize);
  ResponseStream client_stream(client.get());
  ASSERT_TRUE(client_stream.Next200(body));
  UniqueFd peer = ConnectPeer(1);
  std::thread sender = SendAll(peer.get(), Get(kSmall, false));
  sender.join();
  ResponseStream peer_stream(peer.get());
  ASSERT_TRUE(peer_stream.Next200(body));
  EXPECT_EQ(FreshStatus(1).open_conns, 1u);
}

TEST_F(BackendPairTest, MalformedPeerRequestGetsA400AndAClose) {
  // A malformed request on one peer connection ends that connection the
  // way it ends a client's: a 400, then a close. Another peer connection
  // to the same node is still served.
  UniqueFd healthy = ConnectPeer(1);
  const std::string body = ExpectedBody(kSmall, kSmallSize);
  ResponseStream healthy_stream(healthy.get());
  std::thread first = SendAll(healthy.get(), Get(kSmall, false));
  first.join();
  ASSERT_TRUE(healthy_stream.Next200(body));

  UniqueFd bad = ConnectPeer(1);
  std::thread garbage = SendAll(bad.get(), "GARBAGE\r\n\r\n");
  garbage.join();
  std::string wire;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(bad.get(), buf, sizeof(buf), 0)) > 0) {
    wire.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(n, 0) << "the connection ends in an orderly close, not a timeout";
  EXPECT_EQ(wire,
            "HTTP/1.0 400 Bad Request\r\nServer: lard-be1\r\n"
            "Content-Type: application/octet-stream\r\nConnection: close\r\n"
            "Content-Length: 12\r\n\r\nbad request\n");

  std::thread second = SendAll(healthy.get(), Get(kSmall, false));
  second.join();
  EXPECT_TRUE(healthy_stream.Next200(body));
  EXPECT_EQ(counters(1).lateral_in.load(), 2u);
  EXPECT_EQ(counters(1).requests_served.load(), 0u);
}

}  // namespace
}  // namespace lard
