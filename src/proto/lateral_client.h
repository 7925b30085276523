// Client side of the back-end-to-back-end lateral fetch path (Section 7.4).
// The paper implements remote fetching over NFS cross-mounts and notes that
// "persistent HTTP connections among the backend nodes" are the equivalent
// alternative — which is what we build: one persistent HTTP/1.1 connection
// per peer, pipelined, with responses matched to fetches in FIFO order.
// The relaying front-end reuses this class for its back-end connections.
//
// Responses are streamed, never assembled: a fetch's handler gets the head,
// then each run of body bytes as it is read, then the end. The caller passes
// the bytes on as they come (cut-through), so a relayed body is held nowhere.
//
// All methods on the owning event loop's thread.
#ifndef SRC_PROTO_LATERAL_CLIENT_H_
#define SRC_PROTO_LATERAL_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/http/response_parser.h"
#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/util/liveness.h"

namespace lard {

class LateralClient : private ResponseParser::Sink {
 public:
  // One fetch's callbacks, in order: on_head once the response head is in
  // (status, Content-Length), on_body for each run of body bytes (a view
  // valid only during the call), then on_end exactly once. on_end(false) is
  // a transport failure: before on_head when the peer never answered, after
  // it when the body was cut short.
  struct FetchHandler {
    std::function<void(int status, uint64_t length)> on_head;
    std::function<void(std::string_view bytes)> on_body;
    std::function<void(bool ok)> on_end;
  };

  // `timeout_ms` bounds each fetch, from issue to the body's last byte: a
  // peer that accepts but never answers — a *killed* node's listener keeps
  // accepting into the kernel backlog until its process is torn down — or
  // goes silent mid-body would otherwise wedge the FIFO pipeline (and the
  // client connection being served) forever. On expiry the whole pipeline
  // fails (on_end(false); callers fall back to a local serve) and the next
  // fetch reconnects. <= 0 disables. One loop timer at most is armed per
  // client, for the oldest in-flight fetch's deadline.
  LateralClient(EventLoop* loop, uint16_t peer_port, int64_t timeout_ms = 2000);

  // Issues GET `path`; handlers run in issue order. Connects lazily on first
  // use; a transport failure fails all in-flight fetches and the next fetch
  // reconnects.
  void Fetch(const std::string& path, FetchHandler handler);

  uint64_t fetches_issued() const { return fetches_issued_; }
  uint64_t fetches_timed_out() const { return fetches_timed_out_; }

 private:
  bool EnsureConnected();
  void OnData(std::string_view data);
  void OnClose();
  // Arms the deadline timer to fire at `deadline`, a future time point.
  void ArmDeadline(std::chrono::steady_clock::time_point deadline);
  // The timer fired: fails the pipeline if the oldest in-flight fetch is past
  // its deadline, else re-arms for that fetch's deadline.
  void OnDeadline();

  // ResponseParser::Sink: the response at the front of the pipeline.
  void OnHead(HttpResponse head, uint64_t content_length) override;
  void OnBody(std::string_view bytes) override;
  void OnEnd() override;

  EventLoop* loop_;
  uint16_t peer_port_ = 0;
  int64_t timeout_ms_ = 0;
  // Guards the deadline timer: the owning back-end can be torn down in place
  // while its loop keeps running.
  LivenessToken alive_;
  // A connection and its parser live and die together. A handler can fail
  // the pipeline (its next Fetch's write errors) while the parser is on the
  // stack, so a dead pair is destroyed on the next loop tick, and the
  // parser's remaining callbacks for it are ignored: they go to the sink
  // only while `conn_` is still the connection whose bytes are parsed.
  std::unique_ptr<Connection> conn_;
  std::unique_ptr<ResponseParser> parser_;
  const Connection* parsing_ = nullptr;
  struct InFlight {
    FetchHandler handler;
    std::chrono::steady_clock::time_point deadline;  // Fetch() time + timeout_ms_
  };
  std::deque<InFlight> pending_;
  bool deadline_armed_ = false;
  uint64_t fetches_issued_ = 0;
  uint64_t fetches_timed_out_ = 0;
};

}  // namespace lard

#endif  // SRC_PROTO_LATERAL_CLIENT_H_
