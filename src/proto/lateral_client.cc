#include "src/proto/lateral_client.h"

#include "src/net/socket.h"
#include "src/util/logging.h"

namespace lard {

LateralClient::LateralClient(EventLoop* loop, uint16_t peer_port, int64_t timeout_ms)
    : loop_(loop), peer_port_(peer_port), timeout_ms_(timeout_ms) {}

bool LateralClient::EnsureConnected() {
  if (conn_ != nullptr && conn_->open()) {
    return true;
  }
  conn_.reset();
  parser_.reset();
  auto fd = ConnectTcp(peer_port_);
  if (!fd.ok()) {
    LARD_LOG(ERROR) << "lateral connect to :" << peer_port_ << " failed: "
                    << fd.status().ToString();
    return false;
  }
  LARD_CHECK_OK(SetNonBlocking(fd.value().get(), true));
  LARD_CHECK_OK(SetTcpNoDelay(fd.value().get()));
  conn_ = std::make_unique<Connection>(loop_, std::move(fd.value()));
  parser_ = std::make_unique<ResponseParser>();
  conn_->set_on_data([this](std::string_view data) { OnData(data); });
  conn_->set_on_close([this]() { OnClose(); });
  conn_->Start();
  return true;
}

void LateralClient::Fetch(const std::string& path, FetchHandler handler) {
  if (!EnsureConnected()) {
    handler.on_end(false);
    return;
  }
  ++fetches_issued_;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms_);
  pending_.push_back(InFlight{std::move(handler), deadline});
  if (timeout_ms_ > 0 && !deadline_armed_) {
    ArmDeadline(deadline);
  }
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: lateral\r\n\r\n";
  conn_->Write(request);
}

void LateralClient::ArmDeadline(std::chrono::steady_clock::time_point deadline) {
  deadline_armed_ = true;
  // Rounded up, so the timer never fires before `deadline`.
  const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  loop_->ScheduleAfterMs(wait.count(), alive_.Guard([this]() { OnDeadline(); }));
}

void LateralClient::OnDeadline() {
  deadline_armed_ = false;
  if (pending_.empty()) {
    return;
  }
  // Responses are FIFO and deadlines grow in fetch order, so the front
  // fetch has the earliest one. Past it, a silent peer (killed node whose
  // listener still accepts, or one that stalls mid-body) fails the pipeline
  // instead of wedging it — and the client connection being served with it.
  if (std::chrono::steady_clock::now() < pending_.front().deadline) {
    ArmDeadline(pending_.front().deadline);
    return;
  }
  ++fetches_timed_out_;
  LARD_LOG(WARNING) << "lateral peer :" << peer_port_ << " silent for " << timeout_ms_
                    << "ms, failing " << pending_.size() << " in-flight fetches";
  if (conn_ != nullptr) {
    conn_->Close();
  }
  OnClose();
}

void LateralClient::OnData(std::string_view data) {
  // OnClose defers the pair's destruction, so `parser` outlives this call
  // even when a handler fails the pipeline.
  const Connection* const conn = conn_.get();
  ResponseParser* const parser = parser_.get();
  parsing_ = conn;
  const ResponseParser::State state = parser->Stream(data, this);
  parsing_ = nullptr;
  if (state == ResponseParser::State::kError && conn_.get() == conn) {
    LARD_LOG(ERROR) << "lateral peer :" << peer_port_ << " sent garbage";
    conn_->Close();
    OnClose();
  }
}

void LateralClient::OnHead(HttpResponse head, uint64_t content_length) {
  if (conn_.get() != parsing_) {
    return;  // the pipeline failed under the parser
  }
  if (pending_.empty()) {
    LARD_LOG(ERROR) << "lateral peer :" << peer_port_ << " sent a response nobody asked for";
    conn_->Close();
    OnClose();
    return;
  }
  pending_.front().handler.on_head(head.status, content_length);
}

void LateralClient::OnBody(std::string_view bytes) {
  if (conn_.get() != parsing_) {
    return;
  }
  pending_.front().handler.on_body(bytes);
}

void LateralClient::OnEnd() {
  if (conn_.get() != parsing_) {
    return;
  }
  FetchHandler handler = std::move(pending_.front().handler);
  pending_.pop_front();
  handler.on_end(true);
}

void LateralClient::OnClose() {
  // Fail everything in flight; the next Fetch reconnects. The Connection may
  // be calling us from inside its own callback and the parser may be on the
  // stack, so their destruction is deferred to the next loop tick.
  std::deque<InFlight> failed;
  failed.swap(pending_);
  if (conn_ != nullptr) {
    std::shared_ptr<Connection> dead_conn(conn_.release());
    std::shared_ptr<ResponseParser> dead_parser(parser_.release());
    loop_->Post([dead_conn, dead_parser]() {});
  }
  for (InFlight& fetch : failed) {
    fetch.handler.on_end(false);
  }
}

}  // namespace lard
