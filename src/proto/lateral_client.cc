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
  auto fd = ConnectTcp(peer_port_);
  if (!fd.ok()) {
    LARD_LOG(ERROR) << "lateral connect to :" << peer_port_ << " failed: "
                    << fd.status().ToString();
    return false;
  }
  LARD_CHECK_OK(SetNonBlocking(fd.value().get(), true));
  LARD_CHECK_OK(SetTcpNoDelay(fd.value().get()));
  conn_ = std::make_unique<Connection>(loop_, std::move(fd.value()));
  parser_ = ResponseParser();
  conn_->set_on_data([this](std::string_view data) { OnData(data); });
  conn_->set_on_close([this]() { OnClose(); });
  conn_->Start();
  return true;
}

void LateralClient::Fetch(const std::string& path, FetchCallback callback) {
  if (!EnsureConnected()) {
    callback(0, "");
    return;
  }
  ++fetches_issued_;
  pending_.push_back(std::move(callback));
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: lateral\r\n\r\n";
  conn_->Write(std::move(request));
  if (timeout_ms_ > 0) {
    // Deadline for this fetch: responses are FIFO, so it has been answered
    // iff the completed count passed its issue number by then. A silent peer
    // (killed node whose listener still accepts) fails the pipeline instead
    // of wedging it — and the client connection being served with it.
    loop_->ScheduleAfterMs(timeout_ms_, alive_.Guard([this, expected = fetches_issued_]() {
                             if (fetches_completed_ >= expected) {
                               return;
                             }
                             ++fetches_timed_out_;
                             LARD_LOG(WARNING)
                                 << "lateral peer :" << peer_port_
                                 << " silent for " << timeout_ms_ << "ms, failing "
                                 << pending_.size() << " in-flight fetches";
                             if (conn_ != nullptr) {
                               conn_->Close();
                             }
                             OnClose();
                           }));
  }
}

void LateralClient::OnData(std::string_view data) {
  std::vector<HttpResponse> responses;
  if (parser_.Feed(data, &responses) == ResponseParser::State::kError) {
    LARD_LOG(ERROR) << "lateral peer :" << peer_port_ << " sent garbage";
    conn_->Close();
    OnClose();
    return;
  }
  for (auto& response : responses) {
    LARD_CHECK(!pending_.empty()) << "lateral response without a pending fetch";
    FetchCallback callback = std::move(pending_.front());
    pending_.pop_front();
    ++fetches_completed_;
    callback(response.status, std::move(response.body));
  }
}

void LateralClient::OnClose() {
  // Fail everything in flight; the next Fetch reconnects. The Connection may
  // be calling us from inside its own callback, so its destruction is
  // deferred to the next loop tick.
  std::deque<FetchCallback> failed;
  failed.swap(pending_);
  fetches_completed_ += failed.size();
  if (conn_ != nullptr) {
    std::shared_ptr<Connection> dead(conn_.release());
    loop_->Post([dead]() {});
  }
  for (auto& callback : failed) {
    callback(0, "");
  }
}

}  // namespace lard
