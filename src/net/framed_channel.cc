#include "src/net/framed_channel.h"

#include "src/util/capacity.h"
#include "src/util/logging.h"

namespace lard {
namespace {

constexpr size_t kHeaderBytes = 8;
constexpr char kFlagHasFd = 0x1;
constexpr size_t kKeepFrameBytes = 64 * 1024;  // a larger frame buffer is released

uint32_t GetU32(const char* p) {
  return static_cast<uint8_t>(p[0]) | (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24);
}

}  // namespace

FramedChannel::FramedChannel(EventLoop* loop, UniqueFd fd) : conn_(loop, std::move(fd)) {
  conn_.set_fd_sink(&received_fds_);
  conn_.set_on_data([this](std::string_view data) { OnData(data); });
  conn_.set_on_close([this]() {
    if (on_close_) {
      on_close_();
    }
  });
}

void FramedChannel::SendWithFd(uint8_t type, std::string_view payload, UniqueFd fd) {
  LARD_CHECK(payload.size() <= kMaxPayload);
  const auto len = static_cast<uint32_t>(payload.size());
  const char header[kHeaderBytes] = {
      static_cast<char>(len),       static_cast<char>(len >> 8), static_cast<char>(len >> 16),
      static_cast<char>(len >> 24), static_cast<char>(type),     fd.valid() ? kFlagHasFd : '\0',
      0,                            0};
  // One reused buffer, so the fd rides on the header's first byte and a
  // frame allocates only when it outgrows every earlier one.
  ReserveRounded(&frame_, kHeaderBytes + payload.size());
  frame_.assign(header, kHeaderBytes).append(payload);
  conn_.Write(frame_, std::move(fd));
  ClearKeeping(&frame_, kKeepFrameBytes);  // one long handoff does not pin its size
}

void FramedChannel::OnData(std::string_view data) {
  in_buffer_.append(data.data(), data.size());
  size_t pos = 0;
  while (conn_.open() && in_buffer_.size() - pos >= kHeaderBytes) {
    const uint32_t payload_len = GetU32(in_buffer_.data() + pos);
    if (payload_len > kMaxPayload) {
      LARD_LOG(ERROR) << "oversized frame (" << payload_len << " bytes); closing channel";
      CloseOnBadFrame();
      return;
    }
    if (in_buffer_.size() - pos < kHeaderBytes + payload_len) {
      break;
    }
    const uint8_t type = static_cast<uint8_t>(in_buffer_[pos + 4]);
    const char flags = in_buffer_[pos + 5];
    const std::string_view payload(in_buffer_.data() + pos + kHeaderBytes, payload_len);
    pos += kHeaderBytes + payload_len;

    UniqueFd fd;
    if ((flags & kFlagHasFd) != 0) {
      if (received_fds_.empty()) {
        LARD_LOG(ERROR) << "frame declared an fd but none arrived; closing channel";
        CloseOnBadFrame();
        return;
      }
      fd = std::move(received_fds_.front());
      received_fds_.pop_front();
    }
    if (on_message_) {
      on_message_(type, payload, std::move(fd));
    }
  }
  in_buffer_.erase(0, pos);
}

void FramedChannel::CloseOnBadFrame() {
  conn_.Close();
  if (on_close_) {
    on_close_();
  }
}

}  // namespace lard
