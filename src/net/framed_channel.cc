#include "src/net/framed_channel.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/util/logging.h"

namespace lard {
namespace {

constexpr size_t kHeaderBytes = 8;
constexpr uint8_t kFlagHasFd = 0x1;

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t GetU32(const char* p) {
  return static_cast<uint8_t>(p[0]) | (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24);
}

}  // namespace

FramedChannel::FramedChannel(EventLoop* loop, UniqueFd fd) : loop_(loop), fd_(std::move(fd)) {
  LARD_CHECK(fd_.valid());
}

FramedChannel::~FramedChannel() {
  if (open_) {
    Close();
  }
}

void FramedChannel::Start() {
  LARD_CHECK(!open_);
  open_ = true;
  interest_ = EPOLLIN;
  loop_->Register(fd_.get(), interest_, [this](uint32_t events) { HandleEvents(events); });
}

void FramedChannel::Send(uint8_t type, std::string_view payload) {
  SendWithFd(type, payload, UniqueFd());
}

void FramedChannel::SendWithFd(uint8_t type, std::string_view payload, UniqueFd fd) {
  LARD_CHECK(open_);
  LARD_CHECK(payload.size() <= kMaxPayload);
  OutFrame frame;
  frame.bytes.reserve(kHeaderBytes + payload.size());
  PutU32(&frame.bytes, static_cast<uint32_t>(payload.size()));
  frame.bytes.push_back(static_cast<char>(type));
  frame.bytes.push_back(static_cast<char>(fd.valid() ? kFlagHasFd : 0));
  frame.bytes.push_back(0);
  frame.bytes.push_back(0);
  frame.bytes.append(payload.data(), payload.size());
  frame.fd = std::move(fd);
  out_.push_back(std::move(frame));
  Flush();
  UpdateInterest();
}

void FramedChannel::Flush() {
  while (open_ && !out_.empty()) {
    OutFrame& frame = out_.front();
    ssize_t n = 0;
    if (frame.offset == 0 && frame.fd.valid()) {
      // First byte of an fd-carrying frame: attach SCM_RIGHTS.
      msghdr msg{};
      iovec iov{};
      iov.iov_base = frame.bytes.data();
      iov.iov_len = frame.bytes.size();
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      char control[CMSG_SPACE(sizeof(int))] = {0};
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);
      cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
      cmsg->cmsg_level = SOL_SOCKET;
      cmsg->cmsg_type = SCM_RIGHTS;
      cmsg->cmsg_len = CMSG_LEN(sizeof(int));
      const int raw = frame.fd.get();
      std::memcpy(CMSG_DATA(cmsg), &raw, sizeof(int));
      n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
      if (n > 0) {
        frame.fd.Reset();  // delivered; our duplicate is no longer needed
      }
    } else {
      n = ::send(fd_.get(), frame.bytes.data() + frame.offset, frame.bytes.size() - frame.offset,
                 MSG_NOSIGNAL);
    }
    if (n > 0) {
      frame.offset += static_cast<size_t>(n);
      if (frame.offset == frame.bytes.size()) {
        out_.pop_front();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    FailAndClose();
    return;
  }
}

void FramedChannel::HandleEvents(uint32_t events) {
  if (!open_) {
    return;
  }
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && (events & EPOLLIN) == 0) {
    FailAndClose();
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    Flush();
    if (open_) {
      UpdateInterest();
    }
  }
  if (open_ && (events & EPOLLIN) != 0) {
    HandleReadable();
  }
}

void FramedChannel::HandleReadable() {
  char buf[kReadChunkBytes];
  while (open_) {
    msghdr msg{};
    iovec iov{};
    iov.iov_base = buf;
    iov.iov_len = sizeof(buf);
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    char control[CMSG_SPACE(4 * sizeof(int))] = {0};
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);

    const ssize_t n = ::recvmsg(fd_.get(), &msg, 0);
    if (n > 0) {
      for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msg); cmsg != nullptr; cmsg = CMSG_NXTHDR(&msg, cmsg)) {
        if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS) {
          const size_t count = (cmsg->cmsg_len - CMSG_LEN(0)) / sizeof(int);
          int fds[4];
          std::memcpy(fds, CMSG_DATA(cmsg), count * sizeof(int));
          for (size_t i = 0; i < count; ++i) {
            received_fds_.emplace_back(fds[i]);
          }
        }
      }
      in_buffer_.append(buf, static_cast<size_t>(n));
      ParseFrames();
      if (!open_ || static_cast<size_t>(n) < sizeof(buf)) {
        return;
      }
      continue;
    }
    if (n == 0) {
      FailAndClose();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    FailAndClose();
    return;
  }
}

void FramedChannel::ParseFrames() {
  size_t pos = 0;
  while (open_ && in_buffer_.size() - pos >= kHeaderBytes) {
    const uint32_t payload_len = GetU32(in_buffer_.data() + pos);
    if (payload_len > kMaxPayload) {
      LARD_LOG(ERROR) << "oversized frame (" << payload_len << " bytes); closing channel";
      in_buffer_.erase(0, pos);
      FailAndClose();
      return;
    }
    if (in_buffer_.size() - pos < kHeaderBytes + payload_len) {
      break;
    }
    const uint8_t type = static_cast<uint8_t>(in_buffer_[pos + 4]);
    const uint8_t flags = static_cast<uint8_t>(in_buffer_[pos + 5]);
    std::string payload = in_buffer_.substr(pos + kHeaderBytes, payload_len);
    pos += kHeaderBytes + payload_len;

    UniqueFd fd;
    if ((flags & kFlagHasFd) != 0) {
      if (received_fds_.empty()) {
        LARD_LOG(ERROR) << "frame declared an fd but none arrived; closing channel";
        in_buffer_.erase(0, pos);
        FailAndClose();
        return;
      }
      fd = std::move(received_fds_.front());
      received_fds_.pop_front();
    }
    if (on_message_) {
      on_message_(type, std::move(payload), std::move(fd));
    }
  }
  in_buffer_.erase(0, pos);
}

void FramedChannel::UpdateInterest() {
  if (!open_) {
    return;
  }
  const uint32_t want = EPOLLIN | (out_.empty() ? 0u : EPOLLOUT);
  if (want != interest_) {
    interest_ = want;
    loop_->Modify(fd_.get(), interest_);
  }
}

void FramedChannel::Close() {
  if (!open_) {
    return;
  }
  open_ = false;
  loop_->Unregister(fd_.get());
  fd_.Reset();
}

void FramedChannel::FailAndClose() {
  if (!open_) {
    return;
  }
  open_ = false;
  loop_->Unregister(fd_.get());
  fd_.Reset();
  if (on_close_) {
    on_close_();
  }
}

}  // namespace lard
