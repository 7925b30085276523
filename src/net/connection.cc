#include "src/net/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/util/capacity.h"
#include "src/util/logging.h"

namespace lard {
namespace {

// Hands the fds that arrived with `msg` to `sink`, or closes them.
void TakeFds(msghdr* msg, std::deque<UniqueFd>* sink) {
  for (cmsghdr* cmsg = CMSG_FIRSTHDR(msg); cmsg != nullptr; cmsg = CMSG_NXTHDR(msg, cmsg)) {
    if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS) {
      const size_t count = (cmsg->cmsg_len - CMSG_LEN(0)) / sizeof(int);
      for (size_t i = 0; i < count; ++i) {
        int raw = -1;
        std::memcpy(&raw, CMSG_DATA(cmsg) + i * sizeof(int), sizeof(int));
        UniqueFd fd(raw);
        if (sink != nullptr) {
          sink->push_back(std::move(fd));
        }
      }
    }
  }
}

}  // namespace

Connection::Connection(EventLoop* loop, UniqueFd fd) : loop_(loop), fd_(std::move(fd)) {
  LARD_CHECK(fd_.valid());
}

Connection::~Connection() {
  if (open_) {
    Close();
  }
}

void Connection::Start() {
  LARD_CHECK(!open_);
  open_ = true;
  loop_->Register(fd_.get(), EPOLLIN, [this](uint32_t events) { HandleEvents(events); });
}

void Connection::HandleEvents(uint32_t events) {
  if (!open_) {
    return;
  }
  // With EPOLLIN set the read loop runs to EOF or error first, so bytes the
  // peer wrote before hanging up are delivered.
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && (events & EPOLLIN) == 0) {
    FailAndClose();
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    HandleWritable();
  }
  if (open_ && (events & EPOLLIN) != 0) {
    HandleReadable();
  }
}

void Connection::HandleReadable() {
  char buf[kReadChunkBytes];
  // A sendmsg carries at most one fd, and one recvmsg takes one send's fds.
  alignas(cmsghdr) char control[CMSG_SPACE(4 * sizeof(int))];
  while (open_) {
    iovec iov{buf, sizeof(buf)};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    // lard-lint: allow(blocking-call) fd is O_NONBLOCK (Connection requires it);
    // this recvmsg returns EAGAIN instead of blocking the loop.
    const ssize_t n = ::recvmsg(fd_.get(), &msg, MSG_CMSG_CLOEXEC);
    if (n > 0) {
      TakeFds(&msg, fd_sink_);
      if (on_data_) {
        on_data_(std::string_view(buf, static_cast<size_t>(n)));
      }
      if (static_cast<size_t>(n) < sizeof(buf)) {
        return;  // drained
      }
      continue;
    }
    if (n == 0) {
      FailAndClose();  // peer EOF
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

std::string_view Connection::TakeSkip(std::string_view data) {
  const size_t skip = static_cast<size_t>(std::min<uint64_t>(skip_next_, data.size()));
  skip_next_ -= skip;
  return data.substr(skip);
}

bool Connection::JoinOwnedTail(std::string_view data) {
  if (data.size() > kJoinBytes || out_.empty() || !out_.back().borrowed.empty() ||
      out_.back().owned.size() >= kTailBytes) {
    return false;
  }
  ReserveRounded(&out_.back().owned, out_.back().owned.size() + data.size());
  out_.back().owned.append(data);
  out_bytes_ += data.size();
  return true;
}

void Connection::Queue(std::string data) {
  LARD_CHECK(open_);
  data.erase(0, data.size() - TakeSkip(data).size());
  if (data.empty() || JoinOwnedTail(data)) {
    return;
  }
  out_bytes_ += data.size();
  out_.push_back(Segment{std::move(data), {}, UniqueFd()});
}

void Connection::QueueBorrowed(std::string_view data) {
  LARD_CHECK(open_);
  data = TakeSkip(data);
  if (data.empty() || JoinOwnedTail(data)) {
    return;
  }
  out_bytes_ += data.size();
  out_.push_back(Segment{{}, data, UniqueFd()});
}

void Connection::Flush() {
  if (!open_ || writing_) {
    return;  // waiting for EPOLLOUT: HandleWritable sends in queue order
  }
  if (SendQueued()) {
    UpdateInterest();
  }
}

void Connection::Write(std::string_view data, UniqueFd fd) {
  LARD_CHECK(open_);
  data = TakeSkip(data);
  if (!SendQueued(&data, &fd)) {
    return;
  }
  if (!data.empty() && (fd.valid() || !JoinOwnedTail(data))) {
    out_bytes_ += data.size();
    out_.push_back(Segment{std::string(data), {}, std::move(fd)});
  }
  UpdateInterest();
}

bool Connection::SendQueued(std::string_view* extra, UniqueFd* extra_fd) {
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  while (!out_.empty() || (extra != nullptr && !extra->empty())) {
    iovec iov[kMaxIov];
    size_t count = 0;
    size_t offset = out_offset_;
    UniqueFd* passing = nullptr;  // the fd riding on this sendmsg
    for (auto it = out_.begin(); it != out_.end() && count < kMaxIov; ++it, ++count) {
      if (it->fd.valid()) {
        if (count > 0) {
          break;  // its fd must ride on its own first byte
        }
        passing = &it->fd;
      }
      const std::string_view bytes = it->bytes();
      iov[count].iov_base = const_cast<char*>(bytes.data() + offset);
      iov[count].iov_len = bytes.size() - offset;
      offset = 0;
    }
    // The extra view rides along once every queued segment is in the list,
    // and, when it carries an fd, only at the head.
    const bool extra_has_fd = extra_fd != nullptr && extra_fd->valid();
    if (count == out_.size() && count < kMaxIov && extra != nullptr && !extra->empty() &&
        (count == 0 || !extra_has_fd)) {
      if (extra_has_fd) {
        passing = extra_fd;
      }
      iov[count].iov_base = const_cast<char*>(extra->data());
      iov[count].iov_len = extra->size();
      ++count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    if (passing != nullptr) {
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);
      cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
      cmsg->cmsg_level = SOL_SOCKET;
      cmsg->cmsg_type = SCM_RIGHTS;
      cmsg->cmsg_len = CMSG_LEN(sizeof(int));
      const int raw = passing->get();
      std::memcpy(CMSG_DATA(cmsg), &raw, sizeof(int));
    }
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      if (passing != nullptr) {
        passing->Reset();  // delivered with the first byte
      }
      bytes_flushed_ += static_cast<uint64_t>(n);
      size_t sent = static_cast<size_t>(n);
      while (sent > 0 && !out_.empty()) {
        const size_t segment = out_.front().bytes().size();
        const size_t take = std::min(sent, segment - out_offset_);
        sent -= take;
        out_bytes_ -= take;
        out_offset_ += take;
        if (out_offset_ == segment) {
          out_.pop_front();
          out_offset_ = 0;
        }
      }
      if (sent > 0) {
        extra->remove_prefix(sent);
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    FailAndClose();
    return false;
  }
  return true;
}

void Connection::HandleWritable() {
  const uint64_t flushed_before = bytes_flushed_;
  if (!SendQueued()) {
    return;
  }
  if (out_.empty()) {
    if (close_after_flush_) {
      Close();
      return;
    }
    UpdateInterest();
    if (on_write_drained_) {
      auto drained = std::move(on_write_drained_);
      on_write_drained_ = nullptr;
      drained();
    }
  }
  if (bytes_flushed_ != flushed_before && on_write_progress_) {
    on_write_progress_();
  }
}

void Connection::UpdateInterest() {
  if (!open_) {
    return;
  }
  if (writing_ != !out_.empty()) {
    writing_ = !out_.empty();
    loop_->Modify(fd_.get(), EPOLLIN | (writing_ ? EPOLLOUT : 0u));
  }
}

void Connection::CloseAfterFlush() {
  if (!open_) {
    return;
  }
  if (out_.empty()) {
    Close();
    return;
  }
  close_after_flush_ = true;
}

void Connection::Close() {
  if (!open_) {
    return;
  }
  open_ = false;
  loop_->Unregister(fd_.get());
  fd_.Reset();
  out_.clear();  // closes the fds of unsent fd segments
  out_offset_ = 0;
  out_bytes_ = 0;
  skip_next_ = 0;
}

void Connection::FailAndClose() {
  if (!open_) {
    return;
  }
  Close();
  if (on_close_) {
    on_close_();
  }
}

UniqueFd Connection::Detach() {
  LARD_CHECK(open_);
  LARD_CHECK(pending_write_bytes() == 0) << "cannot hand off with unsent response bytes";
  open_ = false;
  loop_->Unregister(fd_.get());
  return std::move(fd_);
}

}  // namespace lard
