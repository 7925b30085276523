// Length-prefixed message channel over a stream socket, with optional file
// descriptor attachment per message (SCM_RIGHTS on unix-domain sockets).
//
// This is the prototype's control-session transport (Section 7.1): the
// dispatcher's tagged requests, the back-ends' disk-queue reports, and —
// carrying an fd — the TCP connection handoff itself.
//
// It is a framing layer only: it owns a Connection, which does all of the
// socket I/O (one read loop, one write queue, one hangup rule). Sending
// writes header and payload into one reused buffer and hands a view of it to
// Connection::Write, which copies only what the socket refuses; an attached
// fd rides on the frame's first byte. Receiving parses frames out of on_data,
// hands each payload to on_message as a view into the input buffer and pairs
// each flagged frame with the next fd from the Connection's fd sink; fds that
// no frame claims are closed with the channel. An oversized length or a
// flagged frame with no fd closes the channel and fires on_close.
//
// Wire format (little-endian):
//   u32 payload_length | u8 type | u8 flags (bit0: fd attached) | u16 zero |
//   payload bytes
// The fd's SCM_RIGHTS control message rides on the sendmsg() that transmits
// the first byte of its frame, so by the time a receiver has the complete
// frame the fd has necessarily arrived (kernel delivers cmsgs no later than
// the byte span they were attached to).
//
// All methods on the loop thread.
#ifndef SRC_NET_FRAMED_CHANNEL_H_
#define SRC_NET_FRAMED_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>

#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/net/fd.h"

namespace lard {

class FramedChannel {
 public:
  // type, payload (valid until the callback returns), fd (invalid unless the
  // frame carried one).
  using MessageCallback = std::function<void(uint8_t type, std::string_view payload, UniqueFd fd)>;

  // `fd` must be non-blocking. fd attachment requires a unix-domain socket.
  FramedChannel(EventLoop* loop, UniqueFd fd);

  FramedChannel(const FramedChannel&) = delete;
  FramedChannel& operator=(const FramedChannel&) = delete;

  void set_on_message(MessageCallback on_message) { on_message_ = std::move(on_message); }
  void set_on_close(std::function<void()> on_close) { on_close_ = std::move(on_close); }

  void Start() { conn_.Start(); }

  void Send(uint8_t type, std::string_view payload) { SendWithFd(type, payload, UniqueFd()); }
  // Takes ownership of `fd`; it is closed once transmitted.
  void SendWithFd(uint8_t type, std::string_view payload, UniqueFd fd);

  void Close() { conn_.Close(); }
  bool open() const { return conn_.open(); }
  int fd() const { return conn_.fd(); }

  static constexpr size_t kMaxPayload = 16 * 1024 * 1024;

 private:
  void OnData(std::string_view data);
  void CloseOnBadFrame();

  std::deque<UniqueFd> received_fds_;  // conn_'s fd sink, so declared first
  Connection conn_;
  MessageCallback on_message_;
  std::function<void()> on_close_;
  std::string in_buffer_;
  std::string frame_;  // reused by every send, so it keeps its capacity
};

}  // namespace lard

#endif  // SRC_NET_FRAMED_CHANNEL_H_
