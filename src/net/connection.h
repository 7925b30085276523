// Buffered non-blocking stream connection on an EventLoop: the one byte pipe
// of src/net. It is the only code there that reads, writes or closes a
// stream socket; the control session's framing (FramedChannel) is a layer
// on top of it.
//
// Detach() is the key facility for the prototype's TCP handoff: it atomically
// pulls the socket out of the loop and returns the fd — the connection
// endpoint the paper's in-kernel handoff transfers. Bytes already read (e.g.
// further pipelined requests that arrived glued to the first one) live in
// the caller's parser, and the caller ships them with the fd.
//
// Output is a queue of segments: owned strings, or borrowed views of storage
// that outlives the connection (the content store's static fill slab). It is
// sent with gather writes (sendmsg over up to kMaxIov segments), so a
// response goes out as its small head plus views of the body, never copied
// into one buffer; Write() copies only the bytes the socket refuses. An owned
// segment may carry a file descriptor (unix-domain sockets only): its
// SCM_RIGHTS control message rides on the sendmsg that sends the segment's
// first byte, and is attached again on a retry after EAGAIN. A gather write
// stops before any fd segment that is not at the head of the queue, so one
// sendmsg carries at most one fd. The fd is closed once its first byte is
// sent, or when the queue is cleared.
//
// Input is one read loop (recvmsg). File descriptors that arrive with the
// bytes go to the fd sink, ahead of the bytes they came with; a connection
// with no sink closes them at once. Received fds are close-on-exec.
//
// One hangup rule: EPOLLHUP/EPOLLERR without EPOLLIN closes at once; with
// EPOLLIN the connection reads to EOF or error first, so bytes a peer wrote
// just before it closed still reach on_data before on_close.
//
// All methods must be called on the loop thread.
#ifndef SRC_NET_CONNECTION_H_
#define SRC_NET_CONNECTION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <string>
#include <string_view>

#include "src/net/event_loop.h"
#include "src/net/fd.h"

namespace lard {

class Connection {
 public:
  // `fd` must already be non-blocking.
  Connection(EventLoop* loop, UniqueFd fd);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // `on_data` receives freshly read bytes; the callee consumes all of them
  // (re-buffering into its parser as needed). `on_close` fires once on EOF or
  // error; the Connection is dead afterwards (but destruction stays the
  // owner's job).
  //
  // LIFETIME: callbacks run from inside this Connection's event handler, so
  // they must not destroy the Connection synchronously — defer destruction to
  // the next loop tick (e.g. move the owner's unique_ptr into a posted task).
  void set_on_data(std::function<void(std::string_view)> on_data) {
    on_data_ = std::move(on_data);
  }
  void set_on_close(std::function<void()> on_close) { on_close_ = std::move(on_close); }
  // Received fds are appended to `*sink`, which must outlive the reads. Only
  // the framing layer sets one.
  void set_fd_sink(std::deque<UniqueFd>* sink) { fd_sink_ = sink; }

  // One-shot: fires (from the write path) when the buffered write data has
  // fully reached the kernel. Callers that need to detach a connection with
  // in-flight responses (multiple-handoff hand-back) register this after
  // checking pending_write_bytes() > 0.
  void set_on_write_drained(std::function<void()> on_drained) {
    on_write_drained_ = std::move(on_drained);
  }

  // Persistent: fires whenever the EPOLLOUT path hands buffered bytes to the
  // kernel (bytes_flushed() advanced). The crash-replay journal acks flush
  // progress from here so a kill between event-loop iterations can never
  // separate "kernel accepted the bytes" from "the front-end heard about
  // it" — an unacked-but-delivered response would be replayed as a
  // duplicate.
  void set_on_write_progress(std::function<void()> on_progress) {
    on_write_progress_ = std::move(on_progress);
  }

  // Registers with the loop. Call after the callbacks are set.
  void Start();

  // Queues bytes without sending them; Flush() sends. A moved-in string is
  // never copied, except that a small one joins an owned tail segment.
  void Queue(std::string data);
  // Queues a view of bytes the caller guarantees outlive this Connection
  // (static storage): they are sent from where they are, never copied. A
  // small view is copied into an owned tail instead (an iovec per tiny run
  // costs more than the copy).
  void QueueBorrowed(std::string_view data);
  // Drops the next `n` bytes queued (by either call) instead of sending
  // them: the prefix of a re-generated response that already reached the
  // client. Dropped bytes never count towards bytes_flushed().
  void SkipNext(uint64_t n) { skip_next_ += n; }
  // Sends as much of the queue as the socket takes now; the rest goes on
  // EPOLLOUT. A no-op while already waiting for EPOLLOUT. Unlike the EPOLLOUT
  // path it never fires on_write_drained/on_write_progress: the caller is
  // on the stack and reads bytes_flushed() itself.
  void Flush();

  // Sends `data` after whatever is queued, in one gather write, and copies
  // only what the socket refuses into an owned segment; `fd` (if valid)
  // rides on the first byte of `data`. The view need not outlive the call.
  // Honours the SkipNext budget; like Flush() it never fires
  // on_write_drained/on_write_progress, and unlike Flush() it tries the
  // socket even while waiting for EPOLLOUT, since a refusal costs a copy.
  // Trying the socket on every call keeps a control session's frames moving
  // while its loop is busy in a long callback elsewhere.
  void Write(std::string_view data, UniqueFd fd = UniqueFd());

  // Closes once the write queue drains (used for HTTP/1.0-style responses).
  void CloseAfterFlush();

  // Immediate teardown; on_close is NOT invoked (caller-initiated).
  void Close();

  // Unregisters and surrenders the socket. Only legal while open and with an
  // empty write queue.
  UniqueFd Detach();

  bool open() const { return open_; }
  int fd() const { return fd_.get(); }
  size_t pending_write_bytes() const { return out_bytes_; }
  // Cumulative bytes actually handed to the kernel socket (not merely
  // buffered). The crash-replay journal acks response progress against this:
  // bytes the kernel accepted survive this process's death, buffered bytes
  // do not.
  uint64_t bytes_flushed() const { return bytes_flushed_; }

 private:
  void HandleEvents(uint32_t events);
  void HandleReadable();
  void HandleWritable();
  // Gather-writes queued segments, then `*extra` (advanced past what was
  // sent) with `*extra_fd` on its first byte, until the socket would block.
  // Returns false when the connection failed (and is closed).
  bool SendQueued(std::string_view* extra = nullptr, UniqueFd* extra_fd = nullptr);
  // Trims the skip budget off the front of `data`; returns the bytes kept.
  std::string_view TakeSkip(std::string_view data);
  // Appends `data` to the owned tail (grown to a power of two) when it is
  // small and the tail has room; returns false when it needs its own segment.
  bool JoinOwnedTail(std::string_view data);
  void UpdateInterest();
  void FailAndClose();

  EventLoop* loop_;
  UniqueFd fd_;
  bool open_ = false;
  bool close_after_flush_ = false;
  bool writing_ = false;  // EPOLLOUT armed

  std::function<void(std::string_view)> on_data_;
  std::function<void()> on_close_;
  std::function<void()> on_write_drained_;
  std::function<void()> on_write_progress_;

  // One queued piece of output: owned bytes, or (when `borrowed` is
  // non-empty) a view of storage that outlives the connection. `fd` is
  // valid until the segment's first byte is sent.
  struct Segment {
    std::string owned;
    std::string_view borrowed;
    UniqueFd fd;
    std::string_view bytes() const { return borrowed.empty() ? std::string_view(owned) : borrowed; }
  };
  static constexpr size_t kMaxIov = 64;
  // Segments at most this long join an owned tail of less than kTailBytes.
  static constexpr size_t kJoinBytes = 1024;
  static constexpr size_t kTailBytes = 64 * 1024;

  // A list, not a deque: an idle connection's empty queue allocates
  // nothing, and that matters at a front end holding many idle connections.
  std::list<Segment> out_;
  size_t out_offset_ = 0;  // bytes of out_.front() already sent
  size_t out_bytes_ = 0;   // queued bytes not yet sent
  uint64_t skip_next_ = 0;
  uint64_t bytes_flushed_ = 0;
  std::deque<UniqueFd>* fd_sink_ = nullptr;
};

}  // namespace lard

#endif  // SRC_NET_CONNECTION_H_
