// RAII file descriptor.
#ifndef SRC_NET_FD_H_
#define SRC_NET_FD_H_

#include <unistd.h>

#include <cstddef>
#include <utility>

namespace lard {

// Bytes Connection's read loop (the only one in src/net) takes per recvmsg()
// into its stack buffer. Requests and control frames fit in one chunk; a
// relayed body costs one recvmsg() per chunk, and a loop's stack keeps at most
// this much read buffer resident.
inline constexpr size_t kReadChunkBytes = 16 * 1024;

class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset(other.Release());
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  int Release() { return std::exchange(fd_, -1); }

  void Reset(int fd = -1) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

}  // namespace lard

#endif  // SRC_NET_FD_H_
