#include "src/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace lard {
namespace {

std::string Errno(const char* what) { return std::string(what) + ": " + std::strerror(errno); }

// The fd table is full: accept and close every pending connection in the
// slot of the thread's spare descriptor, then reopen the spare. The client
// sees a close, and the level-triggered listener stops being readable.
void ShedPending(int listener, UniqueFd* spare) {
  spare->Reset();
  while (true) {
    const int fd = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      ::close(fd);
    } else if (errno != EINTR) {
      break;
    }
  }
  spare->Reset(::open("/dev/null", O_RDONLY | O_CLOEXEC));
}

}  // namespace

namespace {

StatusOr<UniqueFd> ListenTcpInternal(uint16_t port, uint16_t* bound_port, bool reuse_port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return IoError(Errno("socket"));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    return IoError(Errno("setsockopt(SO_REUSEPORT)"));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return IoError(Errno("bind"));
  }
  if (::listen(fd.get(), 512) != 0) {
    return IoError(Errno("listen"));
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return IoError(Errno("getsockname"));
    }
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

}  // namespace

StatusOr<UniqueFd> ListenTcp(uint16_t port, uint16_t* bound_port) {
  return ListenTcpInternal(port, bound_port, /*reuse_port=*/false);
}

StatusOr<UniqueFd> ListenTcpReusePort(uint16_t port, uint16_t* bound_port) {
  return ListenTcpInternal(port, bound_port, /*reuse_port=*/true);
}

StatusOr<UniqueFd> ConnectTcp(uint16_t port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    return IoError(Errno("socket"));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // lard-lint: allow(blocking-call) loopback connect for clients/tests; never
  // called from an event-loop callback (loops only accept, they don't dial).
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return IoError(Errno("connect"));
  }
  return fd;
}

StatusOr<std::pair<UniqueFd, UniqueFd>> UnixPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return IoError(Errno("socketpair"));
  }
  return std::make_pair(UniqueFd(fds[0]), UniqueFd(fds[1]));
}

int AcceptAll(int listener, const std::function<void(UniqueFd)>& on_accept) {
  // One spare descriptor per accepting thread, opened by its first call.
  thread_local UniqueFd spare(::open("/dev/null", O_RDONLY | O_CLOEXEC));
  while (true) {
    const int fd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      on_accept(UniqueFd(fd));
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return 0;
    } else if (errno == EMFILE || errno == ENFILE) {
      const int error = errno;
      ShedPending(listener, &spare);
      return error;
    } else if (errno != EINTR) {
      return errno;
    }
  }
}

Status SetNonBlocking(int fd, bool non_blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return IoError(Errno("fcntl(F_GETFL)"));
  }
  const int want = non_blocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) != 0) {
    return IoError(Errno("fcntl(F_SETFL)"));
  }
  return Status::Ok();
}

Status SetTcpNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return IoError(Errno("setsockopt(TCP_NODELAY)"));
  }
  return Status::Ok();
}

}  // namespace lard
