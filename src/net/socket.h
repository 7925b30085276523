// Socket construction helpers for the prototype cluster. Everything runs on
// localhost: client traffic over TCP (so the data path is a real kernel TCP
// path) and intra-cluster control sessions over unix-domain sockets (so
// connection handoff can pass file descriptors, our stand-in for the paper's
// in-kernel TCP handoff).
#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/net/fd.h"
#include "src/util/status.h"

namespace lard {

// Creates a listening TCP socket on 127.0.0.1. Port 0 picks a free port; the
// actual port is returned in *bound_port.
StatusOr<UniqueFd> ListenTcp(uint16_t port, uint16_t* bound_port);

// Like ListenTcp but with SO_REUSEPORT set before bind, so N reactor loops
// can each own a listening socket on the same port and let the kernel spread
// incoming connections across them (the reactor-per-core accept path).
// Fails with a status if the kernel refuses SO_REUSEPORT — callers fall back
// to one ListenTcp socket plus round-robin fd handoff.
StatusOr<UniqueFd> ListenTcpReusePort(uint16_t port, uint16_t* bound_port);

// Blocking connect to 127.0.0.1:port.
StatusOr<UniqueFd> ConnectTcp(uint16_t port);

// A connected unix-domain stream socket pair (for control sessions and fd
// passing between front-end and back-end components).
StatusOr<std::pair<UniqueFd, UniqueFd>> UnixPair();

// Accepts every connection pending on the non-blocking `listener`, handing
// each to `on_accept` as a non-blocking, close-on-exec fd. Returns 0 once
// the backlog is empty (EAGAIN); EINTR is retried. Any other accept4 error
// ends the call and is returned as its errno, for the caller to log. On
// EMFILE/ENFILE the pending connections are first accepted and closed in the
// slot of a spare descriptor each calling thread keeps, so a full fd table
// does not leave the listener readable and the loop spinning on it.
int AcceptAll(int listener, const std::function<void(UniqueFd)>& on_accept);

Status SetNonBlocking(int fd, bool non_blocking);
Status SetTcpNoDelay(int fd);

}  // namespace lard

#endif  // SRC_NET_SOCKET_H_
