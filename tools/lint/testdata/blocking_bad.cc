// Fixture: blocking syscalls in event-loop code.
#include <sys/socket.h>

void ReadAll(int fd, char* buf, unsigned long len) {
  (void)::recv(fd, buf, len, 0);
}

void ReadMessage(int fd, msghdr* msg) {
  (void)::recvmsg(fd, msg, 0);
}
