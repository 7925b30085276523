#include "src/admin/admin_client.h"

#include <sys/socket.h>

#include <cstdlib>

#include "src/net/socket.h"

namespace lard {

AdminReply AdminRequest(uint16_t port, const std::string& method, const std::string& path,
                        const std::string& body) {
  AdminReply reply;
  auto fd = ConnectTcp(port);
  const std::string request = method + " " + path + " HTTP/1.0\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  if (!fd.ok() || ::send(fd.value().get(), request.data(), request.size(), MSG_NOSIGNAL) !=
                      static_cast<ssize_t>(request.size())) {
    return reply;
  }
  std::string raw;
  char buf[16384];
  ssize_t n;
  // lard-lint: allow(blocking-call) the client blocks its caller's thread,
  // which is never an event loop.
  while ((n = ::recv(fd.value().get(), buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  // "HTTP/1.0 200 OK\r\n<headers>\r\n\r\n<body>"
  const size_t header_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 7, "HTTP/1.") == 0 && header_end != std::string::npos) {
    reply.status = std::atoi(raw.c_str() + 9);
    reply.body = raw.substr(header_end + 4);
  }
  return reply;
}

}  // namespace lard
