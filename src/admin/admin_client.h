// Blocking client for the admin API (admin_server.h): one HTTP/1.0 request
// per connection, the reply read to EOF. For tools, examples, benches and
// tests on their own threads — never call it on an event loop.
#ifndef SRC_ADMIN_ADMIN_CLIENT_H_
#define SRC_ADMIN_ADMIN_CLIENT_H_

#include <cstdint>
#include <string>

namespace lard {

struct AdminReply {
  int status = 0;  // 0: no reply (connect or send failed, or no status line)
  std::string body;
};

// Sends `method path` to 127.0.0.1:`port`. Parameters travel in the admin
// API's one format, key=value pairs joined by '&': in the path's query string
// for a GET ("/metrics?format=json"), as `body` for a POST
// ("idle_timeout_ms=300").
AdminReply AdminRequest(uint16_t port, const std::string& method, const std::string& path,
                        const std::string& body = "");

}  // namespace lard

#endif  // SRC_ADMIN_ADMIN_CLIENT_H_
