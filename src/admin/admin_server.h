// The cluster's administrative HTTP server (in the spirit of RethinkDB's
// administrative HTTP interface): a small HTTP/1.0 API served off the
// front-end's event loop, reusing the prototype's own request parser and
// connection plumbing — the admin plane rides the same stack it administers.
//
// Built-in endpoints:
//   GET /            the registered routes, one "METHOD path" per line
//   GET /metrics     MetricsRegistry in plaintext exposition format
//                    (format=json for the JSON rendering)
// Everything else (GET /nodes, GET/POST /config, POST /nodes/add, POST
// /nodes/<id>/<verb>, ...) is registered by the owner via Route()/
// RoutePrefix(), so the server itself stays cluster-agnostic.
// docs/ADMIN_API.md describes each route.
//
// Every route takes its parameters in one format, key=value pairs joined by
// '&': the query string of a GET, the body of a POST. The server parses them
// once and hands each handler the map (AdminParams), never the raw bytes.
//
// Handlers run on the server's loop thread — exactly what the membership
// operations need, since the dispatcher is single-threaded on that loop.
// Responses always close (HTTP/1.0 style): the admin plane trades connection
// reuse for simplicity.
#ifndef SRC_ADMIN_ADMIN_SERVER_H_
#define SRC_ADMIN_ADMIN_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/http/http_message.h"
#include "src/http/request_parser.h"
#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/util/liveness.h"
#include "src/util/metrics.h"
#include "src/util/status.h"

namespace lard {

struct AdminResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;

  static AdminResponse Json(std::string body) { return {200, "application/json", std::move(body)}; }
  // A JSON {"error": message}; `message` is escaped, so request bytes in it
  // cannot break the body.
  static AdminResponse Error(int status, const std::string& message);
};

// A request's key=value parameters. A pair without '=' maps to ""; a repeated
// key keeps its last value. No URL decoding: the values are plain
// identifiers and numbers.
using AdminParams = std::map<std::string, std::string>;
// Splits "a=1&b=2" (surrounding whitespace trimmed, so a body ending in a
// newline parses the same).
AdminParams ParseAdminParams(std::string_view text);
// params[key], or "" when absent.
std::string AdminParam(const AdminParams& params, const char* key);

// `tail` is the path remainder after a RoutePrefix match ("7/drain" for
// prefix "/nodes/" and path "/nodes/7/drain"); empty for exact routes.
using AdminHandler = std::function<AdminResponse(const AdminParams& params,
                                                 const std::string& tail)>;

class AdminServer {
 public:
  // `loop` must outlive the server; `metrics` may be null (then /metrics
  // returns 404).
  AdminServer(EventLoop* loop, MetricsRegistry* metrics);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Registration (before Start or on the loop thread).
  void Route(const std::string& method, const std::string& path, AdminHandler handler);
  void RoutePrefix(const std::string& method, const std::string& prefix, AdminHandler handler);
  // Runs just before every /metrics render, on the loop thread — the owner's
  // chance to refresh bridged gauges (per-node counters held elsewhere).
  void set_before_metrics(std::function<void()> hook) { before_metrics_ = std::move(hook); }

  // Loop thread (or before the loop runs). Binds 127.0.0.1:`port`
  // (0 = ephemeral; see port() after); a bind failure is returned.
  Status Start(uint16_t port);

  uint16_t port() const { return port_; }

 private:
  struct AdminConn {
    uint64_t id = 0;
    std::unique_ptr<Connection> conn;
    RequestParser parser;
    bool closed = false;
  };

  void OnAccept(uint32_t events);
  void OnData(AdminConn* conn, std::string_view data);
  void DestroyConn(AdminConn* conn);
  AdminResponse Dispatch(const HttpRequest& request);
  void WriteAndClose(AdminConn* conn, const HttpRequest& request, AdminResponse response);

  EventLoop* loop_;
  MetricsRegistry* metrics_;
  // Invalidated first in the destructor so deferred-reclaim posts (DestroyConn
  // defers the map erase) become no-ops once the server is gone.
  LivenessToken alive_;
  UniqueFd listener_;
  uint16_t port_ = 0;

  std::map<std::string, AdminHandler> exact_;  // key = "METHOD path"
  // Checked in registration order after exact routes miss.
  std::vector<std::pair<std::string, AdminHandler>> prefixes_;  // key = "METHOD prefix"
  std::function<void()> before_metrics_;

  std::unordered_map<uint64_t, std::unique_ptr<AdminConn>> conns_;
  uint64_t next_conn_id_ = 1;
  MetricHistogram* latency_us_ = nullptr;
};

}  // namespace lard

#endif  // SRC_ADMIN_ADMIN_SERVER_H_
