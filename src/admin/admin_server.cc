#include "src/admin/admin_server.h"

#include <sys/epoll.h>
#include <time.h>

#include <cstring>

#include "src/net/socket.h"
#include "src/util/logging.h"

namespace lard {
namespace {

int64_t NowUs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

}  // namespace

AdminParams ParseAdminParams(std::string_view text) {
  const size_t begin = text.find_first_not_of(" \t\r\n");
  text = begin == std::string_view::npos
             ? std::string_view()
             : text.substr(begin, text.find_last_not_of(" \t\r\n") + 1 - begin);
  AdminParams params;
  while (!text.empty()) {
    const size_t amp = text.find('&');
    const std::string_view pair = text.substr(0, amp);
    text = amp == std::string_view::npos ? std::string_view() : text.substr(amp + 1);
    if (pair.empty()) {
      continue;
    }
    const size_t equals = pair.find('=');
    params[std::string(pair.substr(0, equals))] =
        equals == std::string_view::npos ? std::string() : std::string(pair.substr(equals + 1));
  }
  return params;
}

std::string AdminParam(const AdminParams& params, const char* key) {
  const auto it = params.find(key);
  return it == params.end() ? std::string() : it->second;
}

AdminResponse AdminResponse::Error(int status, const std::string& message) {
  AdminResponse response;
  response.status = status;
  std::string escaped;
  for (const char c : message) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      escaped.push_back('\\');
      escaped.push_back(c);
    } else if (byte < 0x20) {
      static constexpr char kHex[] = "0123456789abcdef";
      escaped += "\\u00";
      escaped.push_back(kHex[byte >> 4]);
      escaped.push_back(kHex[byte & 0xf]);
    } else {
      escaped.push_back(c);
    }
  }
  response.body = "{\"error\":\"" + escaped + "\"}";
  return response;
}

AdminServer::AdminServer(EventLoop* loop, MetricsRegistry* metrics)
    : loop_(loop), metrics_(metrics) {
  LARD_CHECK(loop_ != nullptr);
  if (metrics_ != nullptr) {
    latency_us_ = metrics_->Histogram("lard_admin_request_us");
  }
  Route("GET", "/", [this](const AdminParams&, const std::string&) {
    // Generated from the routing tables, so it lists exactly what is served.
    AdminResponse index;
    index.content_type = "text/plain";
    index.body = "lard cluster admin API (docs/ADMIN_API.md describes each route)\n";
    for (const auto& [key, handler] : exact_) {
      index.body += key + "\n";
    }
    for (const auto& [prefix, handler] : prefixes_) {
      index.body += prefix + "...\n";
    }
    return index;
  });
  Route("GET", "/metrics", [this](const AdminParams& params, const std::string&) {
    if (metrics_ == nullptr) {
      return AdminResponse::Error(404, "no metrics registry");
    }
    if (before_metrics_) {
      before_metrics_();
    }
    AdminResponse response;
    if (AdminParam(params, "format") == "json") {
      response.body = metrics_->RenderJson();
    } else {
      response.content_type = "text/plain";
      response.body = metrics_->RenderText();
    }
    return response;
  });
}

AdminServer::~AdminServer() { alive_.Invalidate(); }

void AdminServer::Route(const std::string& method, const std::string& path,
                        AdminHandler handler) {
  exact_[method + " " + path] = std::move(handler);
}

void AdminServer::RoutePrefix(const std::string& method, const std::string& prefix,
                              AdminHandler handler) {
  prefixes_.emplace_back(method + " " + prefix, std::move(handler));
}

Status AdminServer::Start(uint16_t port) {
  auto listener = ListenTcp(port, &port_);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(listener.value());
  LARD_CHECK_OK(SetNonBlocking(listener_.get(), true));
  loop_->Register(listener_.get(), EPOLLIN, [this](uint32_t events) { OnAccept(events); });
  LARD_LOG(INFO) << "admin server listening on 127.0.0.1:" << port_;
  return Status::Ok();
}

void AdminServer::OnAccept(uint32_t) {
  const int error = AcceptAll(listener_.get(), [this](UniqueFd fd) {
    (void)SetTcpNoDelay(fd.get());
    auto conn = std::make_unique<AdminConn>();
    AdminConn* raw = conn.get();
    raw->id = next_conn_id_++;
    raw->conn = std::make_unique<Connection>(loop_, std::move(fd));
    raw->conn->set_on_data([this, id = raw->id](std::string_view data) {
      auto it = conns_.find(id);
      if (it != conns_.end()) {
        OnData(it->second.get(), data);
      }
    });
    raw->conn->set_on_close([this, id = raw->id]() {
      auto it = conns_.find(id);
      if (it != conns_.end()) {
        DestroyConn(it->second.get());
      }
    });
    raw->conn->Start();
    conns_.emplace(raw->id, std::move(conn));
  });
  if (error != 0) {
    LARD_LOG(ERROR) << "admin accept: " << std::strerror(error);
  }
}

void AdminServer::OnData(AdminConn* conn, std::string_view data) {
  if (conn->closed) {
    return;
  }
  std::vector<HttpRequest> requests;
  if (conn->parser.Feed(data, &requests) == RequestParser::State::kError) {
    WriteAndClose(conn, HttpRequest{}, AdminResponse::Error(400, "malformed request"));
    return;
  }
  if (requests.empty()) {
    return;
  }
  // One request per connection (the API always closes); extra pipelined
  // requests are ignored.
  const int64_t start_us = NowUs();
  AdminResponse response = Dispatch(requests.front());
  if (latency_us_ != nullptr) {
    latency_us_->Observe(static_cast<double>(NowUs() - start_us));
  }
  WriteAndClose(conn, requests.front(), std::move(response));
}

AdminResponse AdminServer::Dispatch(const HttpRequest& request) {
  const size_t q = request.path.find('?');
  const std::string path = request.path.substr(0, q);
  const AdminParams params =
      request.method == "GET"
          ? ParseAdminParams(q == std::string::npos ? std::string_view()
                                                    : std::string_view(request.path).substr(q + 1))
          : ParseAdminParams(request.body);

  const std::string key = request.method + " " + path;
  auto it = exact_.find(key);
  if (it != exact_.end()) {
    return it->second(params, "");
  }
  for (const auto& [prefix, handler] : prefixes_) {
    if (key.rfind(prefix, 0) == 0) {
      return handler(params, key.substr(prefix.size()));
    }
  }
  return AdminResponse::Error(404, "no such endpoint: " + key);
}

void AdminServer::WriteAndClose(AdminConn* conn, const HttpRequest& request,
                                AdminResponse response) {
  HttpResponse http;
  http.version = request.version;
  http.status = response.status;
  http.reason = ReasonPhrase(response.status);
  http.headers.Add("Content-Type", response.content_type);
  http.headers.Add("Connection", "close");
  http.body = std::move(response.body);
  conn->conn->Write(http.Serialize());
  conn->conn->CloseAfterFlush();
  DestroyConn(conn);
}

void AdminServer::DestroyConn(AdminConn* conn) {
  if (conn->closed) {
    return;
  }
  conn->closed = true;
  loop_->Post(alive_.Guard([this, id = conn->id]() { conns_.erase(id); }));
}

}  // namespace lard
