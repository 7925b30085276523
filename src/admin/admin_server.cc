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

// "/metrics?format=json" -> {"/metrics", "format=json"}.
std::pair<std::string, std::string> SplitQuery(const std::string& path) {
  const size_t q = path.find('?');
  if (q == std::string::npos) {
    return {path, ""};
  }
  return {path.substr(0, q), path.substr(q + 1)};
}

}  // namespace

AdminResponse AdminResponse::Error(int status, const std::string& message) {
  AdminResponse response;
  response.status = status;
  std::string escaped;
  for (const char c : message) {
    if (c == '"' || c == '\\') {
      escaped.push_back('\\');
    }
    escaped.push_back(c);
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
  ++requests_served_;
  if (latency_us_ != nullptr) {
    latency_us_->Observe(static_cast<double>(NowUs() - start_us));
  }
  WriteAndClose(conn, requests.front(), std::move(response));
}

AdminResponse AdminServer::Dispatch(const HttpRequest& request) {
  const auto [path, query] = SplitQuery(request.path);

  if (request.method == "GET" && path == "/") {
    AdminResponse index;
    index.content_type = "text/plain";
    index.body =
        "lard cluster admin API\n"
        "  GET  /metrics            plaintext metrics (?format=json for JSON)\n"
        "  GET  /nodes              membership + health snapshot\n"
        "  POST /nodes/add          start a node and join it to the cluster\n"
        "  POST /nodes/<id>/drain   stop new assignments to a node\n"
        "  POST /nodes/<id>/remove  remove a node now\n"
        "  POST /policy             switch policy (body: wrr | lard | extlard)\n"
        "  GET  /timeseries         sampled series (?metric=&component=&window=<ms>)\n"
        "  GET  /cluster/health     merged SLO watchdog verdict + freshest samples\n"
        "  GET  /trace              recent request traces (?component=&format=chrome)\n"
        "  POST /slowlog            set the slow-request log threshold (body: µs)\n";
    return index;
  }
  if (request.method == "GET" && path == "/metrics") {
    if (metrics_ == nullptr) {
      return AdminResponse::Error(404, "no metrics registry");
    }
    if (before_metrics_) {
      before_metrics_();
    }
    AdminResponse response;
    if (query == "format=json") {
      response.body = metrics_->RenderJson();
    } else {
      response.content_type = "text/plain";
      response.body = metrics_->RenderText();
    }
    return response;
  }

  const std::string exact_key = request.method + " " + path;
  auto it = exact_.find(exact_key);
  if (it != exact_.end()) {
    return it->second(request, "");
  }
  for (const auto& [key, handler] : prefixes_) {
    if (exact_key.rfind(key, 0) == 0) {
      return handler(request, exact_key.substr(key.size()));
    }
  }
  return AdminResponse::Error(404, "no such endpoint: " + request.method + " " + path);
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
