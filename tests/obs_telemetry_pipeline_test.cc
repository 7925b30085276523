// The telemetry pipeline end to end: the prototype cluster's admin surface
// (/timeseries, /cluster/health, /slowlog, /trace filtering, /nodes).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <string>
#include <thread>

#include "src/net/socket.h"
#include "src/proto/cluster.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"
#include "src/util/logging.h"

namespace lard {
namespace {

Trace TestTrace() {
  SyntheticTraceConfig config;
  config.seed = 42;
  config.num_pages = 60;
  config.num_sessions = 200;
  config.num_clients = 16;
  config.max_size_bytes = 32 * 1024;
  return GenerateSyntheticTrace(config);
}

// Blocking HTTP/1.0 request against the admin API; returns "<status> <body>".
std::string AdminHttp(uint16_t port, const std::string& method, const std::string& path,
                      const std::string& body = "") {
  auto fd = ConnectTcp(port);
  if (!fd.ok()) {
    return "<connect failed>";
  }
  const std::string request = method + " " + path + " HTTP/1.0\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  if (::send(fd.value().get(), request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    return "<send failed>";
  }
  std::string reply;
  char buf[16384];
  ssize_t n;
  while ((n = ::recv(fd.value().get(), buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  const size_t line_end = reply.find("\r\n");
  const size_t header_end = reply.find("\r\n\r\n");
  if (line_end == std::string::npos || header_end == std::string::npos) {
    return reply;
  }
  const std::string status_line = reply.substr(0, line_end);
  const size_t space = status_line.find(' ');
  return status_line.substr(space + 1, 3) + " " + reply.substr(header_end + 4);
}

// The first node's heartbeat_seq in a GET /nodes reply; -1 when absent.
int64_t FirstHeartbeatSeq(const std::string& nodes) {
  const std::string key = "\"heartbeat_seq\":";
  const size_t at = nodes.find(key);
  return at == std::string::npos ? -1 : std::stoll(nodes.substr(at + key.size()));
}

TEST(ClusterTelemetryTest, AdminSurfaceServesSeriesHealthSlowlogAndTraces) {
  const Trace trace = TestTrace();
  ClusterConfig config;
  config.num_nodes = 2;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 4ull * 1024 * 1024;
  config.disk_time_scale = 0.02;
  config.telemetry_interval_ms = 50;
  config.tracing_enabled = true;
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 8;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_GT(result.responses_ok, 0u);
  // A few sampling intervals so both tiers tick and BE rows ship to the FE.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const uint16_t admin = cluster.admin_port();

  // /timeseries: FE series plus the mirrored BE stores.
  const std::string series = AdminHttp(admin, "GET", "/timeseries");
  EXPECT_EQ(series.substr(0, 3), "200") << series;
  EXPECT_NE(series.find("\"fe0\""), std::string::npos) << series;
  EXPECT_NE(series.find("conn_rate"), std::string::npos);
  EXPECT_NE(series.find("\"be0\""), std::string::npos) << series;
  EXPECT_NE(series.find("request_rate"), std::string::npos);
  // The status frame's fixed fields join each mirrored row.
  const std::string be0 = AdminHttp(admin, "GET", "/timeseries?component=be0");
  EXPECT_EQ(be0.substr(0, 3), "200") << be0;
  EXPECT_NE(be0.find("\"disk_queue\""), std::string::npos) << be0;
  EXPECT_NE(be0.find("\"open_conns\""), std::string::npos) << be0;
  EXPECT_NE(be0.find("\"lateral_rate\""), std::string::npos) << be0;

  // Component + metric filters restrict the output.
  const std::string filtered =
      AdminHttp(admin, "GET", "/timeseries?component=fe0&metric=conn&window=60000");
  EXPECT_EQ(filtered.substr(0, 3), "200") << filtered;
  EXPECT_NE(filtered.find("conn_rate"), std::string::npos);
  EXPECT_EQ(filtered.find("\"be0\""), std::string::npos) << filtered;
  EXPECT_EQ(filtered.find("wakeup_p99_us"), std::string::npos);
  EXPECT_EQ(AdminHttp(admin, "GET", "/timeseries?window=banana").substr(0, 3), "400");

  // /cluster/health: merged watchdog verdict with per-component samples. A
  // lightly loaded cluster must report ok (the bench asserts the same under
  // real load — zero false transitions).
  const std::string health = AdminHttp(admin, "GET", "/cluster/health");
  EXPECT_EQ(health.substr(0, 3), "200") << health;
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"reasons\""), std::string::npos);
  EXPECT_NE(health.find("\"be0\""), std::string::npos) << health;

  // /slowlog: runtime-tunable threshold, strict parse.
  const std::string slowlog = AdminHttp(admin, "POST", "/slowlog", "2500");
  EXPECT_EQ(slowlog.substr(0, 3), "200") << slowlog;
  EXPECT_NE(slowlog.find("\"slow_threshold_us\":2500"), std::string::npos) << slowlog;
  EXPECT_EQ(cluster.tracer()->slow_threshold_us(), 2500);
  EXPECT_EQ(AdminHttp(admin, "POST", "/slowlog", "{\"threshold_us\":9000}").substr(0, 3), "200");
  EXPECT_EQ(cluster.tracer()->slow_threshold_us(), 9000);
  EXPECT_EQ(AdminHttp(admin, "POST", "/slowlog", "soon").substr(0, 3), "400");
  EXPECT_EQ(cluster.tracer()->slow_threshold_us(), 9000);

  // /trace?component= filters rings; unknown rings 404 instead of an empty
  // trace that hides typos.
  EXPECT_EQ(AdminHttp(admin, "GET", "/trace?component=fe0").substr(0, 3), "200");
  EXPECT_EQ(AdminHttp(admin, "GET", "/trace?component=nosuchring").substr(0, 3), "404");

  cluster.Stop();
}

TEST(ClusterTelemetryTest, DisabledTelemetryKeepsEndpointsHonest) {
  const Trace trace = TestTrace();
  ClusterConfig config;
  config.num_nodes = 2;
  config.backend_cache_bytes = 4ull * 1024 * 1024;
  config.disk_time_scale = 0.02;
  config.telemetry_interval_ms = 0;  // off
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  const uint16_t admin = cluster.admin_port();
  const std::string series = AdminHttp(admin, "GET", "/timeseries");
  EXPECT_EQ(series.substr(0, 3), "200") << series;
  EXPECT_EQ(series.find("conn_rate"), std::string::npos) << series;
  const std::string health = AdminHttp(admin, "GET", "/cluster/health");
  EXPECT_EQ(health.substr(0, 3), "200") << health;
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;

  // Status frames flow without telemetry: liveness advances, no rows mirror.
  const int64_t first = FirstHeartbeatSeq(AdminHttp(admin, "GET", "/nodes"));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const std::string nodes = AdminHttp(admin, "GET", "/nodes");
  EXPECT_EQ(nodes.substr(0, 3), "200") << nodes;
  EXPECT_GE(first, 0) << nodes;
  EXPECT_GT(FirstHeartbeatSeq(nodes), first) << nodes;
  EXPECT_EQ(AdminHttp(admin, "GET", "/timeseries").find("\"be0\""), std::string::npos);

  cluster.Stop();
}

}  // namespace
}  // namespace lard
