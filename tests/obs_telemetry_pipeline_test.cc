// The telemetry pipeline end to end: the prototype cluster's admin surface
// (/timeseries, /cluster/health, the slow log knob of /config, /trace
// filtering, /nodes).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "src/admin/admin_client.h"
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
  const AdminReply series = AdminRequest(admin, "GET", "/timeseries");
  EXPECT_EQ(series.status, 200) << series.body;
  EXPECT_NE(series.body.find("\"fe0\""), std::string::npos) << series.body;
  EXPECT_NE(series.body.find("conn_rate"), std::string::npos);
  EXPECT_NE(series.body.find("\"be0\""), std::string::npos) << series.body;
  EXPECT_NE(series.body.find("request_rate"), std::string::npos);
  // The status frame's fixed fields join each mirrored row.
  const AdminReply be0 = AdminRequest(admin, "GET", "/timeseries?component=be0");
  EXPECT_EQ(be0.status, 200) << be0.body;
  EXPECT_NE(be0.body.find("\"disk_queue\""), std::string::npos) << be0.body;
  EXPECT_NE(be0.body.find("\"open_conns\""), std::string::npos) << be0.body;
  EXPECT_NE(be0.body.find("\"lateral_rate\""), std::string::npos) << be0.body;

  // Component + metric filters restrict the output.
  const AdminReply filtered =
      AdminRequest(admin, "GET", "/timeseries?component=fe0&metric=conn&window=60000");
  EXPECT_EQ(filtered.status, 200) << filtered.body;
  EXPECT_NE(filtered.body.find("conn_rate"), std::string::npos);
  EXPECT_EQ(filtered.body.find("\"be0\""), std::string::npos) << filtered.body;
  EXPECT_EQ(filtered.body.find("wakeup_p99_us"), std::string::npos);
  EXPECT_EQ(AdminRequest(admin, "GET", "/timeseries?window=banana").status, 400);

  // /cluster/health: merged watchdog verdict with per-component samples. A
  // lightly loaded cluster must report ok (the bench asserts the same under
  // real load — zero false transitions).
  const AdminReply health = AdminRequest(admin, "GET", "/cluster/health");
  EXPECT_EQ(health.status, 200) << health.body;
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos) << health.body;
  EXPECT_NE(health.body.find("\"reasons\""), std::string::npos);
  EXPECT_NE(health.body.find("\"be0\""), std::string::npos) << health.body;

  // The slow_threshold_us knob of /config: runtime-tunable, strict parse.
  const AdminReply slowlog = AdminRequest(admin, "POST", "/config", "slow_threshold_us=2500");
  EXPECT_EQ(slowlog.status, 200) << slowlog.body;
  EXPECT_NE(slowlog.body.find("\"slow_threshold_us\":2500"), std::string::npos) << slowlog.body;
  EXPECT_EQ(cluster.tracer()->slow_threshold_us(), 2500);
  EXPECT_EQ(AdminRequest(admin, "POST", "/config", "slow_threshold_us=9000").status, 200);
  EXPECT_EQ(cluster.tracer()->slow_threshold_us(), 9000);
  EXPECT_EQ(AdminRequest(admin, "POST", "/config", "slow_threshold_us=soon").status, 400);
  EXPECT_EQ(cluster.tracer()->slow_threshold_us(), 9000);

  // /trace?component= filters rings; unknown rings 404 instead of an empty
  // trace that hides typos.
  EXPECT_EQ(AdminRequest(admin, "GET", "/trace?component=fe0").status, 200);
  EXPECT_EQ(AdminRequest(admin, "GET", "/trace?component=nosuchring").status, 404);

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
  const AdminReply series = AdminRequest(admin, "GET", "/timeseries");
  EXPECT_EQ(series.status, 200) << series.body;
  EXPECT_EQ(series.body.find("conn_rate"), std::string::npos) << series.body;
  const AdminReply health = AdminRequest(admin, "GET", "/cluster/health");
  EXPECT_EQ(health.status, 200) << health.body;
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos) << health.body;

  // Status frames flow without telemetry: liveness advances, no rows mirror.
  const int64_t first = FirstHeartbeatSeq(AdminRequest(admin, "GET", "/nodes").body);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const AdminReply nodes = AdminRequest(admin, "GET", "/nodes");
  EXPECT_EQ(nodes.status, 200) << nodes.body;
  EXPECT_GE(first, 0) << nodes.body;
  EXPECT_GT(FirstHeartbeatSeq(nodes.body), first) << nodes.body;
  EXPECT_EQ(AdminRequest(admin, "GET", "/timeseries").body.find("\"be0\""), std::string::npos);

  cluster.Stop();
}

}  // namespace
}  // namespace lard
