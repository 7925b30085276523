// End-to-end control-plane tests on the real prototype cluster: the admin
// HTTP API over real sockets, drain/remove/add mid-run, heartbeat-driven
// auto-removal of a killed back-end, and /metrics correctness throughout.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/admin/admin_client.h"
#include "src/net/socket.h"
#include "src/proto/cluster.h"
#include "src/util/logging.h"
#include "src/proto/load_generator.h"
#include "src/trace/synthetic.h"

namespace lard {
namespace {

Trace TestTrace(uint64_t seed = 42, int sessions = 150) {
  SyntheticTraceConfig config;
  config.seed = seed;
  config.num_pages = 60;
  config.num_sessions = sessions;
  config.num_clients = 16;
  config.max_size_bytes = 32 * 1024;
  return GenerateSyntheticTrace(config);
}

ClusterConfig BaseConfig(int nodes) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.policy = Policy::kExtendedLard;
  config.mechanism = Mechanism::kBackEndForwarding;
  config.backend_cache_bytes = 2ull * 1024 * 1024;
  config.disk_time_scale = 0.02;
  config.heartbeat_timeout_ms = 400;
  return config;
}

TEST(AdminClusterTest, MetricsAndNodesEndpoints) {
  const Trace trace = TestTrace();
  Cluster cluster(BaseConfig(3), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 8;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());

  // The index is generated from the routing tables.
  const AdminReply index = AdminRequest(cluster.admin_port(), "GET", "/");
  EXPECT_EQ(index.status, 200);
  for (const char* route : {"GET /metrics\n", "GET /config\n", "POST /config\n", "GET /mesh\n",
                            "POST /nodes/add\n", "POST /nodes/"}) {
    EXPECT_NE(index.body.find(route), std::string::npos) << route << " not in " << index.body;
  }

  const AdminReply metrics = AdminRequest(cluster.admin_port(), "GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  // Per-node counters from all three back-ends, front-end counters, and the
  // dispatcher bridge must all be present.
  EXPECT_NE(metrics.body.find("lard_backend_requests_total{node=\"0\"}"), std::string::npos);
  EXPECT_NE(metrics.body.find("lard_backend_cache_hits_total{node=\"2\"}"), std::string::npos);
  EXPECT_NE(metrics.body.find("lard_fe_handoffs_total{node=\"1\"}"), std::string::npos);
  EXPECT_NE(metrics.body.find("lard_node_load{node=\"0\"}"), std::string::npos);
  EXPECT_NE(metrics.body.find("lard_cluster_active_nodes{fe=\"0\"} 3"), std::string::npos);
  EXPECT_NE(metrics.body.find("lard_dispatcher_requests"), std::string::npos);
  EXPECT_NE(metrics.body.find("lard_backend_heartbeats_total{node=\"0\"}"), std::string::npos);

  const AdminReply json = AdminRequest(cluster.admin_port(), "GET", "/metrics?format=json");
  ASSERT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("\"counters\":{"), std::string::npos);

  const AdminReply nodes = AdminRequest(cluster.admin_port(), "GET", "/nodes");
  ASSERT_EQ(nodes.status, 200);
  EXPECT_NE(nodes.body.find("\"active_nodes\":3"), std::string::npos);
  EXPECT_NE(nodes.body.find("\"id\":2"), std::string::npos);
  EXPECT_NE(nodes.body.find("\"state\":\"active\""), std::string::npos);

  EXPECT_NE(AdminRequest(cluster.admin_port(), "GET", "/no/such").status, 200);
  cluster.Stop();
}

TEST(AdminClusterTest, DrainNodeMidRunFinishesCleanly) {
  const Trace trace = TestTrace(7, 300);
  Cluster cluster(BaseConfig(3), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  // Drive load in the background; drain node 1 via the admin API mid-run.
  LoadResult result;
  std::thread load_thread([&]() {
    LoadGeneratorConfig load;
    load.port = cluster.port();
    load.num_clients = 8;
    load.recv_timeout_ms = 5000;
    result = RunLoad(load, trace);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const AdminReply drained = AdminRequest(cluster.admin_port(), "POST", "/nodes/1/drain");
  EXPECT_EQ(drained.status, 200) << drained.body;
  load_thread.join();

  // Every request still answered correctly: the draining node finished its
  // active persistent connections.
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.transport_errors, 0u);

  const AdminReply nodes = AdminRequest(cluster.admin_port(), "GET", "/nodes");
  EXPECT_NE(nodes.body.find("\"state\":\"draining\""), std::string::npos);
  EXPECT_NE(nodes.body.find("\"active_nodes\":2"), std::string::npos);

  // Draining twice is refused (409), as is draining a bogus id.
  EXPECT_EQ(AdminRequest(cluster.admin_port(), "POST", "/nodes/1/drain").status, 409);
  EXPECT_NE(AdminRequest(cluster.admin_port(), "POST", "/nodes/99/drain").status, 200);
  cluster.Stop();
}

TEST(AdminClusterTest, KilledBackendIsAutoRemovedByHeartbeats) {
  const Trace trace = TestTrace(13, 400);
  Cluster cluster(BaseConfig(3), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  LoadResult result;
  std::thread load_thread([&]() {
    LoadGeneratorConfig load;
    load.port = cluster.port();
    load.num_clients = 8;
    load.recv_timeout_ms = 2000;  // stranded connections must not hang
    result = RunLoad(load, trace);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(cluster.KillNode(2));

  // Heartbeats stop; within the timeout the front-end must declare node 2
  // dead and evict it.
  bool removed = false;
  for (int i = 0; i < 100 && !removed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    removed = cluster.Snapshot().auto_removals > 0;
  }
  EXPECT_TRUE(removed) << "killed node was never auto-removed";
  load_thread.join();

  const AdminReply nodes = AdminRequest(cluster.admin_port(), "GET", "/nodes");
  EXPECT_NE(nodes.body.find("\"id\":2,\"state\":\"dead\""), std::string::npos) << nodes.body;

  // The cluster kept serving: every request either succeeded or failed fast
  // on the killed node's sockets, and the survivors answered the rest.
  EXPECT_GT(result.responses_ok, 0u);
  EXPECT_EQ(result.responses_bad, 0u);
  // New traffic after the removal is fine (same catalog, fresh sessions).
  LoadGeneratorConfig after;
  after.port = cluster.port();
  after.num_clients = 4;
  after.max_sessions = 40;
  const LoadResult post = RunLoad(after, trace);
  EXPECT_EQ(post.transport_errors, 0u);
  EXPECT_GT(post.responses_ok, 0u);
  cluster.Stop();
}

TEST(AdminClusterTest, AddNodeJoinsAndTakesTraffic) {
  const Trace trace = TestTrace(21, 200);
  Cluster cluster(BaseConfig(2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  const AdminReply added = AdminRequest(cluster.admin_port(), "POST", "/nodes/add");
  ASSERT_EQ(added.status, 200) << added.body;
  EXPECT_NE(added.body.find("\"id\":2"), std::string::npos);

  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 8;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  EXPECT_EQ(result.transport_errors, 0u);

  const ClusterSnapshot snapshot = cluster.Snapshot();
  ASSERT_EQ(snapshot.requests_per_node.size(), 3u);
  EXPECT_GT(snapshot.requests_per_node[2], 0u) << "joined node took no traffic";
  cluster.Stop();
}

TEST(AdminClusterTest, PolicySwitchAtRuntime) {
  const Trace trace = TestTrace(31, 100);
  Cluster cluster(BaseConfig(2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  // The reply renders the table's getters, never the raw body.
  const AdminReply switched =
      AdminRequest(cluster.admin_port(), "POST", "/config", "policy=wrr\n");
  EXPECT_EQ(switched.status, 200);
  EXPECT_NE(switched.body.find("\"policy\":\"wrr\""), std::string::npos) << switched.body;
  const AdminReply nodes = AdminRequest(cluster.admin_port(), "GET", "/nodes");
  EXPECT_NE(nodes.body.find("\"policy\":\"WRR\""), std::string::npos) << nodes.body;
  EXPECT_NE(nodes.body.find("\"policy_key\":\"wrr\""), std::string::npos) << nodes.body;

  // Unknown names are rejected with the list of keys; the injection body
  // must not leak back into the reply.
  const AdminReply rejected =
      AdminRequest(cluster.admin_port(), "POST", "/config", "policy=bogus\"}{\"x\":\"y");
  EXPECT_EQ(rejected.status, 400);
  EXPECT_EQ(rejected.body.find("bogus"), std::string::npos) << rejected.body;
  EXPECT_NE(rejected.body.find("extlard"), std::string::npos) << rejected.body;
  EXPECT_NE(rejected.body.find("wextlard"), std::string::npos) << rejected.body;
  const AdminReply unchanged = AdminRequest(cluster.admin_port(), "GET", "/config");
  EXPECT_EQ(unchanged.status, 200);
  EXPECT_NE(unchanged.body.find("\"policy\":\"wrr\""), std::string::npos) << unchanged.body;

  // The new policies are selectable at runtime by key.
  const AdminReply weighted =
      AdminRequest(cluster.admin_port(), "POST", "/config", "policy=wextlard");
  EXPECT_EQ(weighted.status, 200);
  EXPECT_NE(weighted.body.find("\"policy\":\"wextlard\""), std::string::npos) << weighted.body;

  // No per-knob route is served beside the table.
  for (const char* path : {"/policy", "/loglevel", "/slowlog", "/idletimeout"}) {
    EXPECT_EQ(AdminRequest(cluster.admin_port(), "POST", path, "0").status, 404) << path;
  }

  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 6;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  cluster.Stop();
}

// The tier-wide knobs reach every replica, and a batch with one bad value
// changes no replica.
TEST(AdminClusterTest, ConfigReachesEveryReplica) {
  const Trace trace = TestTrace(35, 40);
  ClusterConfig config = BaseConfig(2);
  config.num_frontends = 2;
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const auto expect_replicas = [&](Policy policy, int64_t idle_timeout_ms) {
    for (int fe = 0; fe < 2; ++fe) {
      cluster.InspectReplica(fe, [&](const FrontEnd& frontend) {
        EXPECT_EQ(frontend.policy(), policy) << "fe=" << fe;
        EXPECT_EQ(frontend.idle_timeout_ms(), idle_timeout_ms) << "fe=" << fe;
      });
    }
  };

  const AdminReply set =
      AdminRequest(cluster.admin_port(), "POST", "/config", "policy=wrr&idle_timeout_ms=250");
  ASSERT_EQ(set.status, 200) << set.body;
  EXPECT_NE(set.body.find("\"idle_timeout_ms\":250"), std::string::npos) << set.body;
  // InspectReplica runs on each replica's loop after the posted apply.
  expect_replicas(Policy::kWrr, 250);

  // Every malformed pair gets a 400 that echoes none of it, and the batch
  // leaves every knob as it was, even where a valid pair sorts first.
  const std::string before = AdminRequest(cluster.admin_port(), "GET", "/config").body;
  for (const char* body :
       {"policy=lard&idle_timeout_ms=x", "idle_timeout_ms=300&slow_threshold_us=x",
        "idle_timeout_ms=300&zz=1", "idle_timeout_ms=-5", "idle_timeout_ms=soon",
        "idle_timeout_ms=", "idle_timeout_ms=5x", "slow_threshold_us=2,5",
        "slow_threshold_us=2.5", "idle_timeout=300", "300", "{\"idle_timeout_ms\":300}",
        "log_level=verbose", "policy=", "policy=WRR"}) {
    const AdminReply reply = AdminRequest(cluster.admin_port(), "POST", "/config", body);
    EXPECT_EQ(reply.status, 400) << body << ": " << reply.body;
    EXPECT_EQ(reply.body.find(body), std::string::npos) << body << ": " << reply.body;
    EXPECT_EQ(AdminRequest(cluster.admin_port(), "GET", "/config").body, before) << body;
  }
  expect_replicas(Policy::kWrr, 250);

  // An empty POST changes nothing and renders the table like GET /config.
  const AdminReply empty = AdminRequest(cluster.admin_port(), "POST", "/config");
  EXPECT_EQ(empty.status, 200);
  EXPECT_EQ(empty.body, AdminRequest(cluster.admin_port(), "GET", "/config").body);
  expect_replicas(Policy::kWrr, 250);
  cluster.Stop();
}

// The node id of POST /nodes/<id>/<verb> is parsed strictly: trailing junk
// and ids past NodeId's range are rejected, never truncated onto a real node.
TEST(AdminClusterTest, NodeVerbRejectsMalformedIds) {
  const Trace trace = TestTrace(34, 50);
  Cluster cluster(BaseConfig(2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  for (const char* path : {"/nodes/4294967297/kill", "/nodes/1x/drain"}) {
    const AdminReply reply = AdminRequest(cluster.admin_port(), "POST", path);
    EXPECT_EQ(reply.status, 400) << path << ": " << reply.body;
  }
  // A raw control byte in the target is a malformed request: the parser
  // answers 400 and the verb handler never sees it.
  const AdminReply bad_verb = AdminRequest(cluster.admin_port(), "POST", "/nodes/1/\x01");
  EXPECT_EQ(bad_verb.status, 400) << bad_verb.body;
  EXPECT_NE(bad_verb.body.find("malformed request"), std::string::npos) << bad_verb.body;
  EXPECT_EQ(bad_verb.body.find("verb"), std::string::npos) << bad_verb.body;
  for (const char c : bad_verb.body) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte in " << bad_verb.body;
  }
  NodeState state = NodeState::kDead;
  cluster.InspectReplica(0, [&](const FrontEnd& frontend) {
    state = frontend.dispatcher().node_state(1);
  });
  EXPECT_EQ(state, NodeState::kActive);
  cluster.Stop();
}

TEST(AdminClusterTest, TraceEndpointReturnsFullSpanTrees) {
  const Trace trace = TestTrace(47, 120);
  ClusterConfig config = BaseConfig(2);
  config.trace_sample_every = 1;  // trace every connection for the assertion
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 6;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());

  // The default JSON rendering groups spans per trace id and includes the
  // whole FE->BE life of a request.
  const AdminReply traces = AdminRequest(cluster.admin_port(), "GET", "/trace");
  ASSERT_EQ(traces.status, 200);
  EXPECT_NE(traces.body.find("\"sample_every\":1"), std::string::npos);
  EXPECT_NE(traces.body.find("\"trace_id\":"), std::string::npos);
  for (const char* kind : {"accept", "parse", "policy", "handoff", "adopt", "serve", "flush"}) {
    EXPECT_NE(traces.body.find("\"kind\":\"" + std::string(kind) + "\""), std::string::npos)
        << "missing span kind " << kind;
  }
  // Per-component rings: front-end plus both back-ends.
  EXPECT_NE(traces.body.find("\"name\":\"fe0\""), std::string::npos);
  EXPECT_NE(traces.body.find("\"name\":\"be0\""), std::string::npos);
  EXPECT_NE(traces.body.find("\"name\":\"be1\""), std::string::npos);
  // The policy span carries the decision inputs.
  EXPECT_NE(traces.body.find("policy=extlard"), std::string::npos) << traces.body.substr(0, 2000);

  // Chrome trace-event format for about:tracing / Perfetto.
  const AdminReply chrome = AdminRequest(cluster.admin_port(), "GET", "/trace?format=chrome");
  ASSERT_EQ(chrome.status, 200);
  EXPECT_NE(chrome.body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.body.find("\"ph\":\"M\""), std::string::npos);

  EXPECT_EQ(AdminRequest(cluster.admin_port(), "GET", "/trace?format=bogus").status, 400);
  cluster.Stop();
}

TEST(AdminClusterTest, ConfigSwitchesLogLevel) {
  const Trace trace = TestTrace(51, 40);
  Cluster cluster(BaseConfig(2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  const LogSeverity before = MinLogSeverity();

  const AdminReply raised =
      AdminRequest(cluster.admin_port(), "POST", "/config", "log_level=error\n");
  EXPECT_EQ(raised.status, 200) << raised.body;
  EXPECT_NE(raised.body.find("\"log_level\":\"error\""), std::string::npos) << raised.body;
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);

  EXPECT_EQ(AdminRequest(cluster.admin_port(), "POST", "/config", "log_level=verbose").status, 400);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError) << "bad level must not change the setting";

  const AdminReply lowered = AdminRequest(cluster.admin_port(), "POST", "/config", "log_level=info");
  EXPECT_EQ(lowered.status, 200);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kInfo);

  SetMinLogSeverity(before);
  cluster.Stop();
}

TEST(AdminClusterTest, WeightedAddNodeAndNodesReport) {
  const Trace trace = TestTrace(33, 100);
  Cluster cluster(BaseConfig(2), &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  // /nodes reports weight and normalized load for every node.
  AdminReply nodes = AdminRequest(cluster.admin_port(), "GET", "/nodes");
  EXPECT_NE(nodes.body.find("\"weight\":1"), std::string::npos) << nodes.body;
  EXPECT_NE(nodes.body.find("\"normalized_load\":"), std::string::npos) << nodes.body;

  // /nodes/add takes an optional weight=N.
  const AdminReply added = AdminRequest(cluster.admin_port(), "POST", "/nodes/add", "weight=2.5");
  ASSERT_EQ(added.status, 200) << added.body;
  EXPECT_NE(added.body.find("\"id\":2"), std::string::npos) << added.body;
  EXPECT_NE(added.body.find("\"weight\":2.5"), std::string::npos) << added.body;
  nodes = AdminRequest(cluster.admin_port(), "GET", "/nodes");
  EXPECT_NE(nodes.body.find("\"weight\":2.5"), std::string::npos) << nodes.body;

  // Garbage, non-positive, misspelled-key and trailing-garbage weights are
  // all rejected before any node starts (the snapshot below counts 3 nodes).
  for (const char* body : {"weight=-1", "weight=0", "weight=junk", "junk", "minweight=7",
                           "weight=2&minweight=7", "weight=2,5", "weight=2.5x", "weight=inf",
                           "2.5"}) {
    EXPECT_EQ(AdminRequest(cluster.admin_port(), "POST", "/nodes/add", body).status, 400) << body;
  }

  // The weighted node is a real member: it takes traffic.
  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 8;
  const LoadResult result = RunLoad(load, trace);
  EXPECT_EQ(result.responses_ok, trace.total_requests());
  const ClusterSnapshot snapshot = cluster.Snapshot();
  ASSERT_EQ(snapshot.requests_per_node.size(), 3u);
  EXPECT_GT(snapshot.requests_per_node[2], 0u) << "weighted node took no traffic";
  cluster.Stop();
}

// One count of a counter view, with the registry name it is kept under.
struct NamedCount {
  std::string name;
  const std::atomic<uint64_t>* cell;
};

// Each field of the views, named as docs/ADMIN_API.md lists it. A view's
// fields are all references, so its size counts them: a new field fails
// these asserts until it gets a row here.
static_assert(sizeof(FrontEndCounters) == 14 * sizeof(void*), "add the new field below");
static_assert(sizeof(BackendCounters) == 14 * sizeof(void*), "add the new field below");

std::vector<NamedCount> FeCounts(const FrontEndCounters& c, int fe) {
  const auto n = [fe](const char* name) { return MetricsRegistry::WithFe(name, fe); };
  return {{n("lard_fe_connections_total"), &c.connections_accepted},
          {n("lard_fe_handoffs_total"), &c.handoffs},
          {n("lard_fe_consults_total"), &c.consults},
          {n("lard_fe_relayed_requests_total"), &c.relayed_requests},
          {n("lard_fe_migrations_total"), &c.migrations},
          {n("lard_fe_rehandoffs_total"), &c.rehandoffs},
          {n("lard_fe_replays_total"), &c.replays},
          {n("lard_fe_replay_giveups_total"), &c.replay_giveups},
          {n("lard_fe_heartbeats_total"), &c.heartbeats},
          {n("lard_cluster_auto_removals_total"), &c.auto_removals},
          {n("lard_fe_rejected_no_backend_total"), &c.rejected_no_backend},
          {n("lard_fe_idle_closes_total"), &c.idle_closes},
          {n("lard_mesh_deltas_sent_total"), &c.gossip_sent},
          {n("lard_mesh_deltas_applied_total"), &c.gossip_applied}};
}

std::vector<NamedCount> BeCounts(const BackendCounters& c, NodeId node) {
  const auto n = [node](const char* name) { return MetricsRegistry::WithNode(name, node); };
  return {{n("lard_backend_connections_adopted_total"), &c.connections_adopted},
          {n("lard_backend_replays_adopted_total"), &c.replays_adopted},
          {n("lard_backend_spliced_responses_total"), &c.spliced_responses},
          {n("lard_backend_handbacks_total"), &c.handbacks},
          {n("lard_backend_drain_handbacks_total"), &c.drain_handbacks},
          {n("lard_backend_requests_total"), &c.requests_served},
          {n("lard_backend_cache_hits_total"), &c.local_hits},
          {n("lard_backend_cache_misses_total"), &c.local_misses},
          {n("lard_backend_lateral_out_total"), &c.lateral_out},
          {n("lard_backend_lateral_in_total"), &c.lateral_in},
          {n("lard_backend_bytes_to_clients_total"), &c.bytes_to_clients},
          {n("lard_backend_not_found_total"), &c.not_found},
          {n("lard_backend_idle_closes_total"), &c.idle_closes},
          {n("lard_backend_heartbeats_total"), &c.heartbeats}};
}

// Counter `name`'s value in a /metrics?format=json body; -1 when absent.
int64_t JsonCounter(const std::string& json, const std::string& name) {
  std::string key = "\"";
  for (const char c : name) {
    if (c == '"') {
      key.push_back('\\');
    }
    key.push_back(c);
  }
  key += "\":";
  const size_t at = json.find(key);
  return at == std::string::npos ? -1 : std::stoll(json.substr(at + key.size()));
}

// Every count equals its /metrics?format=json value. Status frames move the
// heartbeat counts every 100 ms, so the fields are read before and after
// each fetch, and a fetch during which any of them moved is retried.
void ExpectCountsMatchJson(uint16_t admin_port, const std::vector<NamedCount>& counts) {
  const auto read = [&counts]() {
    std::vector<uint64_t> values;
    for (const NamedCount& count : counts) {
      values.push_back(count.cell->load());
    }
    return values;
  };
  for (int attempt = 0; attempt < 50; ++attempt) {
    const std::vector<uint64_t> before = read();
    const AdminReply json = AdminRequest(admin_port, "GET", "/metrics?format=json");
    if (read() != before) {
      continue;
    }
    ASSERT_EQ(json.status, 200);
    for (size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(JsonCounter(json.body, counts[i].name), static_cast<int64_t>(before[i]))
          << counts[i].name;
    }
    return;
  }
  ADD_FAILURE() << "the counts never held still across a /metrics fetch";
}

// No front-end count or gauge is rendered without its {fe="k"} label.
void ExpectNoUnlabelledFeCounts(uint16_t admin_port) {
  std::istringstream lines(AdminRequest(admin_port, "GET", "/metrics").body);
  std::string line;
  while (std::getline(lines, line)) {
    const bool fe_count = line.rfind("lard_fe_", 0) == 0 ||
                          line.rfind("lard_cluster_auto_removals_total", 0) == 0 ||
                          line.rfind("lard_cluster_active_nodes", 0) == 0 ||
                          line.rfind("lard_mesh_deltas_", 0) == 0;
    if (fe_count) {
      EXPECT_NE(line.find('{'), std::string::npos) << line;
    }
  }
}

TEST(AdminClusterTest, CounterViewsAreTheRegistrySingleFrontEnd) {
  // The ExtLardUsesLateralFetches set-up (a working set far larger than the
  // caches, a low disk-queue threshold) so that hits, misses and lateral
  // fetches all happen; then a 404 and an FE idle close.
  SyntheticTraceConfig trace_config;
  trace_config.seed = 5;
  trace_config.num_pages = 200;
  trace_config.num_sessions = 300;
  trace_config.max_size_bytes = 64 * 1024;
  const Trace trace = GenerateSyntheticTrace(trace_config);
  ClusterConfig config = BaseConfig(3);
  config.backend_cache_bytes = 1ull * 1024 * 1024;
  config.disk_time_scale = 0.05;
  config.params.low_disk_queue_threshold = 1;
  config.idle_timeout_ms = 300;
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());

  LoadGeneratorConfig load;
  load.port = cluster.port();
  load.num_clients = 16;
  ASSERT_EQ(RunLoad(load, trace).responses_ok, trace.total_requests());
  {
    auto fd = ConnectTcp(cluster.port());
    ASSERT_TRUE(fd.ok());
    const std::string request = "GET /no/such/file HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd.value().get(), request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    char buf[4096];
    while (::recv(fd.value().get(), buf, sizeof(buf), 0) > 0) {
    }
  }
  {
    // Silent until the front end's idle deadline closes it.
    auto fd = ConnectTcp(cluster.port());
    ASSERT_TRUE(fd.ok());
    timeval timeout{10, 0};
    ::setsockopt(fd.value().get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    char byte = 0;
    EXPECT_EQ(::recv(fd.value().get(), &byte, 1, 0), 0);
  }

  const FrontEndCounters& fe = cluster.frontend().counters();
  EXPECT_GE(fe.idle_closes.load(), 1u);
  std::vector<NamedCount> counts = FeCounts(fe, 0);
  std::vector<BackendCounters> nodes;
  for (NodeId node = 0; node < 3; ++node) {
    nodes.emplace_back(cluster.metrics(), node);
  }
  uint64_t served = 0, hits = 0, misses = 0, lateral_out = 0, lateral_in = 0, not_found = 0;
  for (NodeId node = 0; node < 3; ++node) {
    const BackendCounters& be = nodes[static_cast<size_t>(node)];
    served += be.requests_served.load();
    hits += be.local_hits.load();
    misses += be.local_misses.load();
    lateral_out += be.lateral_out.load();
    lateral_in += be.lateral_in.load();
    not_found += be.not_found.load();
    for (const NamedCount& count : BeCounts(be, node)) {
      counts.push_back(count);
    }
  }
  // The views count what the clients saw.
  EXPECT_EQ(served, trace.total_requests() + 1);
  EXPECT_EQ(not_found, 1u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(lateral_out, 0u);
  EXPECT_GT(lateral_in, 0u);
  ExpectCountsMatchJson(cluster.admin_port(), counts);
  ExpectNoUnlabelledFeCounts(cluster.admin_port());
  cluster.Stop();
}

TEST(AdminClusterTest, CounterViewsAreTheRegistryPerReplica) {
  const Trace trace = TestTrace(9);
  ClusterConfig config = BaseConfig(2);
  config.num_frontends = 2;
  Cluster cluster(config, &trace.catalog());
  ASSERT_TRUE(cluster.Start().ok());
  LoadGeneratorConfig load;
  load.ports = cluster.ports();
  load.num_clients = 8;
  ASSERT_EQ(RunLoad(load, trace).responses_ok, trace.total_requests());

  std::vector<NamedCount> counts;
  uint64_t connections = 0;
  for (int fe = 0; fe < 2; ++fe) {
    const FrontEndCounters& view = cluster.frontend(fe).counters();
    EXPECT_GT(view.connections_accepted.load(), 0u) << "fe=" << fe;
    EXPECT_GT(view.gossip_sent.load(), 0u) << "fe=" << fe;
    connections += view.connections_accepted.load();
    for (const NamedCount& count : FeCounts(view, fe)) {
      counts.push_back(count);
    }
  }
  EXPECT_EQ(cluster.Snapshot().connections, connections);
  ExpectCountsMatchJson(cluster.admin_port(), counts);
  ExpectNoUnlabelledFeCounts(cluster.admin_port());
  // Each replica publishes the membership its own dispatcher sees.
  const AdminReply metrics = AdminRequest(cluster.admin_port(), "GET", "/metrics");
  EXPECT_NE(metrics.body.find("lard_cluster_active_nodes{fe=\"0\"} 2\n"), std::string::npos);
  EXPECT_NE(metrics.body.find("lard_cluster_active_nodes{fe=\"1\"} 2\n"), std::string::npos);
  cluster.Stop();
}

}  // namespace
}  // namespace lard
