#include "src/proto/cluster.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <future>
#include <iterator>
#include <limits>
#include <sstream>

#include "src/core/policy.h"
#include "src/net/socket.h"
#include "src/obs/process_stats.h"
#include "src/util/logging.h"

namespace lard {
namespace {

// Runs `fn` on the loop's thread and waits for completion. Runs inline when
// already on that thread (admin handlers run on the front-end loop and call
// membership operations that target the same loop).
void RunOnLoop(EventLoop* loop, std::function<void()> fn) {
  if (loop->IsInLoopThread()) {
    fn();
    return;
  }
  std::promise<void> done;
  auto future = done.get_future();
  loop->Post([&fn, &done]() {
    fn();
    done.set_value();
  });
  future.wait();
}

// Strict number parse: the whole string must be one double that passes the
// shared capacity-weight validator (positive and finite — the same
// IsValidCapacityWeight the dispatcher CHECKs and the simulator's membership
// events are screened by). Trailing garbage ("2,5", "2.5x") is rejected, not
// silently truncated.
bool ParsePositiveNumber(const std::string& text, double* value) {
  char* parse_end = nullptr;
  const double parsed = std::strtod(text.c_str(), &parse_end);
  if (parse_end != text.c_str() + text.size() || !IsValidCapacityWeight(parsed)) {
    return false;
  }
  *value = parsed;
  return true;
}

// Strict non-negative integer parse (the idle_timeout_ms and
// slow_threshold_us knobs, the /timeseries window, the /nodes/<id>/<verb>
// id). The whole string must be one base-10 integer.
bool ParseNonNegativeInt(const std::string& text, int64_t* value) {
  char* parse_end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &parse_end, 10);
  if (text.empty() || errno != 0 || parse_end != text.c_str() + text.size() || parsed < 0) {
    return false;
  }
  *value = parsed;
  return true;
}

}  // namespace

// One back-end node: loop thread + server. Declaration order matters: the
// loop must outlive the server (whose teardown unregisters fds).
struct Cluster::Node {
  std::unique_ptr<EventLoop> loop;
  std::unique_ptr<BackendServer> server;
  std::thread thread;
  uint16_t lateral_port = 0;
  bool stopped = false;  // loop stopped (removed or killed)
};

Cluster::Cluster(const ClusterConfig& config, const TargetCatalog* catalog)
    : config_(config), store_(catalog) {
  LARD_CHECK(config_.num_nodes > 0);
  LARD_CHECK(config_.num_frontends > 0);
  if (config_.fe_loops <= 0) {
    // 0 = auto: the LARD_FE_LOOPS environment variable (so the whole test
    // suite can be swept multi-loop without touching configs), else 1.
    const char* env = std::getenv("LARD_FE_LOOPS");
    const int parsed = env != nullptr ? std::atoi(env) : 0;
    config_.fe_loops = parsed > 0 ? parsed : 1;
  }
  if (config_.fe_loops > 64) {
    config_.fe_loops = 64;
  }
  TracerConfig tracer_config;
  tracer_config.enabled = config_.tracing_enabled;
  tracer_config.sample_every = config_.trace_sample_every;
  tracer_config.ring_capacity = config_.trace_ring_capacity;
  tracer_ = std::make_unique<Tracer>(tracer_config);
}

Cluster::~Cluster() { Stop(); }

Status Cluster::StartBackend(NodeId node_id, std::vector<UniqueFd>* fe_ends) {
  // One control-session socketpair per front-end replica.
  std::vector<UniqueFd> be_ends;
  fe_ends->clear();
  for (int fe = 0; fe < config_.num_frontends; ++fe) {
    auto pair = UnixPair();
    if (!pair.ok()) {
      return pair.status();
    }
    fe_ends->push_back(std::move(pair.value().first));
    be_ends.push_back(std::move(pair.value().second));
  }

  auto node = std::make_unique<Node>();
  node->loop = std::make_unique<EventLoop>();
  node->server = std::make_unique<BackendServer>(config_, node_id, node->loop.get(), &store_,
                                                 &metrics_, tracer_.get());
  Status status = node->server->Start(std::move(be_ends[0]));
  if (!status.ok()) {
    return status;
  }
  for (size_t fe = 1; fe < be_ends.size(); ++fe) {
    node->server->AttachFrontEnd(static_cast<int>(fe), std::move(be_ends[fe]));
  }
  node->loop->EnableProfiling(&metrics_, "be" + std::to_string(node_id));
  node->lateral_port = node->server->lateral_port();
  LARD_CHECK(static_cast<size_t>(node_id) == nodes_.size());
  nodes_.push_back(std::move(node));
  return Status::Ok();
}

std::unique_ptr<Cluster::FeReplica> Cluster::NewReplica(int fe) {
  auto replica = std::make_unique<FeReplica>();
  replica->loops = std::make_unique<EventLoopGroup>(config_.fe_loops);
  replica->frontend = std::make_unique<FrontEnd>(config_, fe, replica->loops.get(),
                                                 &store_.catalog(), &metrics_, tracer_.get());
  // Node teardown follows the front-ends' removal decisions (which may be
  // deferred past a graceful retire), not the admin call — and waits for
  // every replica to let go.
  replica->frontend->set_on_node_removed([this](NodeId node) { OnNodeRemoved(node); });
  // Per-loop twins: "fe<k>" for loop 0 (historic label), "fe<k>.<n>" for
  // the extra reactors.
  replica->loops->EnableProfiling(&metrics_, "fe" + std::to_string(fe));
  return replica;
}

Status Cluster::Start() {
  // Every loop is wired here, on this thread, before any loop thread exists
  // (docs/CONCURRENCY.md, "Bring-up"); threads start last. A failure returns
  // before that, so the cluster has nothing to join and its destructor
  // closes every fd opened so far.
  std::vector<std::vector<UniqueFd>> fe_ends(static_cast<size_t>(config_.num_nodes));
  std::vector<uint16_t> lateral_ports;
  {
    MutexLock lock(&nodes_mutex_);
    // started_ is read under nodes_mutex_ by the membership verbs on the
    // front-end loops; the write must be published under the same lock (the
    // annotation pass caught the old unlocked write).
    LARD_CHECK(!started_);
    started_ = true;

    // Back-ends, each with one control-session socketpair per front-end.
    for (int i = 0; i < config_.num_nodes; ++i) {
      Status status = StartBackend(i, &fe_ends[static_cast<size_t>(i)]);
      if (!status.ok()) {
        return status;
      }
    }

    // Lateral mesh.
    for (const auto& node : nodes_) {
      lateral_ports.push_back(node->lateral_port);
    }
    for (const auto& node : nodes_) {
      node->server->ConnectPeers(lateral_ports);
    }
  }

  // The front-end tier: each replica gets its own EventLoopGroup of
  // fe_loops reactors. Loop 0 carries the control plane; client
  // connections shard across all loops (see FrontEnd). Wired outside
  // nodes_mutex_: FrontEnd methods take the replica's state_mutex_, which
  // its loops hold when they call back into OnNodeRemoved (lock order
  // state_mutex_ -> nodes_mutex_).
  std::vector<std::unique_ptr<FeReplica>> replicas;
  for (int fe = 0; fe < config_.num_frontends; ++fe) {
    std::unique_ptr<FeReplica> replica = NewReplica(fe);
    std::vector<UniqueFd> controls;
    controls.reserve(static_cast<size_t>(config_.num_nodes));
    for (auto& ends : fe_ends) {
      controls.push_back(std::move(ends[static_cast<size_t>(fe)]));
    }
    Status status = replica->frontend->Start(std::move(controls));
    if (!status.ok()) {
      return status;
    }
    if (config_.mechanism == Mechanism::kRelayingFrontEnd) {
      replica->frontend->ConnectBackends(lateral_ports);
    }
    replicas.push_back(std::move(replica));
  }

  // Pairwise gossip channels between the replicas.
  for (size_t i = 0; i < replicas.size(); ++i) {
    for (size_t j = i + 1; j < replicas.size(); ++j) {
      auto pair = UnixPair();
      if (!pair.ok()) {
        return pair.status();
      }
      replicas[i]->frontend->AttachPeer(static_cast<uint32_t>(j), std::move(pair.value().first));
      replicas[j]->frontend->AttachPeer(static_cast<uint32_t>(i), std::move(pair.value().second));
    }
  }

  MutexLock lock(&nodes_mutex_);
  fes_ = std::move(replicas);
  // Admin plane, on front-end 0's loop (handlers run where that dispatcher
  // lives; mesh introspection reads the other replicas' thread-safe
  // snapshots).
  admin_ = std::make_unique<AdminServer>(FeLoop(0), &metrics_);
  RegisterAdminRoutes();
  Status status = admin_->Start(config_.admin_port);
  if (!status.ok()) {
    return status;
  }

  for (auto& node : nodes_) {
    node->thread = std::thread([loop = node->loop.get()]() { loop->Run(); });
  }
  for (auto& replica : fes_) {
    replica->loops->Start();
  }
  return Status::Ok();
}

// The runtime knobs of GET/POST /config, one row each. A value travels as an
// int64_t (a Policy or LogSeverity as its enum value). policy and
// idle_timeout_ms apply to every front-end replica; slow_threshold_us and
// log_level are process-wide.
const Cluster::RuntimeKnob Cluster::kRuntimeKnobs[] = {
    {"policy",
     [](const std::string& text, int64_t* value) {
       Policy policy = Policy::kWrr;
       if (!ParsePolicyName(text, &policy)) {
         return false;
       }
       *value = static_cast<int64_t>(policy);
       return true;
     },
     [](Cluster* cluster, int64_t value) {
       cluster->OnEveryReplica([value](size_t, FrontEnd* frontend) {
         frontend->SetPolicy(static_cast<Policy>(value));
         return true;
       });
     },
     [](const Cluster& cluster) {
       return "\"" + std::string(PolicyKey(cluster.Fe(0)->policy())) + "\"";
     },
     [] { return "one of " + PolicyKeysCsv(); }},
    {"idle_timeout_ms", ParseNonNegativeInt,
     [](Cluster* cluster, int64_t value) {
       // Applies at each connection's next arm or rearm; 0 stops reaping.
       cluster->OnEveryReplica([value](size_t, FrontEnd* frontend) {
         frontend->set_idle_timeout_ms(value);
         return true;
       });
     },
     [](const Cluster& cluster) { return std::to_string(cluster.Fe(0)->idle_timeout_ms()); },
     [] { return std::string("milliseconds, 0 to stop reaping"); }},
    {"slow_threshold_us", ParseNonNegativeInt,
     // Handed-off connections latch their timing decision at adoption, so
     // raising it from 0 applies to connections adopted after the change.
     [](Cluster* cluster, int64_t value) { cluster->tracer_->set_slow_threshold_us(value); },
     [](const Cluster& cluster) { return std::to_string(cluster.tracer_->slow_threshold_us()); },
     [] { return std::string("microseconds, 0 to turn the slow log off"); }},
    {"log_level",
     [](const std::string& text, int64_t* value) {
       LogSeverity level = LogSeverity::kInfo;
       if (!ParseLogSeverity(text, &level)) {
         return false;
       }
       *value = static_cast<int64_t>(level);
       return true;
     },
     [](Cluster*, int64_t value) { SetMinLogSeverity(static_cast<LogSeverity>(value)); },
     [](const Cluster&) { return "\"" + std::string(LogSeverityName(MinLogSeverity())) + "\""; },
     [] { return std::string("one of debug, info, warning, error"); }},
};

void Cluster::RegisterAdminRoutes() {
  admin_->set_before_metrics([this]() {
    BridgeDispatcherMetrics();
    // Build info + uptime/RSS/fd gauges refresh on every render, so they are
    // live even when the telemetry tick (which also refreshes them) is off.
    process_metrics_.Publish(ReadProcessStats());
  });

  admin_->Route("GET", "/nodes", [this](const AdminParams&, const std::string&) {
    return AdminResponse::Json(Fe(0)->DescribeNodesJson());
  });

  admin_->Route("GET", "/mesh", [this](const AdminParams&, const std::string&) {
    // Every replica's mesh view: epoch, gossip lag, per-peer state. The
    // snapshots are refreshed on each replica's gossip tick and read here
    // under their mutexes (the admin runs on replica 0's loop).
    std::ostringstream out;
    out << "{\"frontends\":" << fes_.size()
        << ",\"gossip_interval_ms\":" << config_.gossip_interval_ms << ",\"fes\":[";
    for (size_t fe = 0; fe < fes_.size(); ++fe) {
      out << (fe == 0 ? "" : ",") << Fe(fe)->DescribeMeshJson();
    }
    out << "]}";
    return AdminResponse::Json(out.str());
  });

  admin_->Route("POST", "/nodes/add", [this](const AdminParams& params, const std::string&) {
    // weight=N, a positive capacity weight; without it the node weighs 1.0.
    double weight = 1.0;
    const auto it = params.find("weight");
    if (params.size() != (it == params.end() ? 0u : 1u) ||
        (it != params.end() && !ParsePositiveNumber(it->second, &weight))) {
      return AdminResponse::Error(400, "expected no parameter or weight=N with N positive");
    }
    const NodeId node = AddNode(weight);
    if (node == kInvalidNode) {
      return AdminResponse::Error(500, "failed to start node");
    }
    std::ostringstream out;
    out << "{\"id\":" << node << ",\"weight\":" << weight << "}";
    return AdminResponse::Json(out.str());
  });

  admin_->RoutePrefix("POST", "/nodes/", [this](const AdminParams&, const std::string& tail) {
    // tail: "<id>/drain" | "<id>/remove" | "<id>/kill".
    const size_t slash = tail.find('/');
    if (slash == std::string::npos) {
      return AdminResponse::Error(400, "expected /nodes/<id>/<verb>");
    }
    int64_t id = 0;
    if (!ParseNonNegativeInt(tail.substr(0, slash), &id) ||
        id > std::numeric_limits<NodeId>::max()) {
      return AdminResponse::Error(400, "bad node id");
    }
    const NodeId node = static_cast<NodeId>(id);
    const std::string verb = tail.substr(slash + 1);
    bool ok = false;
    if (verb == "drain") {
      ok = DrainNode(node);
    } else if (verb == "remove") {
      ok = RemoveNode(node);
    } else if (verb == "kill") {
      ok = KillNode(node);
    } else {
      return AdminResponse::Error(400, "unknown verb: " + verb);
    }
    if (!ok) {
      return AdminResponse::Error(409, verb + " refused for node " +
                                           std::to_string(node));
    }
    return AdminResponse::Json("{\"id\":" + std::to_string(node) + ",\"action\":\"" + verb +
                               "\"}");
  });

  admin_->Route("GET", "/trace", [this](const AdminParams& params, const std::string&) {
    // The format selector and the optional per-ring filter
    // (component=fe0|fe0.1|be2|sim).
    const std::string format = AdminParam(params, "format");
    const std::string component = AdminParam(params, "component");
    if (!component.empty() && !tracer_->HasRing(component)) {
      return AdminResponse::Error(404, "unknown component: " + component);
    }
    AdminResponse response;
    if (format == "chrome") {
      // Loadable in about:tracing / Perfetto ("Open trace file").
      response.body = tracer_->RenderChrome(component);
    } else if (format.empty() || format == "json") {
      response.body = tracer_->RenderJson(component);
    } else {
      return AdminResponse::Error(400, "unknown format; use ?format=chrome or ?format=json");
    }
    return response;
  });

  admin_->Route("GET", "/timeseries", [this](const AdminParams& params, const std::string&) {
    // metric=<substring>&component=<fe0|be1|...>&window=<ms>. Each FE
    // replica contributes its own series; the back-end mirrors are rendered
    // from replica 0 only (every replica holds an equivalent copy).
    const std::string metric = AdminParam(params, "metric");
    const std::string component = AdminParam(params, "component");
    int64_t window_ms = 0;
    const std::string window = AdminParam(params, "window");
    if (!window.empty() && !ParseNonNegativeInt(window, &window_ms)) {
      return AdminResponse::Error(400, "bad window; expected milliseconds");
    }
    std::ostringstream out;
    out << "{\"interval_ms\":" << config_.telemetry_interval_ms << ",\"components\":{";
    bool first = true;
    for (size_t fe = 0; fe < fes_.size(); ++fe) {
      const std::string fragment =
          Fe(fe)->DescribeTimeSeriesJson(metric, component, window_ms, fe == 0);
      if (fragment.empty()) {
        continue;
      }
      out << (first ? "" : ",") << fragment;
      first = false;
    }
    out << "}}";
    return AdminResponse::Json(out.str());
  });

  admin_->Route("GET", "/cluster/health", [this](const AdminParams&, const std::string&) {
    // One merged verdict: the worst watchdog status across the FE replicas
    // (each of which already folds its own loops and the mirrored back-end
    // telemetry into its view), plus every replica's detailed snapshot.
    HealthStatus worst = HealthStatus::kOk;
    std::ostringstream fes;
    for (size_t fe = 0; fe < fes_.size(); ++fe) {
      const HealthStatus status = Fe(fe)->health_status();
      if (static_cast<int>(status) > static_cast<int>(worst)) {
        worst = status;
      }
      fes << (fe == 0 ? "" : ",") << Fe(fe)->DescribeHealthJson();
    }
    std::ostringstream out;
    out << "{\"status\":\"" << HealthStatusName(worst)
        << "\",\"telemetry_interval_ms\":" << config_.telemetry_interval_ms
        << ",\"frontends\":[" << fes.str() << "]}";
    return AdminResponse::Json(out.str());
  });

  admin_->Route("GET", "/config", [this](const AdminParams&, const std::string&) {
    return AdminResponse::Json(RenderConfig());
  });

  admin_->Route("POST", "/config", [this](const AdminParams& params, const std::string&) {
    // Every pair is validated before any is applied, so a batch with one bad
    // pair changes nothing. Replies name the table's keys and render the
    // getters, never the request's bytes.
    std::vector<std::pair<const RuntimeKnob*, int64_t>> batch;
    for (const auto& [key, text] : params) {
      const RuntimeKnob* knob = std::find_if(
          std::begin(kRuntimeKnobs), std::end(kRuntimeKnobs),
          [&key = key](const RuntimeKnob& row) { return key == row.key; });
      if (knob == std::end(kRuntimeKnobs)) {
        return AdminResponse::Error(400, "unknown key; GET /config lists the keys");
      }
      int64_t value = 0;
      if (!knob->parse(text, &value)) {
        return AdminResponse::Error(400, std::string("bad ") + knob->key + "; expected " +
                                             knob->expected());
      }
      batch.emplace_back(knob, value);
    }
    for (const auto& [knob, value] : batch) {
      knob->apply(this, value);
      LARD_LOG(WARNING) << "admin: " << knob->key << " set to " << knob->render(*this);
    }
    return AdminResponse::Json(RenderConfig());
  });
}

std::string Cluster::RenderConfig() const {
  std::string out;
  for (const RuntimeKnob& knob : kRuntimeKnobs) {
    out += (out.empty() ? "{\"" : ",\"") + std::string(knob.key) + "\":" + knob.render(*this);
  }
  return out + "}";
}

bool Cluster::OnEveryReplica(const std::function<bool(size_t fe, FrontEnd*)>& action) {
  const bool result = action(0, Fe(0));
  for (size_t fe = 1; fe < fes_.size(); ++fe) {
    // lard-lint: allow(liveness-guard) Stop() joins every FE loop before ~Cluster,
    // so a posted task can never outlive `this`.
    FeLoop(fe)->Post([this, fe, action]() { (void)action(fe, FeFromReplicaLoop(fe)); });
  }
  return result;
}

void Cluster::BridgeDispatcherMetrics() {
  // Runs on front-end 0's loop. The dispatchers' decision counters are
  // bridged as gauges on each /metrics render rather than double-counted.
  // With a replicated tier the bridged figures are the tier totals. Each
  // replica's contribution is one coherent copy taken under its dispatcher
  // façade lock (DispatcherCountersSnapshot), so a render never mixes a
  // request's "requests" increment with the pre-handoff value of its
  // "handoffs" — the per-replica counters move together even while that
  // replica's shard loops are mid-decision.
  DispatcherCounters counters;
  size_t open_connections = 0;
  for (size_t fe = 0; fe < fes_.size(); ++fe) {
    size_t open = 0;
    counters += Fe(fe)->DispatcherCountersSnapshot(&open);
    open_connections += open;
  }
  metrics_.Gauge("lard_dispatcher_requests")->Set(static_cast<double>(counters.requests));
  metrics_.Gauge("lard_dispatcher_handoffs")->Set(static_cast<double>(counters.handoffs));
  metrics_.Gauge("lard_dispatcher_forwards")->Set(static_cast<double>(counters.forwards));
  metrics_.Gauge("lard_dispatcher_local_serves")->Set(static_cast<double>(counters.local_serves));
  metrics_.Gauge("lard_dispatcher_migrations")->Set(static_cast<double>(counters.migrations));
  metrics_.Gauge("lard_dispatcher_relays")->Set(static_cast<double>(counters.relays));
  metrics_.Gauge("lard_dispatcher_open_connections")
      ->Set(static_cast<double>(open_connections));
  metrics_.Gauge("lard_dispatcher_nodes_removed")
      ->Set(static_cast<double>(counters.nodes_removed));
  metrics_.Gauge("lard_dispatcher_orphaned_connections")
      ->Set(static_cast<double>(counters.orphaned_connections));
  metrics_.Gauge("lard_dispatcher_reassignments")
      ->Set(static_cast<double>(counters.reassignments));
  metrics_.Gauge("lard_dispatcher_failure_reassignments")
      ->Set(static_cast<double>(counters.failure_reassignments));
}

NodeId Cluster::AddNode(double weight) {
  // Membership operations are serialized on front-end 0's loop thread
  // (inline when an admin handler calls us there), so concurrent joins
  // cannot interleave id allocation across the replicas. nodes_mutex_ is
  // held only around the backend bring-up (which waits on back-end loops
  // only) and released before fanning out to the other front-end loops —
  // those may be blocked on the mutex inside OnNodeRemoved, and waiting on
  // them while holding it would deadlock.
  NodeId node_id = kInvalidNode;
  RunOnLoop(FeLoop(0), [this, weight, &node_id]() {
    NodeId fresh_id = kInvalidNode;
    Node* fresh = nullptr;
    std::vector<UniqueFd> fe_ends;
    {
      MutexLock lock(&nodes_mutex_);
      if (stopped_) {
        return;
      }
      fresh_id = static_cast<NodeId>(nodes_.size());
      if (!StartBackend(fresh_id, &fe_ends).ok()) {
        return;
      }
      fresh = nodes_.back().get();

      // Lateral mesh: the new node learns every live peer before its thread
      // starts; every live peer learns the new node on its own loop.
      std::vector<uint16_t> lateral_ports;
      for (const auto& node : nodes_) {
        lateral_ports.push_back(node->lateral_port);
      }
      fresh->server->ConnectPeers(lateral_ports);
      fresh->thread = std::thread([loop = fresh->loop.get()]() { loop->Run(); });
      for (NodeId peer = 0; peer < fresh_id; ++peer) {
        Node* node = nodes_[static_cast<size_t>(peer)].get();
        if (node->stopped) {
          continue;
        }
        RunOnLoop(node->loop.get(), [node, fresh_id, port = fresh->lateral_port]() {
          node->server->AddPeer(fresh_id, port);
        });
      }
    }

    // Every front-end replica registers the node — same id on all of them:
    // joins are serialized here, ids are never reused, and each replica's
    // loop runs its membership posts in order. Each replica moves out its
    // own control fd.
    auto ends = std::make_shared<std::vector<UniqueFd>>(std::move(fe_ends));
    OnEveryReplica([ends, fresh_id, weight, lateral_port = fresh->lateral_port](
                       size_t fe, FrontEnd* frontend) {
      const NodeId assigned = frontend->AddNode(std::move((*ends)[fe]), lateral_port, weight);
      LARD_CHECK(assigned == fresh_id) << "front-end replicas diverged on a join";
      return true;
    });
    node_id = fresh_id;
  });
  return node_id;
}

bool Cluster::DrainNode(NodeId node) {
  bool ok = false;
  RunOnLoop(FeLoop(0), [this, node, &ok]() {
    ok = OnEveryReplica([node](size_t, FrontEnd* frontend) { return frontend->DrainNode(node); });
  });
  return ok;
}

void Cluster::StopNodeLocked(NodeId node, bool destroy_server) {
  Node* target = nodes_[static_cast<size_t>(node)].get();
  if (target->stopped) {
    return;
  }
  target->stopped = true;
  if (destroy_server) {
    // Tear the server down on its own loop first so fds unregister cleanly
    // and its clients see EOF instead of silence.
    RunOnLoop(target->loop.get(), [target]() { target->server.reset(); });
  }
  target->loop->Stop();
  if (target->thread.joinable()) {
    target->thread.join();
  }
}

void Cluster::OnNodeRemoved(NodeId node) {
  // Some front-end replica's loop thread: that replica has torn its control
  // session down. The node's loop may only stop once *every* replica has
  // let go — an early teardown would reset connections the other replicas
  // still route.
  MutexLock lock(&nodes_mutex_);
  if (node < 0 || static_cast<size_t>(node) >= nodes_.size() || stopped_) {
    return;
  }
  const int acks = ++removal_acks_[node];
  if (acks < static_cast<int>(fes_.size())) {
    return;
  }
  StopNodeLocked(node, /*destroy_server=*/true);
}

FrontEnd* Cluster::FeFromReplicaLoop(size_t fe) const {
  MutexLock lock(&nodes_mutex_);
  return Fe(fe);
}

bool Cluster::RemoveNode(NodeId node) {
  bool ok = false;
  // Teardown of the node's thread happens via OnNodeRemoved once every
  // front-end finishes its (possibly deferred, graceful) removal.
  RunOnLoop(FeLoop(0), [this, node, &ok]() {
    ok = OnEveryReplica([node](size_t, FrontEnd* frontend) { return frontend->RemoveNode(node); });
  });
  return ok;
}

bool Cluster::KillNode(NodeId node) {
  bool ok = false;
  RunOnLoop(FeLoop(0), [this, node, &ok]() {
    MutexLock lock(&nodes_mutex_);
    if (node < 0 || static_cast<size_t>(node) >= nodes_.size() ||
        nodes_[static_cast<size_t>(node)]->stopped) {
      return;
    }
    // No front-end notification, no fd teardown: the node simply goes silent
    // (its control sessions and client sockets stay open but unserviced), so
    // detection must come from every replica's heartbeat timeout.
    StopNodeLocked(node, /*destroy_server=*/false);
    LARD_LOG(WARNING) << "cluster: node " << node << " killed (silent crash)";
    ok = true;
  });
  return ok;
}

void Cluster::Stop() {
  {
    // stopped_ is read under nodes_mutex_ by OnNodeRemoved on the front-end
    // loops; publish it under the same lock (but release before joining the
    // loop threads, which may be blocked acquiring it).
    MutexLock lock(&nodes_mutex_);
    if (!started_ || stopped_) {
      return;
    }
    stopped_ = true;
  }
  // Snapshot the loop groups under the lock, then signal + join outside it
  // — the loop threads may be blocked acquiring nodes_mutex_ inside
  // OnNodeRemoved.
  std::vector<EventLoopGroup*> groups;
  {
    MutexLock lock(&nodes_mutex_);
    groups.reserve(fes_.size());
    for (auto& replica : fes_) {
      groups.push_back(replica->loops.get());
    }
  }
  // Ask every replica's loops to stop first, then join (EventLoopGroup::Stop
  // both signals and joins; signalling all groups up front keeps shutdown
  // near-parallel).
  for (EventLoopGroup* group : groups) {
    for (int i = 0; i < group->size(); ++i) {
      group->loop(i)->Stop();
    }
  }
  for (EventLoopGroup* group : groups) {
    group->Stop();
  }
  // Back-end loops never take nodes_mutex_, so they are signalled and joined
  // under it — all signalled before any join, like the groups above.
  MutexLock lock(&nodes_mutex_);
  for (auto& node : nodes_) {
    node->loop->Stop();
  }
  for (auto& node : nodes_) {
    if (node->thread.joinable()) {
      node->thread.join();
    }
  }
}

uint16_t Cluster::port() const {
  // Same lock discipline as ports()/frontend(): tests call this from their
  // own thread, and Start() publishes fes_ under nodes_mutex_.
  MutexLock lock(&nodes_mutex_);
  LARD_CHECK(!fes_.empty());
  return Fe(0)->port();
}

std::vector<uint16_t> Cluster::ports() const {
  MutexLock lock(&nodes_mutex_);
  std::vector<uint16_t> out;
  out.reserve(fes_.size());
  for (size_t fe = 0; fe < fes_.size(); ++fe) {
    out.push_back(Fe(fe)->port());
  }
  return out;
}

void Cluster::InspectReplica(int fe, const std::function<void(const FrontEnd&)>& fn) const {
  // Look the replica up under the lock, but run the closure without it: the
  // target loop may be blocked acquiring nodes_mutex_ inside OnNodeRemoved.
  const FrontEnd* target = nullptr;
  EventLoop* loop = nullptr;
  {
    MutexLock lock(&nodes_mutex_);
    LARD_CHECK(fe >= 0 && static_cast<size_t>(fe) < fes_.size());
    target = Fe(static_cast<size_t>(fe));
    loop = FeLoop(static_cast<size_t>(fe));
  }
  RunOnLoop(loop, [target, &fn]() { fn(*target); });
}

const FrontEnd& Cluster::frontend(int fe) const {
  MutexLock lock(&nodes_mutex_);
  LARD_CHECK(fe >= 0 && static_cast<size_t>(fe) < fes_.size());
  return *Fe(static_cast<size_t>(fe));
}

uint16_t Cluster::admin_port() const {
  LARD_CHECK(admin_ != nullptr) << "admin_port() before Start()";
  return admin_->port();
}

ClusterSnapshot Cluster::Snapshot() const {
  // Every view is bound through the registry, whose instruments outlive
  // the components: a removed node keeps its counts.
  ClusterSnapshot snapshot;
  MutexLock lock(&nodes_mutex_);
  for (NodeId node = 0; node < static_cast<NodeId>(nodes_.size()); ++node) {
    const BackendCounters counters(&metrics_, node);
    const uint64_t requests = counters.requests_served.load(std::memory_order_relaxed);
    snapshot.requests_served += requests;
    snapshot.requests_per_node.push_back(requests);
    snapshot.local_hits += counters.local_hits.load(std::memory_order_relaxed);
    snapshot.local_misses += counters.local_misses.load(std::memory_order_relaxed);
    snapshot.lateral_out += counters.lateral_out.load(std::memory_order_relaxed);
    snapshot.bytes_to_clients += counters.bytes_to_clients.load(std::memory_order_relaxed);
    snapshot.not_found += counters.not_found.load(std::memory_order_relaxed);
    snapshot.migrations += counters.handbacks.load(std::memory_order_relaxed);
    snapshot.drain_handbacks += counters.drain_handbacks.load(std::memory_order_relaxed);
    snapshot.replays_adopted += counters.replays_adopted.load(std::memory_order_relaxed);
    snapshot.spliced_responses += counters.spliced_responses.load(std::memory_order_relaxed);
  }
  for (size_t fe = 0; fe < fes_.size(); ++fe) {
    const FrontEndCounters counters(&metrics_, static_cast<int>(fe));
    snapshot.connections += counters.connections_accepted.load();
    snapshot.consults += counters.consults.load();
    snapshot.handoffs += counters.handoffs.load();
    snapshot.rehandoffs += counters.rehandoffs.load();
    snapshot.replays += counters.replays.load();
    snapshot.replay_giveups += counters.replay_giveups.load();
    snapshot.heartbeats += counters.heartbeats.load();
    snapshot.auto_removals += counters.auto_removals.load();
    if (config_.mechanism == Mechanism::kRelayingFrontEnd) {
      // Relay mode serves clients from the front-ends; back-end
      // requests_served counters stay zero (their lateral path served the
      // fetches).
      snapshot.requests_served += counters.relayed_requests.load();
    }
  }
  const uint64_t lookups = snapshot.local_hits + snapshot.local_misses;
  snapshot.cache_hit_rate =
      lookups > 0 ? static_cast<double>(snapshot.local_hits) / static_cast<double>(lookups) : 0.0;
  return snapshot;
}

}  // namespace lard
