#include "src/proto/frontend.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "src/http/tagging.h"
#include "src/net/socket.h"
#include "src/obs/process_stats.h"
#include "src/util/capacity.h"
#include "src/util/logging.h"

namespace lard {

namespace {

constexpr char kUnavailableReply[] =
    "HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n";

// Fixed indices into the front-end's TimeSeriesStore; kFeSeriesNames order is
// the AddSeries order in the constructor, which fixes the Append indices.
enum FeSeries : int {
  kSConnRate = 0,
  kSHandoffRate,
  kSConsultRate,
  kSReplayRate,
  kSGiveupRate,
  kSRejectRate,
  kSOpenConns,
  kSActiveNodes,
  kSLoadSkew,
  kSWakeupP99Us,
  kSPendingTasks,
  kSRssBytes,
  kSOpenFds,
  kSIdleCloseRate,
  kSConnsFeOwned,
  kSConnsHandedOff,
};

constexpr const char* kFeSeriesNames[] = {
    "conn_rate",  "handoff_rate", "consult_rate",  "replay_rate",
    "giveup_rate", "reject_rate",  "open_conns",    "active_nodes",
    "load_skew",  "wakeup_p99_us", "pending_tasks", "rss_bytes",
    "open_fds",   "idle_close_rate", "conns_fe_owned", "conns_handed_off",
};

// Built-in watchdog rules (ClusterConfig::slo_rules empty). Ceilings are
// prototype-scale: they catch order-of-magnitude regressions (a saturated
// back-end, a stalled loop, a replay storm), not production SLOs.
std::vector<SloRule> DefaultSloRules() {
  std::vector<SloRule> rules;
  SloRule rule;
  rule.name = "be_p99_latency";
  rule.input = "be_p99_latency_us";
  rule.ceiling = 250000.0;  // 250ms per-request p99 at a back-end
  rules.push_back(rule);
  rule = SloRule();
  rule.name = "replay_storm";
  rule.input = "replay_rate";
  rule.ceiling = 50.0;  // replays/s: crash-path churn, not steady state
  rules.push_back(rule);
  rule = SloRule();
  rule.name = "giveup_rate";
  rule.input = "giveup_rate";
  rule.ceiling = 0.0;  // any unreplayable orphan is client-visible
  rules.push_back(rule);
  rule = SloRule();
  rule.name = "loop_wakeup_delay";
  rule.input = "wakeup_p99_us";
  rule.ceiling = 100000.0;  // 100ms timer/post wakeup p99: a stalled loop
  rules.push_back(rule);
  rule = SloRule();
  rule.name = "backend_load_skew";
  rule.input = "load_skew";
  rule.ceiling = 4.0;  // max/mean connection skew across live back-ends
  rules.push_back(rule);
  return rules;
}

// Answers a client socket the front end is letting go of with an empty-bodied
// `status` and a FIN, then discards what the client already sent: a socket
// closed with unread bytes sends a RST, which can reach the client ahead of
// the reply or turn the reply's EOF into ECONNRESET. Best-effort, one pass,
// no waiting; the caller closes (or shuts down) the fd afterwards.
void ShedSocket(int fd, int status) {
  const std::string reply = "HTTP/1.0 " + std::to_string(status) + " " + ReasonPhrase(status) +
                            "\r\nContent-Length: 0\r\n\r\n";
  (void)!::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
  (void)::shutdown(fd, SHUT_WR);
  char discard[4096];
  // lard-lint: allow(blocking-call) MSG_DONTWAIT: this recv returns EAGAIN
  // instead of blocking the loop.
  while (::recv(fd, discard, sizeof(discard), MSG_DONTWAIT) > 0) {
  }
}

// Methods whose requests may be replayed after a crash (the journal's
// idempotency policy).
bool IsIdempotent(const std::string& method) { return method == "GET" || method == "HEAD"; }

std::atomic<uint64_t>& FeCell(MetricsRegistry* registry, const char* name, int fe) {
  return registry->Counter(MetricsRegistry::WithFe(name, fe))->cell();
}

}  // namespace

FrontEndCounters::FrontEndCounters(MetricsRegistry* registry, int fe)
    : connections_accepted(FeCell(registry, "lard_fe_connections_total", fe)),
      handoffs(FeCell(registry, "lard_fe_handoffs_total", fe)),
      consults(FeCell(registry, "lard_fe_consults_total", fe)),
      relayed_requests(FeCell(registry, "lard_fe_relayed_requests_total", fe)),
      migrations(FeCell(registry, "lard_fe_migrations_total", fe)),
      rehandoffs(FeCell(registry, "lard_fe_rehandoffs_total", fe)),
      replays(FeCell(registry, "lard_fe_replays_total", fe)),
      replay_giveups(FeCell(registry, "lard_fe_replay_giveups_total", fe)),
      heartbeats(FeCell(registry, "lard_fe_heartbeats_total", fe)),
      auto_removals(FeCell(registry, "lard_cluster_auto_removals_total", fe)),
      rejected_no_backend(FeCell(registry, "lard_fe_rejected_no_backend_total", fe)),
      idle_closes(FeCell(registry, "lard_fe_idle_closes_total", fe)),
      gossip_sent(FeCell(registry, "lard_mesh_deltas_sent_total", fe)),
      gossip_applied(FeCell(registry, "lard_mesh_deltas_applied_total", fe)) {}

// Last-reported disk queue length per back-end — the dispatcher's
// BackendStatsProvider view (updated from kNodeStatus frames and consult
// piggybacks; all under state_mutex_). Grows as nodes join.
class FrontEnd::DiskTable final : public BackendStatsProvider {
 public:
  explicit DiskTable(int num_nodes) : queue_lengths_(static_cast<size_t>(num_nodes), 0) {}
  int DiskQueueLength(NodeId node) const override {
    return static_cast<size_t>(node) < queue_lengths_.size()
               ? queue_lengths_[static_cast<size_t>(node)]
               : 0;
  }
  void Update(NodeId node, int length) {
    if (static_cast<size_t>(node) >= queue_lengths_.size()) {
      queue_lengths_.resize(static_cast<size_t>(node) + 1, 0);
    }
    queue_lengths_[static_cast<size_t>(node)] = length;
  }

 private:
  std::vector<int> queue_lengths_;
};

FrontEnd::FrontEnd(const ClusterConfig& config, int fe_id, EventLoopGroup* loops,
                   const TargetCatalog* catalog, MetricsRegistry* metrics, Tracer* tracer)
    : metrics_(WithRegistry(metrics, &own_metrics_)), config_(config), fe_id_(fe_id),
      loops_(loops), loop_(nullptr), catalog_(catalog), journal_(ReplayJournalConfig{}),
      tracer_(tracer), counters_(metrics_, fe_id_) {
  LARD_CHECK(loops_ != nullptr);
  idle_timeout_ms_.store(config_.idle_timeout_ms, std::memory_order_relaxed);
  loop_ = loops_->loop(0);
  LARD_CHECK(catalog_ != nullptr);
  LARD_CHECK(config_.mechanism == Mechanism::kSingleHandoff ||
             config_.mechanism == Mechanism::kBackEndForwarding ||
             config_.mechanism == Mechanism::kMultipleHandoff ||
             config_.mechanism == Mechanism::kRelayingFrontEnd)
      << "prototype supports single/multiple handoff, BE forwarding and relaying";
  disk_table_ = std::make_unique<DiskTable>(config_.num_nodes);
  LARD_CHECK(config_.num_frontends > 0 && fe_id_ >= 0 && fe_id_ < config_.num_frontends);
  if (config_.num_frontends > 1) {
    mesh_ = std::make_unique<MeshStateTable>(static_cast<uint32_t>(fe_id_));
    metric_mesh_epoch_ = metrics_->Gauge(MetricsRegistry::WithFe("lard_mesh_epoch", fe_id_));
    metric_mesh_lag_ms_ =
        metrics_->Gauge(MetricsRegistry::WithFe("lard_mesh_gossip_lag_ms", fe_id_));
    metric_mesh_peers_ = metrics_->Gauge(MetricsRegistry::WithFe("lard_mesh_peers", fe_id_));
    metric_mesh_divergence_ =
        metrics_->Gauge(MetricsRegistry::WithFe("lard_mesh_divergence", fe_id_));
  }

  // Trace ids are connection ids; the per-shard id blocks below also make
  // every trace id cluster-unique with no extra plumbing.
  //
  // One shard per loop. Connection ids are a shared namespace at the
  // back-ends (their client tables and every control message key on them),
  // so each replica mints from its own 48-bit block — and within a replica
  // each shard mints from its own 40-bit sub-block, so two loops never hand
  // off the same id without ever synchronizing on a counter. Shard 0's first
  // id is (fe_id << 48) + 1, exactly what the one-loop front-end minted.
  for (int k = 0; k < loops_->size(); ++k) {
    auto shard = std::make_unique<LoopShard>();
    shard->loop = loops_->loop(k);
    shard->index = k;
    shard->next_conn_id = (static_cast<ConnId>(fe_id_) << 48) | (static_cast<ConnId>(k) << 40);
    if (tracer_ != nullptr) {
      shard->trace_ring = tracer_->Ring(
              k == 0 ? "fe" + std::to_string(fe_id_)
                 : "fe" + std::to_string(fe_id_) + "." + std::to_string(k));
    }
    shards_.push_back(std::move(shard));
  }
  trace_ring_ = shards_[0]->trace_ring;

  DispatcherConfig dispatch_config;
  dispatch_config.policy = config_.policy;
  dispatch_config.mechanism = config_.mechanism;
  dispatch_config.params = config_.params;
  dispatch_config.num_nodes = config_.num_nodes;
  dispatch_config.node_weights = config_.node_weights;
  dispatch_config.virtual_cache_bytes = config_.backend_cache_bytes;
  // Gauges and the lard_node_load family describe the cluster once; in a
  // replicated tier only replica 0 publishes them.
  dispatch_config.metrics = fe_id_ == 0 ? metrics_ : nullptr;
  dispatch_config.remote_loads = mesh_.get();
  dispatcher_ = std::make_unique<Dispatcher>(dispatch_config, catalog_, disk_table_.get());

  metric_active_nodes_ =
      metrics_->Gauge(MetricsRegistry::WithFe("lard_cluster_active_nodes", fe_id_));
  metric_active_nodes_->Set(config_.num_nodes);

  if (config_.telemetry_interval_ms > 0) {
    TimeSeriesConfig ts;
    ts.interval_ms = static_cast<int>(config_.telemetry_interval_ms);
    telemetry_ = std::make_unique<TimeSeriesStore>(ts);
    for (const char* name : kFeSeriesNames) {
      telemetry_->AddSeries(name);  // AddSeries order == FeSeries indices
    }
    process_metrics_ = std::make_unique<ProcessMetrics>(metrics_);
    std::vector<SloRule> rules =
        config_.slo_rules.empty() ? DefaultSloRules() : config_.slo_rules;
    watchdog_ = std::make_unique<SloWatchdog>("fe" + std::to_string(fe_id_), std::move(rules));
  }
}

FrontEnd::~FrontEnd() {
  // First: deferred tasks (posted erases, health/retire timers, cross-loop
  // adopts and handoff completions) drained after this point become no-ops
  // instead of touching freed state.
  alive_.Invalidate();
}

int64_t FrontEnd::NowMs() const {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

void FrontEnd::AttachControl(NodeId node, UniqueFd control_fd) {
  if (static_cast<size_t>(node) >= nodes_.size()) {
    nodes_.resize(static_cast<size_t>(node) + 1);
  }
  NodeLink& link = nodes_[static_cast<size_t>(node)];
  LARD_CHECK_OK(SetNonBlocking(control_fd.get(), true));
  link.control = std::make_unique<FramedChannel>(loop_, std::move(control_fd));
  link.last_heartbeat_ms = NowMs();
  link.heartbeat_seen = false;
  link.control->set_on_message([this, node](uint8_t type, std::string_view payload, UniqueFd fd) {
    OnControlMessage(node, type, payload, std::move(fd));
  });
  // EOF/error means the back-end process died (or closed on us): remove it.
  // Deferred — we may be inside the channel's own event handler, and a Send
  // under state_mutex_ can fail synchronously (the posted task re-locks).
  link.control->set_on_close([this, node]() {
    loop_->Post(alive_.Guard([this, node]() {
      MutexLock lock(&state_mutex_);
      RemoveNodeInternal(node, "control session lost");
    }));
  });
  link.control->Start();
  // Identify this replica to the back-end (a single-FE tier is replica 0 of
  // a 1-replica tier; the hello is harmless and keeps one code path).
  link.control->Send(static_cast<uint8_t>(ControlMsg::kFeHello),
                     EncodeU32(static_cast<uint32_t>(fe_id_)));
  link.handoff_counter =
      metrics_->Counter(MetricsRegistry::WithNode("lard_fe_handoffs_total", node));
}

Status FrontEnd::Start(std::vector<UniqueFd> control_fds) {
  LARD_CHECK(control_fds.size() == static_cast<size_t>(config_.num_nodes));
  // Listeners first: a busy port fails Start() before anything is attached.
  // Only replica 0 binds the configured port; the rest pick free ones.
  const uint16_t listen_port = fe_id_ == 0 ? config_.listen_port : 0;
  uint16_t bound_port = 0;
  if (shards_.size() == 1) {
    // One loop: the historic single listener, no SO_REUSEPORT involved.
    auto listener = ListenTcp(listen_port, &bound_port);
    if (!listener.ok()) {
      return listener.status();
    }
    shards_[0]->listener = std::move(listener.value());
  } else {
    // One SO_REUSEPORT listener per shard: the kernel spreads accepts across
    // the loops with no cross-thread wakeups or fd passing.
    auto first = ListenTcpReusePort(listen_port, &bound_port);
    if (!first.ok()) {
      return first.status();
    }
    shards_[0]->listener = std::move(first.value());
    for (size_t k = 1; k < shards_.size(); ++k) {
      auto next = ListenTcpReusePort(bound_port, nullptr);
      if (!next.ok()) {
        return next.status();
      }
      shards_[k]->listener = std::move(next.value());
    }
  }
  port_ = bound_port;

  for (int node = 0; node < config_.num_nodes; ++node) {
    AttachControl(node, std::move(control_fds[static_cast<size_t>(node)]));
  }
  for (auto& shard_ptr : shards_) {
    LoopShard* shard = shard_ptr.get();
    LARD_CHECK_OK(SetNonBlocking(shard->listener.get(), true));
    // No loop runs yet, so every shard's listener registers from here and
    // accepts from its loop's first iteration.
    shard->loop->Register(shard->listener.get(), EPOLLIN,
                          [this, shard](uint32_t events) { OnAccept(shard, events); });
  }

  if (config_.heartbeat_timeout_ms > 0) {
    ScheduleHealthSweep(std::max<int64_t>(config_.heartbeat_timeout_ms / 4, 25));
  }
  if (MeshEnabled()) {
    {
      MutexLock lock(&state_mutex_);
      UpdateMeshSnapshot();
    }
    loop_->ScheduleAfterMs(std::max<int64_t>(config_.gossip_interval_ms, 1),
                           alive_.Guard([this]() { GossipTick(); }));
  }
  if (telemetry_ != nullptr) {
    loop_->ScheduleAfterMs(config_.telemetry_interval_ms,
                           alive_.Guard([this]() { TelemetryTick(); }));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// The front-end mesh
// ---------------------------------------------------------------------------

void FrontEnd::AttachPeer(uint32_t peer_fe_id, UniqueFd gossip_fd) {
  LARD_CHECK(MeshEnabled()) << "AttachPeer on a single-front-end tier";
  LARD_CHECK(peer_fe_id != static_cast<uint32_t>(fe_id_));
  LARD_CHECK_OK(SetNonBlocking(gossip_fd.get(), true));
  auto channel = std::make_unique<FramedChannel>(loop_, std::move(gossip_fd));
  channel->set_on_message([this, peer_fe_id](uint8_t type, std::string_view payload, UniqueFd) {
    OnPeerMessage(peer_fe_id, type, payload);
  });
  // Deferred: a failing Send inside GossipTick invokes on_close while
  // state_mutex_ is already held, so the handler must not lock inline.
  channel->set_on_close([this, peer_fe_id]() {
    loop_->Post(alive_.Guard([this, peer_fe_id]() {
      MutexLock lock(&state_mutex_);
      OnPeerClosed(peer_fe_id);
    }));
  });
  channel->Start();
  channel->Send(kGossipHelloFrameType, EncodeU32(static_cast<uint32_t>(fe_id_)));
  fe_peers_[peer_fe_id] = std::move(channel);
}

void FrontEnd::OnPeerMessage(uint32_t peer, uint8_t type, std::string_view payload) {
  if (type == kGossipHelloFrameType) {
    uint32_t announced = 0;
    if (!DecodeU32(payload, &announced) || announced != peer) {
      LARD_LOG(ERROR) << "front-end " << fe_id_ << ": peer hello mismatch (" << announced
                      << " on channel " << peer << ")";
    }
    return;
  }
  if (type != kGossipFrameType) {
    LARD_LOG(ERROR) << "front-end " << fe_id_ << ": unexpected mesh frame type "
                    << static_cast<int>(type) << " from peer " << peer;
    return;
  }
  GossipDelta delta;
  if (!DecodeGossipDelta(payload, &delta) || delta.fe_id != peer) {
    LARD_LOG(ERROR) << "front-end " << fe_id_ << ": bad gossip delta from peer " << peer;
    return;
  }
  MutexLock lock(&state_mutex_);
  if (!mesh_->Apply(delta, NowMs() * 1000)) {
    return;  // stale or regressed; counters already advanced
  }
  counters_.gossip_applied.fetch_add(1, std::memory_order_relaxed);
  // The non-load fields are the peer's membership/weight beliefs: surface
  // how far this replica and the sender disagree (persistently non-zero =
  // somebody missed control-plane news).
  metric_mesh_divergence_->Set(static_cast<double>(CountBeliefDivergence(delta, *dispatcher_)));
  for (const GossipVcacheHint& hint : delta.hints) {
    dispatcher_->NoteRemoteFetch(hint.node, hint.target);
  }
}

void FrontEnd::OnPeerClosed(uint32_t peer) {
  // FE leave: forget its load contribution; the channel is torn down on the
  // next loop iteration (a queued frame callback may still reference it).
  mesh_->RemovePeer(peer);
  auto it = fe_peers_.find(peer);
  if (it != fe_peers_.end()) {
    std::shared_ptr<FramedChannel> dead(it->second.release());
    fe_peers_.erase(it);
    loop_->Post([dead]() {});
  }
  LARD_LOG(WARNING) << "front-end " << fe_id_ << ": mesh peer " << peer << " left";
}

void FrontEnd::RecordFetchHints(const std::vector<TargetId>& targets,
                                const std::vector<Assignment>& assignments) {
  if (!MeshEnabled()) {
    return;
  }
  for (size_t i = 0; i < targets.size() && i < assignments.size(); ++i) {
    if (targets[i] == kInvalidTarget || assignments[i].node == kInvalidNode) {
      continue;
    }
    // Extended LARD's no-cache-under-disk-pressure serves leave the target
    // non-resident; telling the peers otherwise would make them route for a
    // hit the node cannot give.
    if (!assignments[i].served_from_cache && !assignments[i].cache_after_miss) {
      continue;
    }
    pending_hints_.insert(MakeHintKey(assignments[i].node, targets[i]));
  }
}

void FrontEnd::GossipTick() {
  MutexLock lock(&state_mutex_);
  const int64_t tick_start_us = TraceNowUs();
  const size_t hint_count = pending_hints_.size();
  std::vector<GossipVcacheHint> hints;
  hints.reserve(pending_hints_.size());
  for (const uint64_t key : pending_hints_) {
    hints.push_back(HintFromKey(key));
  }
  pending_hints_.clear();
  const GossipDelta delta = BuildGossipDelta(static_cast<uint32_t>(fe_id_),
                                             ++gossip_seq_, *dispatcher_, std::move(hints));
  const std::string encoded = EncodeGossipDelta(delta);
  // Snapshot the channels: a failing Send invokes on_close synchronously,
  // whose posted cleanup erases the map entry (the channel object itself
  // stays alive until that task runs, so the raw pointers remain valid).
  std::vector<FramedChannel*> channels;
  channels.reserve(fe_peers_.size());
  for (auto& [peer, channel] : fe_peers_) {
    channels.push_back(channel.get());
  }
  for (FramedChannel* channel : channels) {
    if (channel != nullptr && channel->open()) {
      channel->Send(kGossipFrameType, encoded);
      counters_.gossip_sent.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Gossip rounds are component-scoped (no client connection), so they carry
  // a synthetic per-replica trace id and bypass sampling.
  RecordSpanUnsampled(tracer_, trace_ring_, static_cast<uint64_t>(fe_id_) << 48, 0,
                      SpanKind::kGossip, static_cast<int32_t>(fe_id_), tick_start_us,
                      TraceNowUs() - tick_start_us, "seq=%llu hints=%zu peers=%zu",
                      static_cast<unsigned long long>(gossip_seq_), hint_count,
                      fe_peers_.size());
  UpdateMeshSnapshot();
  loop_->ScheduleAfterMs(std::max<int64_t>(config_.gossip_interval_ms, 1),
                         alive_.Guard([this]() { GossipTick(); }));
}

void FrontEnd::UpdateMeshSnapshot() {
  const int64_t now_us = NowMs() * 1000;
  std::ostringstream out;
  out << "{\"fe_id\":" << fe_id_ << ",\"port\":" << port()
      << ",\"membership_epoch\":" << dispatcher_->membership_epoch()
      << ",\"gossip_seq\":" << gossip_seq_ << ",\"deltas_sent\":"
      << counters_.gossip_sent.load(std::memory_order_relaxed)
      << ",\"deltas_applied\":" << counters_.gossip_applied.load(std::memory_order_relaxed)
      << ",\"stale_drops\":" << mesh_->stale_drops()
      << ",\"epoch_regressions\":" << mesh_->epoch_regressions()
      << ",\"gossip_lag_ms\":" << mesh_->OldestPeerAgeUs(now_us) / 1000 << ",\"peers\":[";
  bool first = true;
  for (const MeshStateTable::PeerInfo& peer : mesh_->Peers()) {
    out << (first ? "" : ",") << "{\"fe_id\":" << peer.fe_id << ",\"seq\":" << peer.seq
        << ",\"membership_epoch\":" << peer.membership_epoch
        << ",\"lag_ms\":" << (now_us - peer.last_update_us) / 1000
        << ",\"remote_load\":" << peer.total_load << "}";
    first = false;
  }
  out << "]}";
  {
    MutexLock lock(&mesh_json_mutex_);
    mesh_json_ = out.str();
  }
  metric_mesh_epoch_->Set(static_cast<double>(dispatcher_->membership_epoch()));
  metric_mesh_lag_ms_->Set(static_cast<double>(mesh_->OldestPeerAgeUs(now_us)) / 1000.0);
  metric_mesh_peers_->Set(static_cast<double>(mesh_->peer_count()));
}

std::string FrontEnd::DescribeMeshJson() const {
  if (mesh_ == nullptr) {
    return "{\"fe_id\":" + std::to_string(fe_id_) + ",\"port\":" + std::to_string(port()) +
           ",\"mesh\":false}";
  }
  MutexLock lock(&mesh_json_mutex_);
  return mesh_json_;
}

// ---------------------------------------------------------------------------
// Telemetry: sampling tick, back-end mirrors, admin snapshots
// ---------------------------------------------------------------------------

void FrontEnd::TelemetryTick() {
  loop_->AssertInLoopThread();  // nodes_, samplers, scratch: loop-0 confined
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const int64_t now = NowMs();
  const int64_t interval = std::max<int64_t>(config_.telemetry_interval_ms, 1);
  const double dt = telemetry_last_ms_ > 0
                        ? static_cast<double>(now - telemetry_last_ms_) / 1000.0
                        : static_cast<double>(interval) / 1000.0;
  telemetry_last_ms_ = now;

  telemetry_scratch_.clear();
  const auto rate = [dt](CounterRateSampler& sampler, const std::atomic<uint64_t>& counter) {
    return sampler.Sample(counter.load(std::memory_order_relaxed), dt);
  };
  telemetry_scratch_.emplace_back(kSConnRate, rate(rate_conns_, counters_.connections_accepted));
  telemetry_scratch_.emplace_back(kSHandoffRate, rate(rate_handoffs_, counters_.handoffs));
  telemetry_scratch_.emplace_back(kSConsultRate, rate(rate_consults_, counters_.consults));
  const double replay_rate = rate(rate_replays_, counters_.replays);
  telemetry_scratch_.emplace_back(kSReplayRate, replay_rate);
  const double giveup_rate = rate(rate_giveups_, counters_.replay_giveups);
  telemetry_scratch_.emplace_back(kSGiveupRate, giveup_rate);
  telemetry_scratch_.emplace_back(kSRejectRate,
                                  rate(rate_rejected_, counters_.rejected_no_backend));

  size_t open_conns = 0;
  (void)DispatcherCountersSnapshot(&open_conns);
  telemetry_scratch_.emplace_back(kSOpenConns, static_cast<double>(open_conns));

  // Membership + load skew (max/mean reported connections over live nodes);
  // skew is meaningful only while the tier actually carries load.
  int active = 0;
  double conn_sum = 0.0;
  double conn_max = 0.0;
  for (NodeId node = 0; node < static_cast<NodeId>(nodes_.size()); ++node) {
    if (!NodeLive(node)) {
      continue;
    }
    ++active;
    const double conns = static_cast<double>(nodes_[static_cast<size_t>(node)].reported_conns);
    conn_sum += conns;
    conn_max = std::max(conn_max, conns);
  }
  telemetry_scratch_.emplace_back(kSActiveNodes, static_cast<double>(active));
  double load_skew = kNaN;
  if (active > 0 && conn_sum > 0.0) {
    load_skew = conn_max / (conn_sum / static_cast<double>(active));
    telemetry_scratch_.emplace_back(kSLoadSkew, load_skew);
  }

  // Loop health: worst wakeup-delay p99 across this replica's loops this
  // window, plus the pending-task depth summed over the loops, read from the
  // instruments each loop holds when profiling is on (none otherwise).
  double wakeup_p99 = kNaN;
  if (wakeup_windows_.size() < static_cast<size_t>(loops_->size())) {
    wakeup_windows_.resize(static_cast<size_t>(loops_->size()));
  }
  double pending = 0.0;
  bool profiled = false;
  for (int k = 0; k < loops_->size(); ++k) {
    const EventLoop* loop = loops_->loop(k);
    if (loop->wakeup_delay_histogram() == nullptr) {
      continue;
    }
    profiled = true;
    const HistogramWindowSampler::Window window =
        wakeup_windows_[static_cast<size_t>(k)].Sample(*loop->wakeup_delay_histogram());
    if (window.count > 0) {
      wakeup_p99 = std::isnan(wakeup_p99) ? window.p99 : std::max(wakeup_p99, window.p99);
    }
    pending += loop->pending_tasks_gauge()->value();
  }
  if (!std::isnan(wakeup_p99)) {
    telemetry_scratch_.emplace_back(kSWakeupP99Us, wakeup_p99);
  }
  if (profiled) {
    telemetry_scratch_.emplace_back(kSPendingTasks, pending);
  }
  const ProcessStats stats = ReadProcessStats();
  process_metrics_->Publish(stats);  // keeps the /metrics gauges fresh too
  telemetry_scratch_.emplace_back(kSRssBytes, stats.rss_bytes);
  telemetry_scratch_.emplace_back(kSOpenFds, stats.open_fds);
  telemetry_scratch_.emplace_back(kSIdleCloseRate,
                                  rate(rate_idle_closes_, counters_.idle_closes));
  telemetry_scratch_.emplace_back(
      kSConnsFeOwned,
      static_cast<double>(conns_fe_owned_.load(std::memory_order_relaxed)));
  telemetry_scratch_.emplace_back(
      kSConnsHandedOff,
      config_.mechanism == Mechanism::kRelayingFrontEnd ? 0.0
                                                        : static_cast<double>(open_conns));

  telemetry_->Append(now, telemetry_scratch_);

  // Watchdog inputs: this tick's own samples plus the freshest mirrored
  // back-end values. Missing inputs (no telemetry rows yet, idle windows)
  // count as clean inside Evaluate().
  std::map<std::string, double> inputs;
  inputs["replay_rate"] = replay_rate;
  inputs["giveup_rate"] = giveup_rate;
  if (!std::isnan(wakeup_p99)) {
    inputs["wakeup_p99_us"] = wakeup_p99;
  }
  if (!std::isnan(load_skew)) {
    inputs["load_skew"] = load_skew;
  }
  {
    MutexLock lock(&telemetry_mutex_);
    double be_p99 = kNaN;
    double be_queue = kNaN;
    for (const auto& [node, store] : node_telemetry_) {
      const double p99 = store->Latest("latency_p99_us");
      if (!std::isnan(p99)) {
        be_p99 = std::isnan(be_p99) ? p99 : std::max(be_p99, p99);
      }
      const double queue = store->Latest("disk_queue");
      if (!std::isnan(queue)) {
        be_queue = std::isnan(be_queue) ? queue : std::max(be_queue, queue);
      }
    }
    if (!std::isnan(be_p99)) {
      inputs["be_p99_latency_us"] = be_p99;
    }
    if (!std::isnan(be_queue)) {
      inputs["be_max_disk_queue"] = be_queue;
    }
  }
  const HealthStatus status = watchdog_->Evaluate(inputs);

  // Refresh the health snapshot (the DescribeMeshJson pattern: rendered on
  // loop 0, swapped under its own mutex for the admin thread).
  std::ostringstream out;
  out << "{\"fe_id\":" << fe_id_ << ",\"status\":\"" << HealthStatusName(status)
      << "\",\"transitions\":" << watchdog_->transitions() << ",\"pressure\":"
      << watchdog_->overload().pressure.load(std::memory_order_relaxed)
      << ",\"interval_ms\":" << interval << ",\"active_nodes\":" << active
      << ",\"reasons\":" << watchdog_->ReasonsJson() << ",\"components\":{";
  const auto emit_latest = [&out](const std::string& name, const TimeSeriesStore& store) {
    out << "\"" << name << "\":{\"last_t_ms\":" << store.last_t_ms();
    for (const std::string& series : store.SeriesNames()) {
      const double value = store.Latest(series);
      if (!std::isnan(value)) {
        out << ",\"" << series << "\":" << value;
      }
    }
    out << "}";
  };
  emit_latest("fe" + std::to_string(fe_id_), *telemetry_);
  {
    MutexLock lock(&telemetry_mutex_);
    for (const auto& [node, store] : node_telemetry_) {
      out << ",";
      emit_latest("be" + std::to_string(node), *store);
    }
  }
  out << "}}";
  {
    MutexLock lock(&health_json_mutex_);
    health_json_ = out.str();
  }

  loop_->ScheduleAfterMs(interval, alive_.Guard([this]() { TelemetryTick(); }));
}

TimeSeriesStore* FrontEnd::NodeTelemetry(NodeId node) {
  MutexLock lock(&telemetry_mutex_);
  std::unique_ptr<TimeSeriesStore>& slot = node_telemetry_[node];
  if (slot == nullptr) {
    TimeSeriesConfig ts;
    // The rows carry the producer's own timestamps; the interval here only
    // annotates the JSON (the knob is cluster-wide, so ours is its).
    ts.interval_ms = config_.telemetry_interval_ms > 0
                         ? static_cast<int>(config_.telemetry_interval_ms)
                         : 1000;
    slot = std::make_unique<TimeSeriesStore>(ts);
  }
  return slot.get();
}

std::string FrontEnd::DescribeTimeSeriesJson(const std::string& metric,
                                             const std::string& component, int64_t window_ms,
                                             bool include_nodes) const {
  std::ostringstream out;
  bool first = true;
  const std::string self_name = "fe" + std::to_string(fe_id_);
  if (telemetry_ != nullptr && (component.empty() || component == self_name)) {
    out << "\"" << self_name << "\":" << telemetry_->RenderJson(metric, window_ms);
    first = false;
  }
  if (include_nodes) {
    MutexLock lock(&telemetry_mutex_);
    for (const auto& [node, store] : node_telemetry_) {
      const std::string name = "be" + std::to_string(node);
      if (!component.empty() && component != name) {
        continue;
      }
      out << (first ? "" : ",") << "\"" << name << "\":" << store->RenderJson(metric, window_ms);
      first = false;
    }
  }
  return out.str();
}

std::string FrontEnd::DescribeHealthJson() const {
  if (watchdog_ == nullptr) {
    return "{}";
  }
  MutexLock lock(&health_json_mutex_);
  // Empty until the first tick fires; callers get a well-formed object.
  return health_json_.empty() ? "{}" : health_json_;
}

void FrontEnd::ScheduleHealthSweep(int64_t period_ms) {
  // The rearm chain is guarded: it dies with the front-end, not the loop.
  loop_->ScheduleAfterMs(period_ms, alive_.Guard([this, period_ms]() {
                           CheckNodeHealth();
                           ScheduleHealthSweep(period_ms);
                         }));
}

void FrontEnd::CheckNodeHealth() {
  MutexLock lock(&state_mutex_);
  const int64_t now = NowMs();
  for (NodeId node = 0; node < static_cast<NodeId>(nodes_.size()); ++node) {
    if (!NodeLive(node)) {
      continue;
    }
    const NodeLink& link = nodes_[static_cast<size_t>(node)];
    if (now - link.last_heartbeat_ms > config_.heartbeat_timeout_ms) {
      RemoveNodeInternal(node, "missed heartbeats");
    }
  }
}

NodeId FrontEnd::AddNode(UniqueFd control_fd, uint16_t backend_http_port, double weight) {
  NodeId node = kInvalidNode;
  {
    MutexLock lock(&state_mutex_);
    node = dispatcher_->AddNode(weight);
    disk_table_->Update(node, 0);
    metric_active_nodes_->Set(dispatcher_->active_node_count());
  }
  AttachControl(node, std::move(control_fd));
  if (config_.mechanism == Mechanism::kRelayingFrontEnd) {
    // Every shard gets its own persistent connection to the new node; the
    // LateralClient must be built (and used) on its owning loop.
    for (auto& shard_ptr : shards_) {
      LoopShard* shard = shard_ptr.get();
      loops_->RunOn(shard->index,
                    alive_.Guard([this, shard, node, backend_http_port]() {
                      shard->loop->AssertInLoopThread();
                      if (static_cast<size_t>(node) >= shard->relays.size()) {
                        shard->relays.resize(static_cast<size_t>(node) + 1);
                      }
                      shard->relays[static_cast<size_t>(node)] =
                          std::make_unique<LateralClient>(shard->loop, backend_http_port,
                                                          config_.lateral_timeout_ms);
                    }));
    }
  }
  LARD_LOG(INFO) << "front-end: node " << node << " joined";
  return node;
}

bool FrontEnd::DrainNode(NodeId node) {
  if (!NodeLive(node)) {
    return false;
  }
  {
    MutexLock lock(&state_mutex_);
    if (!dispatcher_->DrainNode(node)) {
      return false;
    }
    metric_active_nodes_->Set(dispatcher_->active_node_count());
  }
  // Ask the node to give its persistent connections back between batches;
  // they come home as kHandback(target=kInvalidNode) and are re-handed-off.
  nodes_[static_cast<size_t>(node)].control->Send(static_cast<uint8_t>(ControlMsg::kDrain),
                                                  EncodeU32(0));
  LARD_LOG(INFO) << "front-end: node " << node << " draining";
  return true;
}

bool FrontEnd::RemoveNode(NodeId node) {
  MutexLock lock(&state_mutex_);
  if (node < 0 || node >= dispatcher_->num_node_slots()) {
    return false;
  }
  if (retiring_.count(node) != 0) {
    return true;  // removal already in progress
  }
  const NodeState state = dispatcher_->node_state(node);
  // A live node still holding connections retires gracefully: stop new
  // assignments, ask it to give its connections back, and hard-remove once
  // they have migrated (or the grace period expires). Everything else — dead
  // or silent nodes, empty nodes, the last assignable node (nowhere to
  // migrate) — is removed immediately.
  const bool can_retire =
      config_.retire_grace_ms > 0 && NodeLive(node) && state != NodeState::kDead &&
      dispatcher_->ConnectionCountOn(node) > 0 &&
      dispatcher_->active_node_count() > (state == NodeState::kActive ? 1 : 0);
  if (!can_retire) {
    return RemoveNodeInternal(node, "admin remove");
  }
  if (state == NodeState::kActive) {
    (void)dispatcher_->DrainNode(node);
    metric_active_nodes_->Set(dispatcher_->active_node_count());
  }
  retiring_.insert(node);
  nodes_[static_cast<size_t>(node)].control->Send(static_cast<uint8_t>(ControlMsg::kDrain),
                                                  EncodeU32(0));
  loop_->ScheduleAfterMs(config_.retire_grace_ms, alive_.Guard([this, node]() {
                           MutexLock lock(&state_mutex_);
                           if (retiring_.count(node) != 0) {
                             RemoveNodeInternal(node, "retire grace expired");
                           }
                         }));
  LARD_LOG(INFO) << "front-end: node " << node << " retiring ("
                 << dispatcher_->ConnectionCountOn(node) << " connections to migrate)";
  return true;
}

bool FrontEnd::RemoveNodeInternal(NodeId node, const char* reason) {
  if (node < 0 || node >= dispatcher_->num_node_slots()) {
    return false;
  }
  // Admin-initiated removals (including retire completion/expiry) are not
  // detected failures.
  const bool detected_failure = std::strcmp(reason, "admin remove") != 0 &&
                                std::strcmp(reason, "retired") != 0 &&
                                std::strcmp(reason, "retire grace expired") != 0;
  NodeLink* link =
      static_cast<size_t>(node) < nodes_.size() ? &nodes_[static_cast<size_t>(node)] : nullptr;
  // Single failure epoch per node: heartbeat loss and control-session EOF
  // can both fire for one dead node (the EOF arrives as a deferred post);
  // the second detection must be a no-op so orphans are never reassigned or
  // replayed twice.
  if (detected_failure && link != nullptr && link->failure_epoch != 0) {
    return false;
  }
  retiring_.erase(node);
  std::vector<ConnId> orphans;
  const bool dispatcher_removed = dispatcher_->RemoveNode(node, &orphans);
  const bool had_channel = link != nullptr && link->control != nullptr;
  if (!dispatcher_removed && !had_channel) {
    return false;  // already fully removed
  }
  if (detected_failure && link != nullptr) {
    link->failure_epoch = next_failure_epoch_++;
  }
  for (const ConnId conn : orphans) {
    live_in_dispatcher_.erase(conn);
  }
  if (had_channel) {
    link->control.reset();  // closes the session; the back-end sees EOF
  }
  // The failure-replay pass: with the dead channel gone and the node marked
  // dead in the dispatcher, each orphaned connection either continues on a
  // survivor (journal tail replayed over kReplay) or fails cleanly. A
  // connection currently being placed by an outer PickLiveNode is left to
  // that caller.
  uint64_t replayed = 0;
  for (const ConnId conn : orphans) {
    if (conn == placement_in_progress_) {
      continue;
    }
    if (detected_failure) {
      TryReplayOrphan(conn, node);
    }
    if (live_in_dispatcher_.count(conn) == 0) {
      // Not resurrected: release the retained dup so the client sees the
      // connection actually close.
      journal_.Drop(conn);
    } else {
      ++replayed;
    }
  }
  if (detected_failure) {
    counters_.auto_removals.fetch_add(1, std::memory_order_relaxed);
  }
  metric_active_nodes_->Set(dispatcher_->active_node_count());
  LARD_LOG(WARNING) << "front-end: node " << node << " removed (" << reason << "), "
                    << orphans.size() << " connections orphaned, " << replayed
                    << " replayed onto survivors, " << dispatcher_->active_node_count()
                    << " active nodes remain";
  if (on_node_removed_) {
    on_node_removed_(node);
  }
  return true;
}

void FrontEnd::MaybeFinalizeRetire(NodeId node) {
  if (retiring_.count(node) == 0 || dispatcher_->ConnectionCountOn(node) > 0) {
    return;
  }
  RemoveNodeInternal(node, "retired");
}

void FrontEnd::SetPolicy(Policy policy) {
  MutexLock lock(&state_mutex_);
  dispatcher_->SetPolicy(policy);
  LARD_LOG(INFO) << "front-end: policy switched to " << PolicyName(policy);
}

Policy FrontEnd::policy() const {
  MutexLock lock(&state_mutex_);
  return dispatcher_->policy();
}

DispatcherCounters FrontEnd::DispatcherCountersSnapshot(size_t* open_connections) const {
  MutexLock lock(&state_mutex_);
  if (open_connections != nullptr) {
    *open_connections = dispatcher_->open_connections();
  }
  return dispatcher_->counters();
}

int64_t FrontEnd::open_conns_handed_off() const {
  // Relaying keeps every dispatcher-tracked connection shard-owned; in the
  // handoff mechanisms the dispatcher's open set IS the handed-off set (the
  // shard-owned pre-handoff window registers only inside HandoffFlow's own
  // lock scope, invisible here).
  if (config_.mechanism == Mechanism::kRelayingFrontEnd) {
    return 0;
  }
  MutexLock lock(&state_mutex_);
  return static_cast<int64_t>(dispatcher_->open_connections());
}

std::string FrontEnd::DescribeNodesJson() const {
  MutexLock lock(&state_mutex_);
  const int64_t now = NowMs();
  std::ostringstream out;
  out << "{\"policy\":\"" << PolicyName(dispatcher_->policy()) << "\",\"policy_key\":\""
      << PolicyKey(dispatcher_->policy()) << "\",\"mechanism\":\""
      << MechanismName(config_.mechanism) << "\",\"active_nodes\":"
      << dispatcher_->active_node_count()
      << ",\"replay_enabled\":" << (ReplayEligible() ? "true" : "false")
      << ",\"replays_total\":" << counters_.replays.load(std::memory_order_relaxed)
      << ",\"replay_giveups_total\":"
      << counters_.replay_giveups.load(std::memory_order_relaxed)
      << ",\"journaled_connections\":" << journal_.tracked_connections()
      << ",\"journal_overflows\":" << journal_.overflows() << ",\"nodes\":[";
  for (NodeId node = 0; node < dispatcher_->num_node_slots(); ++node) {
    if (node > 0) {
      out << ",";
    }
    const NodeState state = dispatcher_->node_state(node);
    out << "{\"id\":" << node << ",\"state\":\"" << NodeStateName(state) << "\"";
    out << ",\"load\":" << dispatcher_->NodeLoad(node);
    out << ",\"weight\":" << dispatcher_->NodeWeight(node);
    out << ",\"normalized_load\":" << dispatcher_->NormalizedNodeLoad(node);
    out << ",\"vcache_bytes\":" << dispatcher_->VirtualCacheBytes(node);
    if (static_cast<size_t>(node) < nodes_.size()) {
      const NodeLink& link = nodes_[static_cast<size_t>(node)];
      out << ",\"connections\":" << link.reported_conns;
      out << ",\"heartbeat_seq\":" << link.heartbeat_seq;
      // -1 until the first real heartbeat arrives (a joined-but-silent node
      // must not report a bogus age) and for dead nodes.
      out << ",\"heartbeat_age_ms\":"
          << (state == NodeState::kDead || !link.heartbeat_seen
                  ? -1
                  : now - link.last_heartbeat_ms);
      // 0 = never failed; otherwise the (monotone) epoch stamped when this
      // node's death was detected and its orphans were replayed or shed.
      out << ",\"failure_epoch\":" << link.failure_epoch;
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

void FrontEnd::ConnectBackends(const std::vector<uint16_t>& backend_http_ports) {
  LARD_CHECK(backend_http_ports.size() >= static_cast<size_t>(config_.num_nodes));
  // Each shard keeps its own persistent back-end connections: LateralClient
  // is single-loop, and relay responses must complete on the loop the client
  // connection is pinned to.
  for (auto& shard_ptr : shards_) {
    LoopShard* shard = shard_ptr.get();
    shard->loop->AssertInLoopThread();
    shard->relays.clear();
    for (const uint16_t http_port : backend_http_ports) {
      shard->relays.push_back(
          std::make_unique<LateralClient>(shard->loop, http_port, config_.lateral_timeout_ms));
    }
  }
}

void FrontEnd::OnAccept(LoopShard* shard, uint32_t) {
  shard->loop->AssertInLoopThread();
  const int error = AcceptAll(shard->listener.get(), [this, shard](UniqueFd client) {
    (void)SetTcpNoDelay(client.get());
    AdoptClientFd(shard, std::move(client));
  });
  if (error != 0) {
    LARD_LOG(ERROR) << "front-end accept: " << std::strerror(error);
  }
}

void FrontEnd::AdoptClientFd(LoopShard* shard, UniqueFd fd) {
  shard->loop->AssertInLoopThread();
  bool shed = false;
  {
    MutexLock lock(&state_mutex_);
    shed = dispatcher_->active_node_count() == 0;
  }
  if (shed) {
    // Every back-end drained or dead: shed load at the door. Counted first,
    // so a client that has read the 503 and EOF sees the count.
    counters_.rejected_no_backend.fetch_add(1, std::memory_order_relaxed);
    ShedSocket(fd.get(), 503);
    return;
  }

  counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);

  auto conn = std::make_unique<FeConn>();
  FeConn* raw = conn.get();
  raw->id = ++shard->next_conn_id;
  raw->shard = shard;
  const int raw_fd = fd.get();
  raw->conn = std::make_unique<Connection>(shard->loop, std::move(fd));
  // Callbacks are pinned: they resolve the connection through the owning
  // shard's table, which only the shard's loop thread touches. The loop-id
  // check is the pinning invariant the churn tests assert on.
  raw->conn->set_on_data([this, shard, id = raw->id](std::string_view data) {
    if (!shard->loop->IsInLoopThread()) {
      pinning_violations_.fetch_add(1, std::memory_order_relaxed);
    }
    auto it = shard->conns.find(id);
    if (it != shard->conns.end()) {
      OnClientData(it->second.get(), data);
    }
  });
  raw->conn->set_on_close([this, shard, id = raw->id]() {
    if (!shard->loop->IsInLoopThread()) {
      pinning_violations_.fetch_add(1, std::memory_order_relaxed);
    }
    auto it = shard->conns.find(id);
    if (it != shard->conns.end()) {
      OnClientClosed(it->second.get());
    }
  });
  raw->conn->Start();
  RecordSpan(tracer_, shard->trace_ring, raw->id, 0, SpanKind::kAccept,
             static_cast<int32_t>(fe_id_), TraceNowUs(), 0, "fd=%d", raw_fd);
  shard->conns.emplace(raw->id, std::move(conn));
  conns_fe_owned_.fetch_add(1, std::memory_order_relaxed);
  ArmIdleTimer(raw);

  if (config_.mechanism == Mechanism::kRelayingFrontEnd) {
    raw->in_dispatcher = true;
    MutexLock lock(&state_mutex_);
    live_in_dispatcher_.insert(raw->id);
    dispatcher_->OnConnectionOpen(raw->id);
  }
}

void FrontEnd::OnClientData(FeConn* conn, std::string_view data) {
  conn->shard->loop->AssertInLoopThread();
  if (conn->closed) {
    return;
  }
  TouchIdleTimer(conn);
  ReserveRounded(&conn->raw_bytes, conn->raw_bytes.size() + data.size());
  conn->raw_bytes.append(data.data(), data.size());
  std::vector<HttpRequest>& requests = conn->shard->read_batch;
  if (conn->parser.Feed(data, &requests) == RequestParser::State::kError) {
    ClearKeeping(&requests, RequestParser::kKeepBatchRequests);
    conn->conn->Write("HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\n\r\n");
    conn->conn->CloseAfterFlush();
    DestroyConn(conn);
    return;
  }
  if (requests.empty()) {
    return;
  }
  if (config_.mechanism == Mechanism::kRelayingFrontEnd) {
    RelayFlow(conn, requests);
  } else {
    HandoffFlow(conn, requests);
  }
  ClearKeeping(&requests, RequestParser::kKeepBatchRequests);
}

std::vector<TargetId> FrontEnd::PathsToTargets(const std::vector<std::string>& paths) const {
  std::vector<TargetId> targets;
  ReserveRounded(&targets, paths.size());
  for (const auto& path : paths) {
    targets.push_back(catalog_->Find(path));
  }
  return targets;
}

RequestDirective FrontEnd::DirectiveFor(const std::string& path,
                                        const Assignment& assignment) const {
  RequestDirective directive;
  directive.cache_after_miss = assignment.cache_after_miss;
  if (assignment.action == AssignmentAction::kForward) {
    directive.action = DirectiveAction::kLateral;
    directive.path = TagPathForNode(path, assignment.node);
  } else if (assignment.action == AssignmentAction::kMigrate) {
    directive.action = DirectiveAction::kMigrate;
    directive.node = assignment.node;
    directive.path = path;
  } else {
    directive.path = path;
  }
  return directive;
}

void FrontEnd::HandoffFlow(FeConn* conn, const std::vector<HttpRequest>& requests) {
  conn->shard->loop->AssertInLoopThread();
  // The first batch: every complete request that arrived before we decided.
  std::vector<std::string> paths;
  paths.reserve(requests.size());
  for (const auto& request : requests) {
    paths.push_back(request.path);
  }

  // Sampling verdict once per connection; the detail strings (notably the
  // load snapshot) are only built for sampled traces.
  const bool traced = tracer_ != nullptr && tracer_->Sampled(conn->id);
  if (traced) {
    RecordSpan(tracer_, conn->shard->trace_ring, conn->id, 1, SpanKind::kParse,
               static_cast<int32_t>(fe_id_), TraceNowUs(), 0, "reqs=%zu bytes=%zu",
               requests.size(), conn->raw_bytes.size());
  }

  // One lock block for the whole routing decision: the no-capacity check and
  // the batch must see the same membership (a node death between them would
  // feed OnBatch an empty pick set and abort the pick loops).
  PendingHandoff pending;
  bool shed = false;
  {
    MutexLock lock(&state_mutex_);
    if (dispatcher_->active_node_count() == 0) {
      // The whole membership can vanish between accept and first data (e.g.
      // the last back-end was just auto-removed); shed instead of crashing.
      shed = true;
    } else {
      dispatcher_->OnConnectionOpen(conn->id);
      live_in_dispatcher_.insert(conn->id);
      const std::vector<TargetId> targets = PathsToTargets(paths);
      const int64_t policy_start_us = traced ? TraceNowUs() : 0;
      const std::vector<Assignment> assignments = dispatcher_->OnBatch(conn->id, targets);
      if (traced) {
        RecordSpan(tracer_, conn->shard->trace_ring, conn->id, 2, SpanKind::kPolicy,
                   assignments.empty() ? -1 : assignments[0].node, policy_start_us,
                   TraceNowUs() - policy_start_us, "policy=%s loads=%s",
                   PolicyKey(dispatcher_->policy()),
                   dispatcher_->DescribeLoads().c_str());
      }
      RecordFetchHints(targets, assignments);
      if (assignments.empty()) {
        // Defensive only (OnBatch returns one assignment per request): if the
        // dispatcher ever returns nothing, shed like the other no-capacity
        // paths instead of aborting the front-end.
        live_in_dispatcher_.erase(conn->id);
        dispatcher_->OnConnectionClose(conn->id);
        shed = true;
      } else {
        LARD_CHECK(assignments[0].action == AssignmentAction::kHandoff);
        pending.node = assignments[0].node;
        pending.msg.autonomous = AutonomousHandoffs();
        pending.msg.directives.reserve(assignments.size());
        for (size_t i = 0; i < assignments.size(); ++i) {
          pending.msg.directives.push_back(DirectiveFor(paths[i], assignments[i]));
        }
      }
    }
  }
  if (shed) {
    conn->conn->Write(kUnavailableReply);
    conn->conn->CloseAfterFlush();
    counters_.rejected_no_backend.fetch_add(1, std::memory_order_relaxed);
    DestroyConn(conn);
    return;
  }

  pending.msg.conn_id = conn->id;
  pending.msg.replay_protected = ReplayEligible();
  // Ship the whole byte stream we saw; the back-end re-parses it and pairs
  // requests with our directives 1:1 (the paper's "copy of request packets to
  // the dispatcher" in reverse).
  pending.msg.unparsed_input = std::move(conn->raw_bytes);
  pending.traced = traced;
  pending.trace_ring = conn->shard->trace_ring;
  pending.request_count = requests.size();

  UniqueFd client_fd = conn->conn->Detach();
  if (pending.msg.replay_protected) {
    // Retain a dup of the client socket: if the handling node later dies
    // without handing the connection back, this is the handle that lets a
    // surviving node continue the very same TCP connection. The journal's
    // first entries are the batch we parsed here. The dup and the entry
    // construction happen here on the owning loop; the journal itself is
    // loop-0 state and is written in CompleteHandoff.
    pending.retained_fd = UniqueFd(::fcntl(client_fd.get(), F_DUPFD_CLOEXEC, 3));
    if (pending.retained_fd.valid()) {
      pending.journal_entries.reserve(requests.size());
      for (const HttpRequest& request : requests) {
        ReplayJournal::Entry entry;
        entry.bytes = request.Serialize();
        entry.method = request.method;
        entry.path = request.path;
        entry.idempotent = IsIdempotent(request.method);
        pending.journal_entries.push_back(std::move(entry));
      }
      // The unparsed suffix of batch 1 (a request still incomplete) ships in
      // the handoff and must survive a crash of the adopting node too.
      pending.partial_tail = conn->parser.buffered();
    }
  }
  pending.client_fd = std::move(client_fd);

  // Dispatcher state for this connection now lives on; our socket plumbing
  // does not. (Deferred: we are inside this Connection's on_data callback.)
  // Idleness is the adopting back-end's concern from here (its idle_close_ms
  // sweep), so the shard-side deadline stands down.
  if (conn->idle_timer != 0) {
    conn->shard->loop->CancelTimer(conn->idle_timer);
    conn->idle_timer = 0;
  }
  conn->closed = true;
  conns_fe_owned_.fetch_sub(1, std::memory_order_relaxed);
  LoopShard* shard = conn->shard;
  shard->loop->Post(alive_.Guard([shard, id = conn->id]() { shard->conns.erase(id); }));

  // The loop-0-owned half: journal writes and the control-session send.
  if (loop_->IsInLoopThread()) {
    CompleteHandoff(std::move(pending));
  } else {
    auto boxed = std::make_shared<PendingHandoff>(std::move(pending));
    loop_->Post(alive_.Guard([this, boxed]() { CompleteHandoff(std::move(*boxed)); }));
  }
}

void FrontEnd::CompleteHandoff(PendingHandoff pending) {
  loop_->AssertInLoopThread();  // journal_ and nodes_ are loop-0 confined
  if (!NodeLive(pending.node)) {
    // The shard's pick raced a node death loop 0 processed first. Unwind the
    // dispatcher state and shed with a best-effort 503 on the raw socket —
    // nothing was ever written to this client, so the payload is clean.
    {
      MutexLock lock(&state_mutex_);
      if (live_in_dispatcher_.erase(pending.msg.conn_id) > 0) {
        dispatcher_->OnConnectionClose(pending.msg.conn_id);
      }
    }
    counters_.rejected_no_backend.fetch_add(1, std::memory_order_relaxed);
    if (pending.client_fd.valid()) {
      ShedSocket(pending.client_fd.get(), 503);
    }
    return;  // fds RAII-close
  }

  if (pending.msg.replay_protected && pending.retained_fd.valid()) {
    const ConnId conn = pending.msg.conn_id;
    journal_.Track(conn, std::move(pending.retained_fd));
    for (ReplayJournal::Entry& entry : pending.journal_entries) {
      journal_.Append(conn, std::move(entry));
    }
    journal_.SetPartialTail(conn, std::move(pending.partial_tail));
  }

  NodeLink& link = nodes_[static_cast<size_t>(pending.node)];
  link.control->SendWithFd(static_cast<uint8_t>(ControlMsg::kHandoff),
                           EncodeHandoff(pending.msg), std::move(pending.client_fd));
  if (pending.traced) {
    RecordSpan(tracer_, pending.trace_ring, pending.msg.conn_id, 3, SpanKind::kHandoff,
               pending.node, TraceNowUs(), 0, "reqs=%zu journal=%d", pending.request_count,
               pending.msg.replay_protected ? 1 : 0);
  }
  counters_.handoffs.fetch_add(1, std::memory_order_relaxed);
  link.handoff_counter->Increment();
}

void FrontEnd::RelayFlow(FeConn* conn, std::vector<HttpRequest>& requests) {
  conn->shard->loop->AssertInLoopThread();
  bool shed = false;
  {
    MutexLock lock(&state_mutex_);
    if (dispatcher_->active_node_count() == 0) {
      shed = true;
    } else {
      std::vector<std::string> paths;
      paths.reserve(requests.size());
      for (const auto& request : requests) {
        paths.push_back(request.path);
      }
      const std::vector<Assignment> assignments =
          dispatcher_->OnBatch(conn->id, PathsToTargets(paths));
      if (!assignments.empty() && conn->relay_queue == nullptr) {
        conn->relay_queue = std::make_unique<std::deque<std::pair<HttpRequest, NodeId>>>();
      }
      for (size_t i = 0; i < assignments.size(); ++i) {
        LARD_CHECK(assignments[i].action == AssignmentAction::kRelay);
        conn->relay_queue->emplace_back(std::move(requests[i]), assignments[i].node);
      }
    }
  }
  if (shed) {
    conn->conn->Write(kUnavailableReply);
    conn->conn->CloseAfterFlush();
    counters_.rejected_no_backend.fetch_add(1, std::memory_order_relaxed);
    DestroyConn(conn);
    return;
  }
  ProcessNextRelay(conn->shard, conn->id);
}

void FrontEnd::ProcessNextRelay(LoopShard* shard, ConnId id) {
  shard->loop->AssertInLoopThread();
  auto it = shard->conns.find(id);
  if (it == shard->conns.end()) {
    return;
  }
  FeConn* conn = it->second.get();
  const bool queue_empty = conn->relay_queue == nullptr || conn->relay_queue->empty();
  if (conn->serving || conn->closed || queue_empty) {
    if (!conn->serving && !conn->closed && queue_empty) {
      MutexLock lock(&state_mutex_);
      if (live_in_dispatcher_.count(id) != 0) {
        dispatcher_->OnConnectionIdle(id);
      }
    }
    return;
  }
  auto [request, node] = std::move(conn->relay_queue->front());
  conn->relay_queue->pop_front();
  conn->serving = true;
  counters_.relayed_requests.fetch_add(1, std::memory_order_relaxed);

  LARD_CHECK(!shard->relays.empty()) << "relay mode requires ConnectBackends()";
  LARD_CHECK(static_cast<size_t>(node) < shard->relays.size() &&
             shard->relays[static_cast<size_t>(node)] != nullptr)
      << "no relay route to node " << node;
  // Cut-through, as on the back end: the head is queued when the back end's
  // head arrives and each run of body bytes is passed on as it is read.
  struct RelayState {
    HttpRequest request;
    bool head_seen = false;
  };
  auto relay = std::make_shared<RelayState>();
  relay->request = std::move(request);
  // The client connection this relay serves, or null once it went away.
  const auto find = [this, shard, id]() -> FeConn* {
    if (!shard->loop->IsInLoopThread()) {
      pinning_violations_.fetch_add(1, std::memory_order_relaxed);
    }
    auto it = shard->conns.find(id);
    if (it == shard->conns.end() || it->second->closed || !it->second->conn->open()) {
      return nullptr;
    }
    return it->second.get();
  };
  // The head this front end sends for a back end's status and length.
  const auto head = [relay](int status, uint64_t length) {
    HttpResponse response;
    response.version = relay->request.version;
    response.status = status;
    response.reason = ReasonPhrase(status);
    if (!relay->request.KeepAlive()) {
      response.headers.Add("Connection", "close");
    }
    return response.SerializeHead(length);
  };
  LateralClient::FetchHandler handler;
  handler.on_head = [relay, find, head](int status, uint64_t length) {
    relay->head_seen = true;
    if (FeConn* conn = find()) {
      conn->conn->Queue(head(status, length));
    }
  };
  handler.on_body = [find](std::string_view bytes) {
    if (FeConn* conn = find()) {
      conn->conn->Write(bytes);
    }
  };
  handler.on_end = [this, shard, id, relay, find, head](bool ok) {
    FeConn* conn = find();
    if (conn == nullptr) {
      return;
    }
    if (!ok && relay->head_seen) {
      // Cut mid-body: a short response followed by the next one would
      // desynchronize the client, so close it instead.
      conn->conn->Close();
      DestroyConn(conn);
      return;
    }
    if (!ok) {
      conn->conn->Queue(head(503, 0));  // the back end never answered
    }
    conn->conn->Flush();
    conn->serving = false;
    TouchIdleTimer(conn);  // bytes out: the keep-alive window restarts
    if (!relay->request.KeepAlive()) {
      conn->conn->CloseAfterFlush();
      DestroyConn(conn);
      return;
    }
    ProcessNextRelay(shard, id);
  };
  shard->relays[static_cast<size_t>(node)]->Fetch(relay->request.path, std::move(handler));
}

void FrontEnd::OnClientClosed(FeConn* conn) { DestroyConn(conn); }

void FrontEnd::DestroyConn(FeConn* conn) {
  conn->shard->loop->AssertInLoopThread();
  if (conn->closed) {
    return;
  }
  conn->closed = true;
  conns_fe_owned_.fetch_sub(1, std::memory_order_relaxed);
  if (conn->idle_timer != 0) {
    conn->shard->loop->CancelTimer(conn->idle_timer);
    conn->idle_timer = 0;
  }
  if (conn->in_dispatcher) {
    MutexLock lock(&state_mutex_);
    if (live_in_dispatcher_.erase(conn->id) > 0) {
      dispatcher_->OnConnectionClose(conn->id);
    }
  }
  LoopShard* shard = conn->shard;
  shard->loop->Post(alive_.Guard([shard, id = conn->id]() { shard->conns.erase(id); }));
}

void FrontEnd::ArmIdleTimer(FeConn* conn) {
  conn->shard->loop->AssertInLoopThread();
  const int64_t timeout = idle_timeout_ms();
  if (timeout <= 0) {
    return;  // reaper disabled
  }
  conn->last_activity_ms = NowMs();
  LoopShard* shard = conn->shard;
  conn->idle_timer = shard->loop->ScheduleAfterMs(
      timeout, alive_.Guard([this, shard, id = conn->id]() { OnIdleDeadline(shard, id); }));
}

void FrontEnd::TouchIdleTimer(FeConn* conn) {
  conn->last_activity_ms = NowMs();
  if (conn->idle_timer == 0) {
    ArmIdleTimer(conn);  // the reaper was off at the last arm or deadline
  }
}

void FrontEnd::OnIdleDeadline(LoopShard* shard, ConnId id) {
  shard->loop->AssertInLoopThread();
  auto it = shard->conns.find(id);
  if (it == shard->conns.end()) {
    return;
  }
  FeConn* conn = it->second.get();
  conn->idle_timer = 0;  // this firing consumed the id
  if (conn->closed) {
    return;
  }
  const int64_t timeout = idle_timeout_ms();
  if (timeout <= 0) {
    return;  // reaping turned off while armed
  }
  const int64_t idle_for = NowMs() - conn->last_activity_ms;
  const int64_t remaining = conn->serving ? timeout : timeout - idle_for;
  if (remaining > 0) {
    // Activity since the arm, or a relayed response still in flight: push
    // the deadline out.
    conn->idle_timer = shard->loop->ScheduleAfterMs(
        remaining, alive_.Guard([this, shard, id]() { OnIdleDeadline(shard, id); }));
    return;
  }
  counters_.idle_closes.fetch_add(1, std::memory_order_relaxed);
  RecordSpan(tracer_, shard->trace_ring, id, 8, SpanKind::kClose,
             static_cast<int32_t>(fe_id_), TraceNowUs(), 0, "idle after=%lldms",
             static_cast<long long>(idle_for));
  // Reap first, so the connection is accounted closed before its client
  // can see the EOF (the FeConn itself is erased on a posted task).
  DestroyConn(conn);
  conn->conn->CloseAfterFlush();
}

void FrontEnd::OnControlMessage(NodeId node, uint8_t type, std::string_view payload, UniqueFd fd) {
  loop_->AssertInLoopThread();  // nodes_, journal_, retire timers: loop 0
  MutexLock lock(&state_mutex_);
  NodeLink& link = nodes_[static_cast<size_t>(node)];
  // Any control-session traffic proves the node alive.
  link.last_heartbeat_ms = NowMs();
  switch (static_cast<ControlMsg>(type)) {
    case ControlMsg::kHandback: {
      // A back-end flushed and detached the connection. Two flavours:
      //   * migration (multiple handoff): relay to the named target as a
      //     fresh non-autonomous handoff carrying the unserved replay;
      //   * giveback (target kInvalidNode, or the named target died in
      //     flight): ask the dispatcher to *reassign* the connection and
      //     re-handoff it — the drain/failure reverse-handoff path.
      HandbackMsg msg;
      if (!DecodeHandback(payload, &msg) || !fd.valid() ||
          msg.target_node >= dispatcher_->num_node_slots() ||
          (msg.target_node < 0 && msg.target_node != kInvalidNode)) {
        LARD_LOG(ERROR) << "front-end: bad handback from node " << node;
        return;
      }
      bool resurrected = false;
      if (live_in_dispatcher_.count(msg.conn_id) == 0) {
        if (dispatcher_->HandlingNode(msg.conn_id) != kInvalidNode) {
          journal_.Drop(msg.conn_id);
          return;  // connection closed in flight; drop the fd (RAII closes it)
        }
        // Failure re-handoff: the dispatcher orphaned this connection when
        // its handling (or migration-target) node was removed, but the
        // socket survived the trip back. Resurrect it as a fresh dispatcher
        // connection and reassign instead of dropping the client.
        dispatcher_->OnConnectionOpen(msg.conn_id);
        live_in_dispatcher_.insert(msg.conn_id);
        resurrected = true;
      }
      // The connection changes nodes with everything flushed: the journal
      // restarts from exactly the requests the handback replays.
      RebuildJournalFromHandback(msg.conn_id, msg);
      if (!resurrected && msg.target_node != kInvalidNode && NodeLive(msg.target_node)) {
        HandoffMsg handoff;
        handoff.conn_id = msg.conn_id;
        handoff.autonomous = false;
        handoff.replay_protected = journal_.Tracks(msg.conn_id);
        handoff.directives = std::move(msg.directives);
        handoff.unparsed_input = std::move(msg.replay_input);
        nodes_[static_cast<size_t>(msg.target_node)].control->SendWithFd(
            static_cast<uint8_t>(ControlMsg::kHandoff), EncodeHandoff(handoff), std::move(fd));
        counters_.migrations.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      RehandoffConnection(node, std::move(msg), std::move(fd));
      return;
    }
    case ControlMsg::kReplayAck: {
      ReplayAckMsg msg;
      if (!DecodeReplayAck(payload, &msg)) {
        LARD_LOG(ERROR) << "front-end: bad replay ack from node " << node;
        return;
      }
      journal_.Ack(msg.conn_id, msg.completed, msg.partial_bytes);
      return;
    }
    case ControlMsg::kJournalAppend: {
      JournalAppendMsg msg;
      if (!DecodeJournalAppend(payload, &msg)) {
        LARD_LOG(ERROR) << "front-end: bad journal append from node " << node;
        return;
      }
      RecordSpan(tracer_, trace_ring_, msg.conn_id, 5, SpanKind::kJournal, node, TraceNowUs(), 0,
                 "%s %s", msg.method.c_str(), msg.path.c_str());
      ReplayJournal::Entry entry;
      entry.bytes = std::move(msg.request_bytes);
      entry.idempotent = IsIdempotent(msg.method);
      entry.method = std::move(msg.method);
      entry.path = std::move(msg.path);
      journal_.Append(msg.conn_id, std::move(entry));
      return;
    }
    case ControlMsg::kJournalTail: {
      JournalTailMsg msg;
      if (!DecodeJournalTail(payload, &msg)) {
        LARD_LOG(ERROR) << "front-end: bad journal tail from node " << node;
        return;
      }
      journal_.SetPartialTail(msg.conn_id, std::move(msg.buffered));
      return;
    }
    case ControlMsg::kConsult: {
      ConsultMsg msg;
      if (!DecodeConsult(payload, &msg)) {
        LARD_LOG(ERROR) << "front-end: bad consult from node " << node;
        return;
      }
      HandleConsult(node, msg);
      return;
    }
    case ControlMsg::kIdle: {
      uint64_t conn_id = 0;
      if (DecodeU64(payload, &conn_id) && live_in_dispatcher_.count(conn_id) != 0) {
        dispatcher_->OnConnectionIdle(conn_id);
      }
      return;
    }
    case ControlMsg::kConnClosed: {
      uint64_t conn_id = 0;
      if (DecodeU64(payload, &conn_id)) {
        if (live_in_dispatcher_.erase(conn_id) > 0) {
          dispatcher_->OnConnectionClose(conn_id);
        }
        // Release the retained dup: the TCP connection must actually close
        // (FIN) once the back-end lets go.
        journal_.Drop(conn_id);
      }
      if (retiring_.count(node) != 0) {
        // Deferred: finalizing tears down the channel we are called from.
        loop_->Post(alive_.Guard([this, node]() {
          MutexLock relock(&state_mutex_);
          MaybeFinalizeRetire(node);
        }));
      }
      return;
    }
    case ControlMsg::kNodeStatus: {
      NodeStatusMsg msg;
      if (!DecodeNodeStatus(payload, &msg)) {
        LARD_LOG(ERROR) << "front-end: bad node status from node " << node;
        return;
      }
      if (msg.seq < link.heartbeat_seq) {
        LARD_LOG(WARNING) << "front-end: node " << node << " status sequence went backwards ("
                          << link.heartbeat_seq << " -> " << msg.seq << "), node restarted?";
      }
      link.heartbeat_seq = msg.seq;
      link.heartbeat_seen = true;
      link.reported_conns = msg.open_conns;
      disk_table_->Update(node, static_cast<int>(msg.disk_queue_len));
      counters_.heartbeats.fetch_add(1, std::memory_order_relaxed);
      if (msg.samples.empty()) {
        return;
      }
      // A telemetry row: mirror it plus the fixed fields, stamped with the
      // *producer's* clock so the mirrored series stays coherent with the
      // back-end's own timeline.
      TimeSeriesStore* store = NodeTelemetry(node);
      std::vector<std::pair<int, double>> values;
      values.reserve(msg.samples.size() + 2);
      for (const StatusSample& sample : msg.samples) {
        values.emplace_back(store->AddSeries(sample.name), sample.value);
      }
      values.emplace_back(store->AddSeries("disk_queue"), msg.disk_queue_len);
      values.emplace_back(store->AddSeries("open_conns"), msg.open_conns);
      store->Append(msg.t_ms, values);
      return;
    }
    default:
      LARD_LOG(ERROR) << "front-end: unexpected control message type " << static_cast<int>(type)
                      << " from node " << node;
  }
}

NodeId FrontEnd::PickLiveNode(ConnId conn, const std::vector<TargetId>& pending,
                              Dispatcher::ReassignReason reason) {
  // Ask the dispatcher for a fresh placement. A pick whose control session
  // already died (its deferred removal not yet processed) would be offered
  // again on a plain retry — load affinity and the attempt's own cache
  // seeding keep steering back to it — so process that removal *now* and
  // re-pick; each such round removes a node, which bounds the loop.
  const ConnId outer_placement = placement_in_progress_;
  placement_in_progress_ = conn;
  NodeId target = kInvalidNode;
  const int max_attempts = dispatcher_->num_node_slots();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const NodeId pick = dispatcher_->ReassignConnection(conn, pending, reason);
    if (pick == kInvalidNode) {
      break;
    }
    if (NodeLive(pick)) {
      target = pick;
      break;
    }
    // Tearing the stale session down here is safe (the caller's own channel,
    // if any, is live — it just delivered a message). The removal orphans
    // the connection we just parked on the dead pick; resurrect it for the
    // next attempt.
    RemoveNodeInternal(pick, "control session lost");
    if (live_in_dispatcher_.count(conn) == 0) {
      dispatcher_->OnConnectionOpen(conn);
      live_in_dispatcher_.insert(conn);
    }
  }
  placement_in_progress_ = outer_placement;
  return target;
}

void FrontEnd::RehandoffConnection(NodeId from_node, HandbackMsg msg, UniqueFd fd) {
  // Seed the new node's virtual cache with the connection's unserved local
  // targets so affinity-aware policies pick a node that will serve them well.
  std::vector<TargetId> pending;
  for (const RequestDirective& directive : msg.directives) {
    if (directive.action == DirectiveAction::kLocal) {
      pending.push_back(catalog_->Find(directive.path));
    }
  }

  const NodeId target =
      PickLiveNode(msg.conn_id, pending, Dispatcher::ReassignReason::kDrain);
  if (target == kInvalidNode) {
    // No assignable node: shed the client with a best-effort 503 on the raw
    // socket instead of a silent reset.
    if (live_in_dispatcher_.erase(msg.conn_id) > 0) {
      dispatcher_->OnConnectionClose(msg.conn_id);
    }
    journal_.Drop(msg.conn_id);
    counters_.rejected_no_backend.fetch_add(1, std::memory_order_relaxed);
    ShedSocket(fd.get(), 503);
    LARD_LOG(WARNING) << "front-end: no assignable node for given-back connection "
                      << msg.conn_id << ", shedding with 503";
    return;  // fd RAII-closes
  }

  HandoffMsg handoff;
  handoff.conn_id = msg.conn_id;
  handoff.autonomous = AutonomousHandoffs();
  handoff.replay_protected = journal_.Tracks(msg.conn_id);
  handoff.directives = std::move(msg.directives);
  handoff.unparsed_input = std::move(msg.replay_input);
  nodes_[static_cast<size_t>(target)].control->SendWithFd(
      static_cast<uint8_t>(ControlMsg::kHandoff), EncodeHandoff(handoff), std::move(fd));
  RecordSpan(tracer_, trace_ring_, msg.conn_id, 7, SpanKind::kReassign, target, TraceNowUs(), 0,
             "from=%d reason=drain", from_node);
  counters_.rehandoffs.fetch_add(1, std::memory_order_relaxed);
  if (MeshEnabled()) {
    // The reassignment seeded `target`'s virtual cache with the pending
    // targets; tell the peers the same news.
    std::vector<Assignment> seeded(pending.size());
    for (Assignment& assignment : seeded) {
      assignment.node = target;
    }
    RecordFetchHints(pending, seeded);
  }
  nodes_[static_cast<size_t>(target)].handoff_counter->Increment();
  if (retiring_.count(from_node) != 0) {
    // Deferred: finalizing tears down the channel this handback arrived on.
    loop_->Post(alive_.Guard([this, from_node]() {
      MutexLock relock(&state_mutex_);
      MaybeFinalizeRetire(from_node);
    }));
  }
}

void FrontEnd::RebuildJournalFromHandback(ConnId conn, const HandbackMsg& msg) {
  if (!journal_.Tracks(conn)) {
    return;
  }
  RequestParser parser;
  std::vector<HttpRequest> requests;
  if (parser.Feed(msg.replay_input, &requests) == RequestParser::State::kError) {
    journal_.Drop(conn);  // unparseable replay stream: protection off
    return;
  }
  // Only the requests with shipped directives restart the journal here; the
  // consult-dropped remainder re-parses at the new node, which journal-
  // appends them (same order, same channel). The stream's unparsed suffix
  // becomes the partial tail.
  std::vector<ReplayJournal::Entry> entries;
  const size_t count = std::min(requests.size(), msg.directives.size());
  entries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ReplayJournal::Entry entry;
    entry.bytes = requests[i].Serialize();
    entry.method = requests[i].method;
    entry.path = requests[i].path;
    entry.idempotent = IsIdempotent(requests[i].method);
    entries.push_back(std::move(entry));
  }
  // The consult-dropped remainder rides as raw tail bytes until the adopting
  // node's own appends + tail report replace it (same channel, ordered) —
  // otherwise a crash in that window would lose requests only the handback
  // stream ever carried.
  std::string tail;
  for (size_t i = count; i < requests.size(); ++i) {
    tail += requests[i].Serialize();
  }
  tail += parser.buffered();
  journal_.Rebuild(conn, std::move(entries), std::move(tail));
}

void FrontEnd::TryReplayOrphan(ConnId conn, NodeId dead_node) {
  const int64_t replay_start_us = TraceNowUs();
  ReplayJournal::Plan plan = journal_.PlanFor(conn);
  if (!plan.tracked) {
    return;  // unprotected connection (replay off, or the handoff dup failed)
  }
  const int raw_fd = journal_.client_fd(conn);
  const auto give_up = [&](const char* why, int status) {
    RecordSpan(tracer_, trace_ring_, conn, 6, SpanKind::kReassign, dead_node, replay_start_us,
               TraceNowUs() - replay_start_us, "replay-giveup: %s (%d)", why, status);
    counters_.replay_giveups.fetch_add(1, std::memory_order_relaxed);
    // A clean error beats a spliced half-response — but once response bytes
    // already reached the client, injecting anything would corrupt the
    // stream mid-body; closing is the only honest signal then.
    if (!plan.mid_response && raw_fd >= 0) {
      ShedSocket(raw_fd, status);
    }
    if (raw_fd >= 0) {
      // The dead node's fd copies keep the socket open (a crashed process
      // in-process never closes them), so actively FIN the connection —
      // shutdown() acts on the socket, not this dup — instead of leaving
      // the client to its read timeout.
      (void)::shutdown(raw_fd, SHUT_RDWR);
    }
    journal_.Drop(conn);
    LARD_LOG(WARNING) << "front-end: connection " << conn << " lost with node " << dead_node
                      << " (" << why << ")";
  };
  if (raw_fd < 0) {
    give_up("no retained socket", 502);
    return;
  }
  if (!plan.replayable) {
    // Non-idempotent request in the unacknowledged tail (or journal
    // overflow): replaying could repeat a side effect, so fail cleanly.
    give_up("tail not replayable", 502);
    return;
  }

  // Resurrect the connection in the dispatcher and place it on a survivor,
  // seeding the pick's virtual cache with the tail it is about to serve.
  dispatcher_->OnConnectionOpen(conn);
  live_in_dispatcher_.insert(conn);
  std::vector<TargetId> pending;
  pending.reserve(plan.entries.size());
  for (const ReplayJournal::Entry& entry : plan.entries) {
    pending.push_back(catalog_->Find(entry.path));
  }
  const NodeId target = PickLiveNode(conn, pending, Dispatcher::ReassignReason::kFailure);
  if (target == kInvalidNode) {
    if (live_in_dispatcher_.erase(conn) > 0) {
      dispatcher_->OnConnectionClose(conn);
    }
    counters_.rejected_no_backend.fetch_add(1, std::memory_order_relaxed);
    give_up("no assignable node", 503);
    return;
  }

  UniqueFd ship(::fcntl(raw_fd, F_DUPFD_CLOEXEC, 3));
  if (!ship.valid()) {
    if (live_in_dispatcher_.erase(conn) > 0) {
      dispatcher_->OnConnectionClose(conn);
    }
    give_up("dup failed", 502);
    return;
  }

  ReplayMsg msg;
  msg.conn_id = conn;
  msg.origin_node = dead_node;
  msg.splice_offset = plan.splice_offset;
  msg.autonomous = AutonomousHandoffs();
  msg.directives.reserve(plan.entries.size());
  std::string replay_input;
  for (const ReplayJournal::Entry& entry : plan.entries) {
    RequestDirective directive;
    directive.path = entry.path;
    msg.directives.push_back(std::move(directive));
    replay_input += entry.bytes;
  }
  // The dead node's consumed-but-incomplete request prefix: the suffix still
  // in the client socket completes it at the adopting node.
  replay_input += plan.partial_tail;
  msg.replay_input = std::move(replay_input);
  journal_.NoteReplaySent(conn);
  nodes_[static_cast<size_t>(target)].control->SendWithFd(
      static_cast<uint8_t>(ControlMsg::kReplay), EncodeReplay(msg), std::move(ship));
  counters_.replays.fetch_add(1, std::memory_order_relaxed);
  nodes_[static_cast<size_t>(target)].handoff_counter->Increment();
  if (MeshEnabled()) {
    // The reassignment seeded `target`'s virtual cache; tell the peers.
    std::vector<Assignment> seeded(pending.size());
    for (Assignment& assignment : seeded) {
      assignment.node = target;
    }
    RecordFetchHints(pending, seeded);
  }
  RecordSpan(tracer_, trace_ring_, conn, 6, SpanKind::kReplay, target, replay_start_us,
             TraceNowUs() - replay_start_us, "from=%d reqs=%zu splice=%llu", dead_node,
             plan.entries.size(), static_cast<unsigned long long>(plan.splice_offset));
  LARD_LOG(INFO) << "front-end: replayed connection " << conn << " from dead node " << dead_node
                 << " onto node " << target << " (" << plan.entries.size()
                 << " requests + " << plan.partial_tail.size()
                 << " partial-tail bytes, splice offset " << plan.splice_offset << ")";
}

void FrontEnd::HandleConsult(NodeId node, const ConsultMsg& msg) {
  counters_.consults.fetch_add(1, std::memory_order_relaxed);
  disk_table_->Update(node, static_cast<int>(msg.disk_queue_len));
  if (live_in_dispatcher_.count(msg.conn_id) == 0) {
    return;  // connection raced away; the back-end will see kConnClosed state
  }
  const bool traced = tracer_ != nullptr && tracer_->Sampled(msg.conn_id);
  const int64_t consult_start_us = traced ? TraceNowUs() : 0;
  const std::vector<TargetId> targets = PathsToTargets(msg.paths);
  const std::vector<Assignment> assignments = dispatcher_->OnBatch(msg.conn_id, targets);
  if (traced) {
    RecordSpan(tracer_, trace_ring_, msg.conn_id, 4, SpanKind::kConsult, node, consult_start_us,
               TraceNowUs() - consult_start_us, "reqs=%zu policy=%s loads=%s", msg.paths.size(),
               PolicyKey(dispatcher_->policy()), dispatcher_->DescribeLoads().c_str());
  }
  RecordFetchHints(targets, assignments);
  AssignmentsMsg reply;
  reply.conn_id = msg.conn_id;
  ReserveRounded(&reply.directives, assignments.size());
  for (size_t i = 0; i < assignments.size(); ++i) {
    reply.directives.push_back(DirectiveFor(msg.paths[i], assignments[i]));
  }
  nodes_[static_cast<size_t>(node)].control->Send(static_cast<uint8_t>(ControlMsg::kAssignments),
                                                  EncodeAssignments(reply));
}

}  // namespace lard
