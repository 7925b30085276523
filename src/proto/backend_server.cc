#include "src/proto/backend_server.h"

#include <sys/epoll.h>
#include <time.h>

#include <cstdio>
#include <cstring>

#include "src/http/tagging.h"
#include "src/net/socket.h"
#include "src/util/capacity.h"
#include "src/util/logging.h"

namespace lard {
namespace {
constexpr int64_t kHousekeepingPeriodMs = 100;

// Whether the client connection stays open after this response.
bool KeepsAlive(const HttpRequest& request, int status) {
  return status != 400 && request.KeepAlive();
}

// Queues a body: its owned prefix, then its fill views of the static slab.
void QueueBody(Connection* conn, BodyParts body) {
  conn->Queue(std::move(body.prefix));
  body.ForEachFillView([conn](std::string_view view) { conn->QueueBorrowed(view); });
}

std::atomic<uint64_t>& NodeCell(MetricsRegistry* registry, const char* name, NodeId node) {
  return registry->Counter(MetricsRegistry::WithNode(name, node))->cell();
}
}  // namespace

BackendCounters::BackendCounters(MetricsRegistry* registry, NodeId node)
    : connections_adopted(NodeCell(registry, "lard_backend_connections_adopted_total", node)),
      replays_adopted(NodeCell(registry, "lard_backend_replays_adopted_total", node)),
      spliced_responses(NodeCell(registry, "lard_backend_spliced_responses_total", node)),
      handbacks(NodeCell(registry, "lard_backend_handbacks_total", node)),
      drain_handbacks(NodeCell(registry, "lard_backend_drain_handbacks_total", node)),
      requests_served(NodeCell(registry, "lard_backend_requests_total", node)),
      local_hits(NodeCell(registry, "lard_backend_cache_hits_total", node)),
      local_misses(NodeCell(registry, "lard_backend_cache_misses_total", node)),
      lateral_out(NodeCell(registry, "lard_backend_lateral_out_total", node)),
      lateral_in(NodeCell(registry, "lard_backend_lateral_in_total", node)),
      bytes_to_clients(NodeCell(registry, "lard_backend_bytes_to_clients_total", node)),
      not_found(NodeCell(registry, "lard_backend_not_found_total", node)),
      idle_closes(NodeCell(registry, "lard_backend_idle_closes_total", node)),
      heartbeats(NodeCell(registry, "lard_backend_heartbeats_total", node)) {}

BackendServer::BackendServer(const ClusterConfig& config, NodeId node_id, EventLoop* loop,
                             const ContentStore* store, MetricsRegistry* metrics, Tracer* tracer)
    : metrics_(WithRegistry(metrics, &own_metrics_)), config_(config), node_id_(node_id),
      loop_(loop), store_(store), cache_(config.backend_cache_bytes),
      counters_(metrics_, node_id_), tracer_(tracer),
      metric_open_conns_(
          metrics_->Gauge(MetricsRegistry::WithNode("lard_backend_open_connections", node_id_))) {
  LARD_CHECK(loop_ != nullptr);
  LARD_CHECK(store_ != nullptr);
  LARD_CHECK(node_id_ >= 0);
  if (tracer_ != nullptr) {
    trace_ring_ = tracer_->Ring("be" + std::to_string(node_id_));
  }
}

BackendServer::~BackendServer() {
  // First: deferred tasks and the housekeeping timer become no-ops instead
  // of touching freed state (the loop may keep running after an in-place
  // teardown, and drains posted tasks one final time at shutdown).
  alive_.Invalidate();
}

int64_t BackendServer::NowMs() const {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

Status BackendServer::Start(UniqueFd control_fd) {
  auto listener = ListenTcp(0, &lateral_port_);
  if (!listener.ok()) {
    return listener.status();
  }
  lateral_listener_ = std::move(listener.value());
  disk_ = std::make_unique<DiskGate>(loop_, DiskCostModel{}, config_.disk_time_scale);

  if (config_.telemetry_interval_ms > 0) {
    // The per-request latency histogram is gated on telemetry so a
    // telemetry-off cluster pays nothing for it.
    request_us_ =
        metrics_->Histogram(MetricsRegistry::WithNode("lard_backend_request_us", node_id_));
    loop_->ScheduleAfterMs(config_.telemetry_interval_ms,
                           alive_.Guard([this]() { TelemetryTick(); }));
  }

  AttachFrontEnd(0, std::move(control_fd));

  LARD_CHECK_OK(SetNonBlocking(lateral_listener_.get(), true));
  loop_->Register(lateral_listener_.get(), EPOLLIN,
                  [this](uint32_t events) { OnLateralAccept(events); });

  // Housekeeping: a node-status frame to every front-end (liveness and the
  // disk queue length the paper conveys over the control sessions) + the
  // idle-connection sweep, every 100 ms. Guarded: the timer must die with
  // the server, not the loop.
  loop_->ScheduleAfterMs(kHousekeepingPeriodMs, alive_.Guard([this]() { Housekeeping(); }));
  return Status::Ok();
}

void BackendServer::AttachFrontEnd(int fe_id, UniqueFd control_fd) {
  LARD_CHECK(fe_id >= 0);
  if (static_cast<size_t>(fe_id) >= controls_.size()) {
    controls_.resize(static_cast<size_t>(fe_id) + 1);
  }
  LARD_CHECK_OK(SetNonBlocking(control_fd.get(), true));
  auto channel = std::make_unique<FramedChannel>(loop_, std::move(control_fd));
  channel->set_on_message([this, fe_id](uint8_t type, std::string_view payload, UniqueFd fd) {
    OnControlMessage(fe_id, type, payload, std::move(fd));
  });
  channel->set_on_close([this, fe_id]() { OnFrontEndLost(fe_id); });
  channel->Start();
  controls_[static_cast<size_t>(fe_id)] = std::move(channel);
}

FramedChannel* BackendServer::FeChannel(int fe) {
  if (fe < 0 || static_cast<size_t>(fe) >= controls_.size()) {
    return nullptr;
  }
  FramedChannel* channel = controls_[static_cast<size_t>(fe)].get();
  return channel != nullptr && channel->open() ? channel : nullptr;
}

void BackendServer::OnFrontEndLost(int fe) {
  LARD_LOG(WARNING) << "backend " << node_id_ << ": control session to front-end " << fe
                    << " lost";
  // Front end gone: its consults will never be answered, so its connections flip
  // to autonomous local service. Directives pair with requests positionally,
  // so the unanswerable in-flight consult's paths get local directives
  // first (those requests are older), then the unconsulted backlog.
  for (auto& [id, conn] : conns_) {
    if (conn->fe != fe || conn->closed || conn->autonomous) {
      continue;
    }
    conn->autonomous = true;
    conn->consult_outstanding = false;
    for (std::string& path : conn->consult_inflight) {
      RequestDirective directive;
      directive.path = std::move(path);
      conn->directives.push_back(std::move(directive));
    }
    conn->consult_inflight.clear();
    for (std::string& path : conn->consult_backlog) {
      RequestDirective directive;
      directive.path = std::move(path);
      conn->directives.push_back(std::move(directive));
    }
    conn->consult_backlog.clear();
    // Deferred: we may be inside the dying channel's callback stack.
    loop_->Post(alive_.Guard([this, id = conn->id]() {
      auto it = conns_.find(id);
      if (it != conns_.end()) {
        ProcessNext(it->second.get());
      }
    }));
  }
}

void BackendServer::Housekeeping() {
  SendStatus({});
  // Safety-net journal-progress sweep. Every flush path acks eagerly
  // (WriteResponse's fast path, the EPOLLOUT progress hook, the deferred
  // final-response drain), so this normally observes nothing new — it exists
  // so a missed path degrades replay precision by at most one tick instead
  // of silently forever.
  for (auto& [id, conn] : conns_) {
    if (conn->replay_protected && !conn->closed) {
      MaybeSendReplayAck(conn.get());
    }
  }
  SweepIdleConnections();
  metric_open_conns_->Set(static_cast<double>(conns_.size() - peer_conns_));
  loop_->ScheduleAfterMs(kHousekeepingPeriodMs, alive_.Guard([this]() { Housekeeping(); }));
}

void BackendServer::SendStatus(std::vector<StatusSample> samples) {
  NodeStatusMsg status;
  status.seq = ++status_seq_;
  status.t_ms = NowMs();
  status.disk_queue_len = static_cast<uint32_t>(disk_->queue_length());
  status.open_conns = static_cast<uint32_t>(conns_.size() - peer_conns_);
  status.samples = std::move(samples);
  const std::string payload = EncodeNodeStatus(status);
  // Every front-end runs its own health tracker; all of them hear it.
  bool sent = false;
  for (size_t fe = 0; fe < controls_.size(); ++fe) {
    FramedChannel* channel = FeChannel(static_cast<int>(fe));
    if (channel != nullptr) {
      channel->Send(static_cast<uint8_t>(ControlMsg::kNodeStatus), payload);
      sent = true;
    }
  }
  if (sent) {
    counters_.heartbeats.fetch_add(1, std::memory_order_relaxed);
  }
}

void BackendServer::TelemetryTick() {
  const int64_t now = NowMs();
  const double dt_seconds = telemetry_last_ms_ == 0
                                ? static_cast<double>(config_.telemetry_interval_ms) / 1000.0
                                : static_cast<double>(now - telemetry_last_ms_) / 1000.0;
  telemetry_last_ms_ = now;

  const auto rate = [dt_seconds](CounterRateSampler& sampler,
                                  const std::atomic<uint64_t>& counter) {
    return sampler.Sample(counter.load(std::memory_order_relaxed), dt_seconds);
  };
  std::vector<StatusSample> row;
  row.push_back({"request_rate", rate(rate_requests_, counters_.requests_served)});
  const double hit_rate = rate(rate_hits_, counters_.local_hits);
  const double miss_rate = rate(rate_misses_, counters_.local_misses);
  if (hit_rate + miss_rate > 0.0) {
    row.push_back({"hit_ratio", hit_rate / (hit_rate + miss_rate)});
  }
  const HistogramWindowSampler::Window window = latency_window_.Sample(*request_us_);
  if (window.count > 0) {
    row.push_back({"latency_p50_us", window.p50});
    row.push_back({"latency_p95_us", window.p95});
    row.push_back({"latency_p99_us", window.p99});
  }
  row.push_back({"lateral_rate", rate(rate_lateral_, counters_.lateral_out)});
  // The loop holds its wakeup histogram when profiling is on.
  if (const MetricHistogram* wakeup = loop_->wakeup_delay_histogram(); wakeup != nullptr) {
    const HistogramWindowSampler::Window window = wakeup_window_.Sample(*wakeup);
    if (window.count > 0) {
      row.push_back({"wakeup_p99_us", window.p99});
    }
  }
  // The frame's fixed fields carry disk_queue and open_conns; a dropped
  // frame only leaves the front-end's mirror stale until the next tick.
  SendStatus(std::move(row));

  loop_->ScheduleAfterMs(config_.telemetry_interval_ms,
                         alive_.Guard([this]() { TelemetryTick(); }));
}

void BackendServer::ConnectPeers(const std::vector<uint16_t>& ports) {
  LARD_CHECK(ports.size() > static_cast<size_t>(node_id_));
  peers_.clear();
  for (size_t node = 0; node < ports.size(); ++node) {
    if (static_cast<NodeId>(node) == node_id_) {
      peers_.push_back(nullptr);
    } else {
      peers_.push_back(
          std::make_unique<LateralClient>(loop_, ports[node], config_.lateral_timeout_ms));
    }
  }
}

void BackendServer::AddPeer(NodeId node, uint16_t port) {
  LARD_CHECK(node >= 0);
  if (static_cast<size_t>(node) >= peers_.size()) {
    peers_.resize(static_cast<size_t>(node) + 1);
  }
  if (node != node_id_) {
    peers_[static_cast<size_t>(node)] =
        std::make_unique<LateralClient>(loop_, port, config_.lateral_timeout_ms);
  }
}

// ---------------------------------------------------------------------------
// Control session
// ---------------------------------------------------------------------------

void BackendServer::OnControlMessage(int fe, uint8_t type, std::string_view payload, UniqueFd fd) {
  switch (static_cast<ControlMsg>(type)) {
    case ControlMsg::kHandoff: {
      HandoffMsg msg;
      if (!DecodeHandoff(payload, &msg) || !fd.valid()) {
        LARD_LOG(ERROR) << "backend " << node_id_ << ": bad handoff message";
        return;
      }
      AdoptConnection(fe, std::move(msg), std::move(fd));
      return;
    }
    case ControlMsg::kReplay: {
      ReplayMsg msg;
      if (!DecodeReplay(payload, &msg) || !fd.valid()) {
        LARD_LOG(ERROR) << "backend " << node_id_ << ": bad replay message";
        return;
      }
      AdoptReplay(fe, std::move(msg), std::move(fd));
      return;
    }
    case ControlMsg::kFeHello: {
      uint32_t announced = 0;
      if (!DecodeU32(payload, &announced) || announced != static_cast<uint32_t>(fe)) {
        LARD_LOG(ERROR) << "backend " << node_id_ << ": front-end hello mismatch ("
                        << announced << " on session " << fe << ")";
      }
      return;
    }
    case ControlMsg::kAssignments: {
      AssignmentsMsg msg;
      if (!DecodeAssignments(payload, &msg)) {
        LARD_LOG(ERROR) << "backend " << node_id_ << ": bad assignments message";
        return;
      }
      OnAssignments(msg);
      return;
    }
    case ControlMsg::kDrain: {
      uint32_t flags = 0;
      (void)DecodeU32(payload, &flags);  // reserved; drain regardless
      draining_ = true;
      LARD_LOG(INFO) << "backend " << node_id_
                     << ": draining — giving connections back to the front-end";
      // Sweep every connection: the quiescent ones hand back now, the busy
      // ones when their in-flight batch drains (ProcessNext's idle branch).
      std::vector<ConnId> ids;
      ids.reserve(conns_.size());
      for (const auto& [id, conn] : conns_) {
        ids.push_back(id);
      }
      for (const ConnId id : ids) {
        auto it = conns_.find(id);
        if (it != conns_.end()) {
          ProcessNext(it->second.get());
        }
      }
      return;
    }
    default:
      LARD_LOG(ERROR) << "backend " << node_id_ << ": unexpected control message type "
                      << static_cast<int>(type);
  }
}

BackendServer::ClientConn* BackendServer::AdoptCommon(int fe, ConnId conn_id, bool autonomous,
                                                      bool replay_protected,
                                                      std::vector<RequestDirective> directives,
                                                      UniqueFd fd) {
  if (conns_.count(conn_id) != 0) {
    // Two front-ends minting from one id space (or a replayed handoff)
    // would corrupt the table; refuse the adoption and reset the client
    // (fd RAII-closes) instead of undefined behaviour.
    LARD_LOG(ERROR) << "backend " << node_id_ << ": duplicate handoff for connection "
                    << conn_id << " from front-end " << fe;
    return nullptr;
  }
  LARD_CHECK_OK(SetNonBlocking(fd.get(), true));
  (void)SetTcpNoDelay(fd.get());

  auto conn = std::make_unique<ClientConn>();
  ClientConn* raw = conn.get();
  raw->id = conn_id;
  raw->fe = fe;
  raw->autonomous = autonomous;
  raw->replay_protected = replay_protected;
  raw->directives.assign(directives.begin(), directives.end());
  raw->preassigned_remaining = directives.size();
  raw->last_activity_ms = NowMs();
  raw->idle_reported = false;
  raw->conn = std::make_unique<Connection>(loop_, std::move(fd));
  raw->conn->set_on_data(
      [this, id = raw->id](std::string_view data) {
        auto it = conns_.find(id);
        if (it != conns_.end()) {
          OnClientData(it->second.get(), data);
        }
      });
  raw->conn->set_on_close([this, id = raw->id]() {
    auto it = conns_.find(id);
    if (it != conns_.end()) {
      OnClientClosed(it->second.get());
    }
  });
  if (replay_protected) {
    // Ack flush progress the moment the kernel accepts response bytes: an
    // unacked-but-delivered response would be *replayed* after a crash, and
    // the duplicate would shift the client's response pairing.
    raw->conn->set_on_write_progress([this, id = raw->id]() {
      auto it = conns_.find(id);
      if (it != conns_.end()) {
        MaybeSendReplayAck(it->second.get());
      }
    });
  }
  if (!raw->peer()) {
    raw->traced = tracer_ != nullptr && tracer_->Sampled(conn_id);
    // Timed when spans or the slow log need it — or when telemetry does: the
    // latency histogram must see every request, not just sampled ones.
    raw->timed = raw->traced ||
                 (tracer_ != nullptr && tracer_->enabled() && tracer_->slow_threshold_us() > 0) ||
                 request_us_ != nullptr;
    counters_.connections_adopted.fetch_add(1, std::memory_order_relaxed);
  }
  if (raw->traced) {
    RecordSpan(tracer_, trace_ring_, conn_id, raw->trace_seq++, SpanKind::kAdopt,
               node_id_, TraceNowUs(), 0, "fe=%d dirs=%zu autonomous=%d", fe,
               raw->directives.size(), autonomous ? 1 : 0);
  }
  conns_.emplace(raw->id, std::move(conn));

  // Register with the loop first (no events can arrive until we return to
  // epoll_wait); the caller then replays the shipped byte stream, which
  // precedes anything still in the socket buffer.
  raw->conn->Start();
  return raw;
}

void BackendServer::AdoptConnection(int fe, HandoffMsg msg, UniqueFd fd) {
  ClientConn* raw = AdoptCommon(fe, msg.conn_id, msg.autonomous, msg.replay_protected,
                                std::move(msg.directives), std::move(fd));
  if (raw == nullptr) {
    return;
  }
  if (!msg.unparsed_input.empty()) {
    OnClientData(raw, msg.unparsed_input);
    if (raw->closed) {
      return;
    }
  }
  ProcessNext(raw);
}

void BackendServer::AdoptReplay(int fe, ReplayMsg msg, UniqueFd fd) {
  ClientConn* raw = AdoptCommon(fe, msg.conn_id, msg.autonomous, /*replay_protected=*/true,
                                std::move(msg.directives), std::move(fd));
  if (raw == nullptr) {
    return;
  }
  raw->splice_remaining = msg.splice_offset;
  raw->splice_origin = msg.origin_node;
  raw->splice_pending = msg.splice_offset > 0;
  if (raw->traced) {
    RecordSpan(tracer_, trace_ring_, raw->id, raw->trace_seq++, SpanKind::kReplay,
               node_id_, TraceNowUs(), 0, "origin=%d splice=%llu", msg.origin_node,
               static_cast<unsigned long long>(msg.splice_offset));
  }
  counters_.replays_adopted.fetch_add(1, std::memory_order_relaxed);
  LARD_LOG(INFO) << "backend " << node_id_ << ": adopted crash-replay connection "
                 << msg.conn_id << " (" << raw->directives.size() << " requests, splice offset "
                 << msg.splice_offset << ")";
  if (!msg.replay_input.empty()) {
    OnClientData(raw, msg.replay_input);
    if (raw->closed) {
      return;
    }
  }
  ProcessNext(raw);
}

void BackendServer::OnLateralAccept(uint32_t) {
  // A peer's connection is an autonomous client connection with no front
  // end: its GETs take the client path, and every miss populates the cache.
  const int error = AcceptAll(lateral_listener_.get(), [this](UniqueFd fd) {
    ++peer_conns_;
    AdoptCommon(/*fe=*/-1, next_peer_id_++, /*autonomous=*/true, /*replay_protected=*/false, {},
                std::move(fd));
  });
  if (error != 0) {
    LARD_LOG(ERROR) << "backend " << node_id_ << ": lateral accept: "
                    << std::strerror(error);
  }
}

void BackendServer::OnAssignments(const AssignmentsMsg& msg) {
  auto it = conns_.find(msg.conn_id);
  if (it == conns_.end()) {
    return;  // connection already closed; dispatcher will hear kConnClosed
  }
  ClientConn* conn = it->second.get();
  conn->consult_outstanding = false;
  conn->consult_inflight.clear();
  for (const auto& directive : msg.directives) {
    conn->directives.push_back(directive);
  }
  MaybeConsult(conn);
  ProcessNext(conn);
}

// ---------------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------------

void BackendServer::OnClientData(ClientConn* conn, std::string_view data) {
  if (conn->closed) {
    return;
  }
  conn->last_activity_ms = NowMs();
  std::vector<HttpRequest>& requests = read_batch_;
  const RequestParser::State parse_state = conn->parser.Feed(data, &requests);
  if (conn->replay_protected &&
      (!conn->tail_ever_reported || conn->parser.buffered() != conn->tail_reported)) {
    // Ship the consumed-but-incomplete request prefix to the journal: these
    // bytes exist nowhere else once read off the socket, and a crash right
    // now would otherwise leave the surviving node a torn stream.
    FramedChannel* channel = FeChannel(conn->fe);
    if (channel != nullptr) {
      JournalTailMsg tail;
      tail.conn_id = conn->id;
      tail.buffered = conn->parser.buffered();
      channel->Send(static_cast<uint8_t>(ControlMsg::kJournalTail), EncodeJournalTail(tail));
    }
    conn->tail_reported = conn->parser.buffered();
    conn->tail_ever_reported = true;
  }
  if (parse_state == RequestParser::State::kError) {
    ClearKeeping(&requests, RequestParser::kKeepBatchRequests);
    HttpRequest bad;
    bad.version = HttpVersion::kHttp10;
    WriteResponse(conn, bad, 400, BodyParts::Owned("bad request\n"));
    return;
  }
  if (requests.empty()) {
    return;
  }
  conn->idle_reported = false;
  for (auto& request : requests) {
    if (conn->preassigned_remaining > 0) {
      // Batch-1 request replayed from the handoff payload: its directive
      // already arrived with the handoff message.
      --conn->preassigned_remaining;
    } else {
      if (conn->replay_protected) {
        // The front-end never parsed this request (it arrived pipelined
        // after the handoff): ship it so the crash-replay journal covers it.
        FramedChannel* channel = FeChannel(conn->fe);
        if (channel != nullptr) {
          JournalAppendMsg append;
          append.conn_id = conn->id;
          append.method = request.method;
          append.path = request.path;
          append.request_bytes = request.Serialize();
          channel->Send(static_cast<uint8_t>(ControlMsg::kJournalAppend),
                        EncodeJournalAppend(append));
        }
      }
      if (conn->autonomous) {
        RequestDirective directive;
        directive.path = request.path;
        conn->directives.push_back(std::move(directive));
      } else {
        conn->consult_backlog.push_back(request.path);
      }
    }
    conn->requests.push_back(std::move(request));
  }
  ClearKeeping(&requests, RequestParser::kKeepBatchRequests);
  MaybeConsult(conn);
  ProcessNext(conn);
}

void BackendServer::MaybeConsult(ClientConn* conn) {
  if (conn->autonomous || conn->consult_outstanding || conn->consult_backlog.empty() ||
      conn->closed || conn->migrating) {
    return;
  }
  FramedChannel* channel = FeChannel(conn->fe);
  if (channel == nullptr) {
    // Owning front-end gone and the loss sweep has not reached this
    // connection yet: degrade to autonomous local service now.
    conn->autonomous = true;
    for (std::string& path : conn->consult_backlog) {
      RequestDirective directive;
      directive.path = std::move(path);
      conn->directives.push_back(std::move(directive));
    }
    conn->consult_backlog.clear();
    return;
  }
  ConsultMsg msg;
  msg.conn_id = conn->id;
  msg.paths = std::move(conn->consult_backlog);
  msg.disk_queue_len = static_cast<uint32_t>(disk_->queue_length());
  conn->consult_backlog.clear();
  const std::string payload = EncodeConsult(msg);
  conn->consult_inflight = std::move(msg.paths);  // recoverable if the FE dies mid-consult
  conn->consult_outstanding = true;
  channel->Send(static_cast<uint8_t>(ControlMsg::kConsult), payload);
}

void BackendServer::ProcessNext(ClientConn* conn) {
  // A loop, not recursion: a request served synchronously (a cache hit) ends
  // in FinishRequest, which calls back here, and a frame per pipelined
  // request overflows the stack on a deep pipeline.
  if (conn->dispatching) {
    return;  // the loop further up this stack goes on
  }
  conn->dispatching = true;
  while (StartNextRequest(conn)) {
  }
  conn->dispatching = false;
}

bool BackendServer::StartNextRequest(ClientConn* conn) {
  if (conn->serving || conn->closed || conn->migrating) {
    return false;
  }
  if (conn->requests.empty() || conn->directives.empty()) {
    // Report idle first so the dispatcher releases the batch load before any
    // drain giveback reassigns the connection.
    ReportIdleIfQuiescent(conn);
    MaybeDrainHandback(conn);
    return false;
  }

  if (conn->directives.front().action == DirectiveAction::kMigrate) {
    // Wait for any in-flight consult so the front-end's reply stream for
    // this connection is drained before the state moves.
    if (conn->consult_outstanding) {
      return false;
    }
    // Either migrating now (the next look stops) or demoted to a local serve.
    StartHandback(conn);
    return true;
  }

  HttpRequest request = std::move(conn->requests.front());
  conn->requests.pop_front();
  RequestDirective directive = std::move(conn->directives.front());
  conn->directives.pop_front();
  conn->serving = true;
  if (conn->timed) {
    conn->serve_start_us = TraceNowUs();
    conn->serve_cache = '-';
  }

  NodeId peer = kInvalidNode;
  std::string untagged;
  if (directive.action == DirectiveAction::kLateral &&
      ParseTaggedPath(directive.path, &peer, &untagged) && peer != node_id_ &&
      HasPeer(peer)) {
    LARD_CHECK(untagged == request.path)
        << "directive/request mismatch: " << untagged << " vs " << request.path;
    ServeLateral(conn, request, peer, untagged);
  } else {
    ServeLocal(conn, request, directive);
  }
  return true;
}

void BackendServer::StartHandback(ClientConn* conn) {
  const RequestDirective& head = conn->directives.front();
  if (head.node == node_id_ || !HasPeer(head.node) || conn->conn == nullptr ||
      !conn->conn->open()) {
    // Degenerate migration (bad target or dying socket): serve locally.
    conn->directives.front().action = DirectiveAction::kLocal;
    return;
  }
  conn->migrating = true;
  if (conn->conn->pending_write_bytes() > 0) {
    conn->conn->set_on_write_drained([this, id = conn->id]() { DoHandback(id); });
    return;
  }
  DoHandback(conn->id);
}

void BackendServer::MaybeDrainHandback(ClientConn* conn) {
  // Quiescent between batches on a draining node: give the connection back
  // to the front-end for reassignment instead of pinning it here. Batch-1
  // directives still waiting for a partial request to complete ride along
  // (the target pairs them with the replayed bytes); anything mid-flight
  // (serve, consult) defers the giveback to the next quiescence.
  if (!draining_ || conn->closed || conn->migrating || conn->serving ||
      !conn->requests.empty() || !conn->consult_backlog.empty() || conn->consult_outstanding) {
    return;
  }
  if (conn->conn == nullptr || !conn->conn->open() || FeChannel(conn->fe) == nullptr) {
    return;
  }
  conn->migrating = true;
  if (conn->conn->pending_write_bytes() > 0) {
    conn->conn->set_on_write_drained([this, id = conn->id]() { DoHandback(id); });
    return;
  }
  DoHandback(conn->id);
}

void BackendServer::DoHandback(ConnId conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;
  }
  ClientConn* conn = it->second.get();
  if (conn->closed || conn->conn == nullptr || !conn->conn->open()) {
    return;  // client went away while we flushed; normal close path handles it
  }

  const bool migrate = !conn->directives.empty() &&
                       conn->directives.front().action == DirectiveAction::kMigrate;
  HandbackMsg msg;
  msg.conn_id = conn->id;
  if (migrate) {
    LARD_CHECK(conn->requests.size() >= conn->directives.size())
        << "every directive must have a parsed request";
    msg.target_node = conn->directives.front().node;
    // The migrating request is served locally at the target.
    RequestDirective first = conn->directives.front();
    first.action = DirectiveAction::kLocal;
    first.node = kInvalidNode;
    msg.directives.push_back(std::move(first));
    for (size_t i = 1; i < conn->directives.size(); ++i) {
      msg.directives.push_back(conn->directives[i]);
    }
  } else {
    // Drain giveback: no destination — the front-end's dispatcher reassigns.
    // Directives still queued (waiting for a partial request's tail) are
    // forwarded unchanged.
    msg.target_node = kInvalidNode;
    msg.directives.assign(conn->directives.begin(), conn->directives.end());
  }

  // Replay stream: every unserved request re-serialized in order, then the
  // unparsed tail. Requests beyond the directive count were never consulted
  // (their paths sit in consult_backlog, which we drop): the target node
  // re-consults them when it re-parses the stream.
  std::string replay;
  for (const HttpRequest& request : conn->requests) {
    replay += request.Serialize();
  }
  replay += conn->parser.buffered();
  msg.replay_input = std::move(replay);

  FramedChannel* channel = FeChannel(conn->fe);
  if (channel == nullptr) {
    // Owning front-end vanished between the flush and now: nobody can
    // re-place the connection, so keep serving it locally.
    conn->migrating = false;
    if (!conn->directives.empty() &&
        conn->directives.front().action == DirectiveAction::kMigrate) {
      conn->directives.front().action = DirectiveAction::kLocal;
    }
    ProcessNext(conn);
    return;
  }
  channel->SendWithFd(static_cast<uint8_t>(ControlMsg::kHandback), EncodeHandback(msg),
                      conn->conn->Detach());
  (migrate ? counters_.handbacks : counters_.drain_handbacks)
      .fetch_add(1, std::memory_order_relaxed);

  // State is gone from this node; do NOT notify kConnClosed — the connection
  // lives on at the target. (Deferred: we may be inside a callback.)
  conn->closed = true;
  loop_->Post(alive_.Guard([this, id = conn->id]() { conns_.erase(id); }));
}

void BackendServer::ServeLocal(ClientConn* conn, const HttpRequest& request,
                               const RequestDirective& directive) {
  if (conn->peer()) {
    counters_.lateral_in.fetch_add(1, std::memory_order_relaxed);
  }
  const TargetId target = store_->Resolve(request.path);
  if (target == kInvalidTarget) {
    if (!conn->peer()) {
      counters_.not_found.fetch_add(1, std::memory_order_relaxed);
    }
    WriteResponse(conn, request, 404, BodyParts::Owned("not found\n"));
    return;
  }
  const uint64_t size = store_->SizeOf(target);
  if (cache_.Touch(target)) {
    counters_.local_hits.fetch_add(1, std::memory_order_relaxed);
    conn->serve_cache = 'h';
    WriteResponse(conn, request, 200, store_->PartsFor(target));
    return;
  }
  counters_.local_misses.fetch_add(1, std::memory_order_relaxed);
  conn->serve_cache = 'm';
  const ConnId id = conn->id;
  const bool cache_after_miss = directive.cache_after_miss;
  const int64_t disk_start_us = conn->traced ? TraceNowUs() : 0;
  const int queued_behind = conn->traced ? disk_->queue_length() : 0;
  // Copy the request: the disk read outlives this stack frame.
  disk_->Read(size, [this, id, target, cache_after_miss, request, disk_start_us,
                     queued_behind]() {
    auto it = conns_.find(id);
    if (it == conns_.end()) {
      return;  // client went away while the disk was busy
    }
    ClientConn* conn = it->second.get();
    if (conn->traced) {
      RecordSpan(tracer_, trace_ring_, id, conn->trace_seq++, SpanKind::kDiskWait,
                 node_id_, disk_start_us, TraceNowUs() - disk_start_us, "queued=%d %s",
                 queued_behind, request.path.c_str());
    }
    if (cache_after_miss) {
      cache_.Insert(target, store_->SizeOf(target));
    }
    WriteResponse(conn, request, 200, store_->PartsFor(target));
  });
}

void BackendServer::ServeLateral(ClientConn* conn, const HttpRequest& request, NodeId peer,
                                 const std::string& path) {
  counters_.lateral_out.fetch_add(1, std::memory_order_relaxed);
  LateralClient* client = peers_[static_cast<size_t>(peer)].get();
  LARD_CHECK(client != nullptr) << "no lateral client for node " << peer;
  conn->serve_cache = 'l';
  conn->relaying = true;
  auto relay = std::make_shared<Relay>();
  relay->conn_id = conn->id;
  relay->peer = peer;
  relay->request = request;
  relay->start_us = conn->traced ? TraceNowUs() : 0;
  // Cut-through: the head is queued when the peer's head arrives, and each
  // run of body bytes goes to the client as it is read, so only what the
  // client socket refuses is ever held. Nothing is cached locally
  // (NFS-client-caching-disabled semantics: replication stays under LARD's
  // control).
  LateralClient::FetchHandler handler;
  handler.on_head = [this, relay](int status, uint64_t length) {
    relay->status = status;
    relay->length = length;
    relay->head_seen = true;
    auto it = conns_.find(relay->conn_id);
    if (it != conns_.end() && !it->second->closed) {
      relay->wire_bytes = BeginResponse(it->second.get(), relay->request, status, length);
    }
  };
  handler.on_body = [this, relay](std::string_view bytes) {
    relay->relayed += bytes.size();
    auto it = conns_.find(relay->conn_id);
    if (!relay->wire_bytes || it == conns_.end() || it->second->closed) {
      return;
    }
    ClientConn* conn = it->second.get();
    conn->conn->Write(bytes);
    MaybeSendReplayAck(conn);
  };
  handler.on_end = [this, relay](bool ok) { EndRelay(*relay, ok); };
  client->Fetch(path, std::move(handler));
}

void BackendServer::EndRelay(const Relay& relay, bool ok) {
  auto it = conns_.find(relay.conn_id);
  if (it == conns_.end() || it->second->closed) {
    return;
  }
  ClientConn* conn = it->second.get();
  conn->relaying = false;
  const HttpRequest& request = relay.request;
  // A relay cut short mid-body is finished from the local store when the
  // local document is the one being relayed (a 200 of the same length: the
  // bytes are deterministic), so the client still gets every byte.
  TargetId target = kInvalidTarget;
  if (!ok && relay.head_seen && relay.status == 200) {
    target = store_->Resolve(request.path);
  }
  const bool finish_locally = target != kInvalidTarget && store_->SizeOf(target) == relay.length;
  if (conn->traced) {
    RecordSpan(tracer_, trace_ring_, conn->id, conn->trace_seq++, SpanKind::kLateral,
               node_id_, relay.start_us, TraceNowUs() - relay.start_us,
               "peer=%d status=%d%s", relay.peer, relay.status,
               ok ? "" : (!relay.head_seen || finish_locally ? " fallback=local" : " cut"));
  }
  if (!relay.head_seen) {
    // Peer unreachable: degrade to a local serve so the client still gets
    // its document (the paper's NFS path would block instead).
    LARD_LOG(WARNING) << "backend " << node_id_
                      << ": lateral fetch failed, serving locally: " << request.path;
    RequestDirective fallback;
    fallback.path = request.path;
    ServeLocal(conn, request, fallback);
    return;
  }
  if (!relay.wire_bytes) {
    return;  // the client was gone at the head: the request is finished
  }
  if (ok) {
    EndResponse(conn, request, relay.status, *relay.wire_bytes);
    return;
  }
  if (finish_locally) {
    LARD_LOG(WARNING) << "backend " << node_id_ << ": lateral relay cut after "
                      << relay.relayed << " of " << relay.length
                      << " body bytes, finishing locally: " << request.path;
    // The head and the relayed bytes are already queued or sent: skip that
    // much of the local body.
    conn->conn->SkipNext(relay.relayed);
    QueueBody(conn->conn.get(), store_->PartsFor(target));
    EndResponse(conn, request, relay.status, *relay.wire_bytes);
    return;
  }
  // Nothing local can finish these bytes: a short response followed by the
  // next one would desynchronize the client, so close it.
  LARD_LOG(ERROR) << "backend " << node_id_ << ": lateral relay of " << request.path
                  << " cut after " << relay.relayed << " of " << relay.length
                  << " body bytes, closing the client";
  CloseClient(conn, /*notify_frontend=*/true);
}

std::optional<uint64_t> BackendServer::BeginResponse(ClientConn* conn, const HttpRequest& request,
                                                     int status, uint64_t body_size) {
  if (conn->closed || conn->conn == nullptr || !conn->conn->open()) {
    // Client vanished mid-service; just advance the pipeline.
    FinishRequest(conn);
    return std::nullopt;
  }
  HttpResponse response;
  response.version = request.version;
  response.status = status;
  response.reason = ReasonPhrase(status);
  // A spliced replay response must be byte-identical to what the crashed
  // node was sending, so it carries the *origin* node's Server token.
  const NodeId identity =
      conn->splice_pending && conn->splice_origin != kInvalidNode ? conn->splice_origin
                                                                  : node_id_;
  response.headers.Reserve(3);  // one allocation, not 1 -> 2 -> 4 entries
  response.headers.Add("Server", "lard-be" + std::to_string(identity));
  response.headers.Add("Content-Type", "application/octet-stream");
  if (!KeepsAlive(request, status)) {
    response.headers.Add("Connection", "close");
  }
  if (!conn->peer()) {
    counters_.requests_served.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes_to_clients.fetch_add(body_size, std::memory_order_relaxed);
  }
  std::string head = response.SerializeHead(body_size);
  uint64_t wire_bytes = head.size() + body_size;
  if (conn->splice_pending) {
    conn->splice_pending = false;
    if (conn->splice_remaining >= wire_bytes) {
      // The recorded delivered-prefix exceeds the regenerated response: the
      // streams cannot be reconciled (content changed?). Closing is the only
      // honest option — never emit overlapping or short bytes.
      LARD_LOG(ERROR) << "backend " << node_id_ << ": replay splice offset "
                      << conn->splice_remaining << " >= regenerated response size "
                      << wire_bytes << " on connection " << conn->id << ", closing";
      CloseClient(conn, /*notify_frontend=*/true);
      return std::nullopt;
    }
    if (conn->splice_remaining > 0) {
      // The skip spans the head and the body, however the body is queued.
      conn->conn->SkipNext(conn->splice_remaining);
      wire_bytes -= conn->splice_remaining;
      counters_.spliced_responses.fetch_add(1, std::memory_order_relaxed);
    }
    conn->splice_remaining = 0;
  }
  conn->conn->Queue(std::move(head));
  if (conn->replay_protected) {
    // Journal bookkeeping: where (in flushed-byte space) this response ends.
    conn->enqueued_total += wire_bytes;
    conn->response_ends.push_back(conn->enqueued_total);
  }
  return wire_bytes;
}

void BackendServer::EndResponse(ClientConn* conn, const HttpRequest& request, int status,
                                uint64_t wire_bytes) {
  conn->conn->Flush();
  conn->last_activity_ms = NowMs();
  if (conn->timed && conn->serve_start_us > 0) {
    const int64_t now_us = TraceNowUs();
    const int64_t total_us = now_us - conn->serve_start_us;
    if (request_us_ != nullptr) {
      request_us_->Observe(static_cast<double>(total_us));
    }
    if (conn->traced) {
      RecordSpan(tracer_, trace_ring_, conn->id, conn->trace_seq++, SpanKind::kServe,
                 node_id_, conn->serve_start_us, total_us, "status=%d cache=%c %s",
                 status, conn->serve_cache, request.path.c_str());
      RecordSpan(tracer_, trace_ring_, conn->id, conn->trace_seq++, SpanKind::kFlush,
                 node_id_, now_us, 0, "bytes=%llu pending=%zu",
                 static_cast<unsigned long long>(wire_bytes), conn->conn->pending_write_bytes());
    }
    if (tracer_ != nullptr && tracer_->slow_threshold_us() > 0 &&
        total_us >= tracer_->slow_threshold_us()) {
      // Tail outliers get logged even when the trace was not sampled; the
      // full span tree rides along when it was.
      TraceSpan slow;
      slow.trace_id = conn->id;
      slow.seq = conn->trace_seq;
      slow.kind = SpanKind::kServe;
      slow.node = node_id_;
      slow.start_us = conn->serve_start_us;
      slow.duration_us = total_us;
      std::snprintf(slow.detail, sizeof(slow.detail), "status=%d cache=%c %s", status,
                    conn->serve_cache, request.path.c_str());
      tracer_->LogSlow(slow);
    }
    conn->serve_start_us = 0;
  }

  if (!KeepsAlive(request, status)) {
    if (conn->conn->pending_write_bytes() > 0) {
      // Close (and notify) once the kernel holds the whole final response.
      // CloseClient's posted erase destroys the socket, so closing now
      // would truncate a response larger than the socket buffer. It also
      // keeps a journal armed: kConnClosed makes the front-end drop its
      // retained dup, and a crash between that drop and the flush would
      // lose the response un-replayably.
      conn->conn->set_on_write_drained([this, id = conn->id]() {
        auto it = conns_.find(id);
        if (it == conns_.end()) {
          return;
        }
        ClientConn* drained = it->second.get();
        MaybeSendReplayAck(drained);
        if (drained->conn != nullptr) {
          drained->conn->CloseAfterFlush();
        }
        CloseClient(drained, /*notify_frontend=*/true);
      });
      return;
    }
    conn->conn->CloseAfterFlush();
    CloseClient(conn, /*notify_frontend=*/true);
    return;
  }
  MaybeSendReplayAck(conn);
  FinishRequest(conn);
}

void BackendServer::WriteResponse(ClientConn* conn, const HttpRequest& request, int status,
                                  BodyParts body) {
  const std::optional<uint64_t> wire_bytes = BeginResponse(conn, request, status, body.size());
  if (!wire_bytes) {
    return;
  }
  QueueBody(conn->conn.get(), std::move(body));
  EndResponse(conn, request, status, *wire_bytes);
}

void BackendServer::MaybeSendReplayAck(ClientConn* conn) {
  if (!conn->replay_protected || conn->closed || conn->conn == nullptr) {
    return;
  }
  const uint64_t flushed = conn->conn->bytes_flushed();
  while (!conn->response_ends.empty() && conn->response_ends.front() <= flushed) {
    conn->last_completed_end = conn->response_ends.front();
    conn->response_ends.pop_front();
    ++conn->completed_responses;
  }
  const uint64_t partial = flushed - conn->last_completed_end;
  if (conn->ack_sent && conn->completed_responses == conn->acked_completed &&
      partial == conn->acked_partial) {
    return;  // no news
  }
  FramedChannel* channel = FeChannel(conn->fe);
  if (channel == nullptr) {
    return;
  }
  ReplayAckMsg ack;
  ack.conn_id = conn->id;
  ack.completed = conn->completed_responses;
  ack.partial_bytes = partial;
  channel->Send(static_cast<uint8_t>(ControlMsg::kReplayAck), EncodeReplayAck(ack));
  conn->ack_sent = true;
  conn->acked_completed = conn->completed_responses;
  conn->acked_partial = partial;
}

void BackendServer::FinishRequest(ClientConn* conn) {
  conn->serving = false;
  if (!conn->closed) {
    ProcessNext(conn);
  }
}

void BackendServer::ReportIdleIfQuiescent(ClientConn* conn) {
  if (conn->autonomous || conn->closed || conn->idle_reported || conn->serving ||
      !conn->requests.empty() || !conn->directives.empty() || !conn->consult_backlog.empty() ||
      conn->consult_outstanding) {
    return;
  }
  conn->idle_reported = true;
  FramedChannel* channel = FeChannel(conn->fe);
  if (channel != nullptr) {
    channel->Send(static_cast<uint8_t>(ControlMsg::kIdle), EncodeU64(conn->id));
  }
}

void BackendServer::OnClientClosed(ClientConn* conn) {
  CloseClient(conn, /*notify_frontend=*/true);
}

void BackendServer::CloseClient(ClientConn* conn, bool notify_frontend) {
  if (conn->closed) {
    return;
  }
  conn->closed = true;
  FramedChannel* channel = FeChannel(conn->fe);
  if (notify_frontend && channel != nullptr) {
    channel->Send(static_cast<uint8_t>(ControlMsg::kConnClosed), EncodeU64(conn->id));
  }
  // The Connection may be mid-callback and disk/lateral callbacks may still
  // reference this ClientConn by id, so tear down on the next tick.
  loop_->Post(alive_.Guard([this, id = conn->id, peer = conn->peer()]() {
    conns_.erase(id);
    if (peer) {
      --peer_conns_;
    }
  }));
}

void BackendServer::SweepIdleConnections() {
  if (config_.idle_close_ms <= 0) {
    return;
  }
  const int64_t now = NowMs();
  std::vector<ClientConn*> idle;
  for (auto& [id, conn] : conns_) {
    // A peer's connection carries all of that peer's fetches: never reaped.
    if (conn->closed || conn->peer()) {
      continue;
    }
    // Write progress counts as activity. A queued response that made no
    // progress for the whole interval is reaped even mid-serve: its client
    // stopped reading, and a Connection: close response would otherwise
    // wait forever for the drain that closes it.
    const uint64_t flushed = conn->conn->bytes_flushed();
    if (flushed != conn->flushed_at_sweep) {
      conn->flushed_at_sweep = flushed;
      conn->last_activity_ms = now;
    }
    // A relay waiting on its peer is bounded by the lateral deadline, not
    // by this sweep: its queued head is not a stalled write.
    const bool write_stalled = conn->conn->pending_write_bytes() > 0 && !conn->relaying;
    if ((write_stalled || (!conn->serving && conn->requests.empty())) &&
        now - conn->last_activity_ms >= config_.idle_close_ms) {
      idle.push_back(conn.get());
    }
  }
  for (ClientConn* conn : idle) {
    counters_.idle_closes.fetch_add(1, std::memory_order_relaxed);
    // notify_frontend: the kConnClosed message is what lets the front-end
    // reap its half (dispatcher entry, journal, retained dup).
    CloseClient(conn, /*notify_frontend=*/true);
  }
}

}  // namespace lard
