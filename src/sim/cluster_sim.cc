#include "src/sim/cluster_sim.h"

#include <algorithm>
#include <cmath>

#include "src/mesh/gossip.h"
#include "src/util/logging.h"

namespace lard {

namespace {

// A node's true hardware speed scales every service time it performs: the
// disk cost model's latencies divide by `speed` at construction, CPU work at
// submission (SubmitCpu below).
DiskCostModel ScaleDiskCosts(DiskCostModel costs, double speed) {
  costs.initial_latency_us /= speed;
  costs.transfer_us_per_4kb /= speed;
  costs.extra_seek_us /= speed;
  return costs;
}

}  // namespace

// One back-end node: CPU and disk, optionally speed-skewed (heterogeneous
// clusters). With a single front-end there is exactly one cache model in the
// simulator — the dispatcher's — shared by policy and service, as in the
// paper's simulator; each assignment carries the model's hit/miss verdict.
// With a replicated front-end tier the dispatchers' views are approximate and
// the authoritative caches live in ClusterSim::true_caches_.
struct ClusterSim::Backend {
  Backend(EventQueue* queue, const DiskCostModel& disk_costs, double speed_factor)
      : cpu(queue), disk(queue, ScaleDiskCosts(disk_costs, speed_factor)), speed(speed_factor) {}

  // All CPU service times funnel through here so the speed skew applies
  // uniformly.
  void SubmitCpu(double service_us, std::function<void()> done) {
    cpu.Submit(service_us / speed, std::move(done));
  }

  FifoServer cpu;
  DiskServer disk;
  double speed = 1.0;
  BackendSimMetrics metrics;
};

// Adapts the back-ends' disk queues to the dispatcher's feedback interface
// (the paper conveys exactly this signal over the handoff control sessions;
// with N front-ends each one has its own control sessions, so every replica
// reads the same fresh value).
class ClusterSim::DiskQueueStats final : public BackendStatsProvider {
 public:
  explicit DiskQueueStats(const std::vector<std::unique_ptr<Backend>>* backends)
      : backends_(backends) {}
  int DiskQueueLength(NodeId node) const override {
    return (*backends_)[static_cast<size_t>(node)]->disk.queue_length();
  }

 private:
  const std::vector<std::unique_ptr<Backend>>* backends_;
};

// Replay state of one in-flight session (= one persistent connection).
struct ClusterSim::SessionRun {
  const TraceSession* session = nullptr;
  ConnId conn = 0;
  uint64_t id = 0;  // stable handle for guarded completion callbacks
  int fe = 0;       // owning front-end (index into dispatchers_)
  int fe_loop = 0;  // owning event loop within that front-end (pinned for life)
  size_t next_batch = 0;
  size_t outstanding = 0;       // responses pending in the current batch
  SimTimeUs batch_start_us = 0;
  bool first_batch = true;
  // Failure-replay bookkeeping (config.failure_replay only): one record per
  // request of the current batch. A crash of the serving node re-issues the
  // idempotent undone ones elsewhere (bumping `generation` so the dead
  // node's still-scheduled completion is recognized as stale) and declares
  // the non-idempotent ones lost.
  struct InflightRequest {
    TargetId target = kInvalidTarget;
    NodeId node = kInvalidNode;
    bool idempotent = true;
    bool done = false;
    uint32_t generation = 0;
  };
  std::vector<InflightRequest> inflight;
  uint32_t next_generation = 0;
  // The handling node died (NodeFailure): the dispatcher state for `conn` is
  // gone. Once the current batch's in-flight responses drain, the client
  // reconnects — the run continues on a fresh ConnId the dispatcher re-assigns.
  bool conn_lost = false;
  // The handling node is draining (NodeDrain): before the next batch the
  // connection migrates — the dispatcher reassigns it to a surviving node,
  // mirroring the prototype's giveback/re-handoff.
  bool drain_pending = false;
};

ClusterSim::ClusterSim(const ClusterSimConfig& config, const Trace* trace) : config_(config) {
  LARD_CHECK(trace != nullptr);
  LARD_CHECK(config_.num_nodes > 0);
  LARD_CHECK(config_.num_frontends > 0);
  LARD_CHECK(config_.num_frontends == 1 || config_.gossip_interval_us > 0)
      << "a replicated front-end tier needs a positive gossip interval";
  if (config_.http10) {
    http10_trace_ = trace->ToHttp10();
    trace_ = &http10_trace_;
  } else {
    trace_ = trace;
  }

  backends_.reserve(static_cast<size_t>(config_.num_nodes));
  for (int i = 0; i < config_.num_nodes; ++i) {
    const double speed = static_cast<size_t>(i) < config_.node_speeds.size()
                             ? config_.node_speeds[static_cast<size_t>(i)]
                             : 1.0;
    LARD_CHECK(speed > 0.0) << "node speed must be positive";
    backends_.push_back(std::make_unique<Backend>(&queue_, config_.disk_costs, speed));
    if (config_.num_frontends > 1) {
      true_caches_.emplace_back(config_.backend_cache_bytes);
    }
  }
  disk_stats_ = std::make_unique<DiskQueueStats>(&backends_);

  if (config_.fe_loops < 1) {
    config_.fe_loops = 1;
  }
  const int frontends = config_.num_frontends;
  pending_hints_.resize(static_cast<size_t>(frontends));
  gossip_seq_.assign(static_cast<size_t>(frontends), 0);
  fe_accounted_us_.assign(static_cast<size_t>(frontends), 0.0);
  next_fe_loop_.assign(static_cast<size_t>(frontends), 0);
  if (frontends > 1) {
    for (int fe = 0; fe < frontends; ++fe) {
      mesh_.push_back(std::make_unique<MeshStateTable>(static_cast<uint32_t>(fe)));
    }
  }
  for (int fe = 0; fe < frontends; ++fe) {
    DispatcherConfig dispatch_config;
    dispatch_config.policy = config_.policy;
    dispatch_config.mechanism = config_.mechanism;
    dispatch_config.params = config_.lard_params;
    dispatch_config.num_nodes = config_.num_nodes;
    dispatch_config.node_weights = config_.node_weights;
    dispatch_config.virtual_cache_bytes = config_.backend_cache_bytes;
    dispatch_config.remote_loads = frontends > 1 ? mesh_[static_cast<size_t>(fe)].get() : nullptr;
    dispatchers_.push_back(
        std::make_unique<Dispatcher>(dispatch_config, &trace_->catalog(), disk_stats_.get()));
  }

  if (config_.model_front_end_limit || config_.mechanism == Mechanism::kRelayingFrontEnd) {
    // One serialized CPU per (front-end, loop): the reactor-per-core FE's
    // capacity model. Sessions pin to a loop, so per-loop queues form just
    // like the prototype's per-reactor epoll loops.
    for (int fe = 0; fe < frontends * config_.fe_loops; ++fe) {
      fe_cpus_.push_back(std::make_unique<FifoServer>(&queue_));
    }
  }
  if (config_.failure_replay) {
    replay_rng_ = std::make_unique<Rng>(config_.replay_seed);
  }
}

Dispatcher& ClusterSim::DispatcherFor(const SessionRun* run) {
  return *dispatchers_[static_cast<size_t>(run->fe)];
}

void ClusterSim::ApplyMembershipEvent(const MembershipEvent& event) {
  switch (event.action) {
    case MembershipAction::kNodeJoin: {
      // The shared validator gates scripted joins exactly like the admin
      // API gates POST /nodes/add: a bad weight (or speed) rejects the
      // event instead of CHECK-aborting deep inside the dispatcher.
      if (!IsValidCapacityWeight(event.weight) || !IsValidCapacityWeight(event.speed)) {
        ++rejected_membership_events_;
        LARD_LOG(ERROR) << "sim t=" << queue_.now_us()
                        << "us: NodeJoin rejected (weight=" << event.weight
                        << ", speed=" << event.speed << " — must be positive and finite)";
        break;
      }
      NodeId node = kInvalidNode;
      for (auto& dispatcher : dispatchers_) {
        const NodeId assigned = dispatcher->AddNode(event.weight);
        LARD_CHECK(node == kInvalidNode || node == assigned)
            << "front-end replicas diverged on a join";
        node = assigned;
      }
      LARD_CHECK(static_cast<size_t>(node) == backends_.size());
      backends_.push_back(std::make_unique<Backend>(&queue_, config_.disk_costs, event.speed));
      if (MeshMode()) {
        true_caches_.emplace_back(config_.backend_cache_bytes);
      }
      ++nodes_joined_;
      LARD_LOG(INFO) << "sim t=" << queue_.now_us() << "us: node " << node << " joined";
      break;
    }
    case MembershipAction::kNodeDrain: {
      bool drained = false;
      for (auto& dispatcher : dispatchers_) {
        drained = dispatcher->DrainNode(event.node) || drained;
      }
      if (drained) {
        ++nodes_drained_;
        // Reverse handoff: every connection the node is handling migrates at
        // its next between-batches point instead of pinning here — matching
        // the prototype's kDrain giveback so the two report the same
        // migration counters.
        size_t marked = 0;
        for (const auto& run : active_runs_) {
          if (!run->conn_lost && DispatcherFor(run.get()).HandlingNode(run->conn) == event.node) {
            run->drain_pending = true;
            ++marked;
          }
        }
        LARD_LOG(INFO) << "sim t=" << queue_.now_us() << "us: node " << event.node
                       << " draining, " << marked << " connections to migrate";
      }
      break;
    }
    case MembershipAction::kNodeFailure: {
      std::vector<ConnId> orphans;
      bool removed = false;
      for (auto& dispatcher : dispatchers_) {
        removed = dispatcher->RemoveNode(event.node, &orphans) || removed;
      }
      if (!removed) {
        break;
      }
      ++nodes_failed_;
      // Legacy mode: in-flight service at the dead node completes (those
      // events are already scheduled — the paper's simulator has no
      // mid-service preemption); what fails over is the *connections*: each
      // orphaned session reconnects after its current batch drains.
      // Failure-replay mode: the crash interrupts the dead node's in-flight
      // work — orphans continue on a survivor at this very instant, exactly
      // like the prototype's journal replay.
      for (const ConnId conn : orphans) {
        // Two-step lookup: ReplayOrphanedRun can complete the run's batch
        // (lost responses) and erase it from active_runs_, so the iteration
        // must be over before any mutation.
        SessionRun* victim = nullptr;
        for (const auto& run : active_runs_) {
          if (run->conn == conn) {
            victim = run.get();
            break;
          }
        }
        if (victim == nullptr) {
          continue;
        }
        if (config_.failure_replay) {
          ReplayOrphanedRun(victim);
        } else {
          victim->conn_lost = true;
        }
      }
      LARD_LOG(INFO) << "sim t=" << queue_.now_us() << "us: node " << event.node << " failed, "
                     << orphans.size() << " connections orphaned";
      break;
    }
  }
}

ClusterSim::~ClusterSim() = default;

void ClusterSim::FrontEndWork(int fe, int loop, double cost_us, std::function<void()> done) {
  fe_accounted_us_[static_cast<size_t>(fe)] += cost_us;
  if (!fe_cpus_.empty()) {
    const size_t slot = static_cast<size_t>(fe) * static_cast<size_t>(config_.fe_loops) +
                        static_cast<size_t>(loop);
    fe_cpus_[slot]->Submit(cost_us, std::move(done));
  } else {
    done();
  }
}

bool ClusterSim::TrueCacheServe(int fe, NodeId node, TargetId target, bool cache_after_miss) {
  if (target == kInvalidTarget) {
    return false;
  }
  LruCache& cache = true_caches_[static_cast<size_t>(node)];
  const bool hit = cache.Touch(target);
  if (!hit && cache_after_miss) {
    cache.Insert(target, trace_->catalog().Get(target).size_bytes);
  }
  // A fetch that leaves the target resident is news for the peers'
  // virtual-cache models (dedup'd until the next gossip round); a
  // no-cache-under-disk-pressure serve is not.
  if (hit || cache_after_miss) {
    pending_hints_[static_cast<size_t>(fe)].insert(MakeHintKey(node, target));
  }
  return hit;
}

void ClusterSim::GossipRound() {
  ++gossip_rounds_;
  const int64_t now = static_cast<int64_t>(queue_.now_us());

  // Unique-ownership audit: a connection must be known to exactly the
  // dispatcher that placed it — a second claimant would double-count load
  // and double-serve batches.
  for (const auto& run : active_runs_) {
    int owners = 0;
    for (const auto& dispatcher : dispatchers_) {
      if (dispatcher->HandlingNode(run->conn) != kInvalidNode) {
        ++owners;
      }
    }
    if (owners > 1) {
      ++ownership_violations_;
    }
  }

  for (const auto& table : mesh_) {
    max_gossip_lag_us_ =
        std::max(max_gossip_lag_us_, static_cast<double>(table->OldestPeerAgeUs(now)));
  }

  const int frontends = config_.num_frontends;
  for (int fe = 0; fe < frontends; ++fe) {
    auto& hint_keys = pending_hints_[static_cast<size_t>(fe)];
    std::vector<GossipVcacheHint> hints;
    hints.reserve(hint_keys.size());
    for (const uint64_t key : hint_keys) {
      hints.push_back(HintFromKey(key));
    }
    hint_keys.clear();
    const GossipDelta delta =
        BuildGossipDelta(static_cast<uint32_t>(fe), ++gossip_seq_[static_cast<size_t>(fe)],
                         *dispatchers_[static_cast<size_t>(fe)], std::move(hints));
    const std::string encoded = EncodeGossipDelta(delta);
    for (int peer = 0; peer < frontends; ++peer) {
      if (peer == fe) {
        continue;
      }
      gossip_bytes_ += encoded.size();
      GossipDelta received;
      LARD_CHECK(DecodeGossipDelta(encoded, &received)) << "gossip codec round-trip failed";
      if (mesh_[static_cast<size_t>(peer)]->Apply(received, now)) {
        ++gossip_deltas_applied_;
        if (CountBeliefDivergence(received, *dispatchers_[static_cast<size_t>(peer)]) != 0) {
          // Membership events apply to every replica at the same simulated
          // instant, so the replicas' beliefs must never disagree here.
          ++gossip_divergent_deltas_;
        }
        for (const GossipVcacheHint& hint : received.hints) {
          dispatchers_[static_cast<size_t>(peer)]->NoteRemoteFetch(hint.node, hint.target);
        }
      }
    }
  }

  if (sessions_done_ < trace_->sessions().size()) {
    queue_.ScheduleAfter(static_cast<double>(config_.gossip_interval_us),
                         [this]() { GossipRound(); });
  }
}

void ClusterSim::StartNextSession() {
  if (next_session_ >= trace_->sessions().size()) {
    return;
  }
  const TraceSession& session = trace_->sessions()[next_session_++];
  auto run = std::make_unique<SessionRun>();
  run->session = &session;
  run->conn = next_conn_id_++;
  run->id = next_run_id_++;
  // Sessions are dealt round-robin across the front-end tier (the client
  // side of a replicated tier is DNS/VIP spraying, which this approximates).
  run->fe = static_cast<int>((next_session_ - 1) % static_cast<size_t>(config_.num_frontends));
  // Within the front-end, connections are dealt round-robin across its event
  // loops (the prototype's SO_REUSEPORT accept spreading) and pinned there.
  int& next_loop = next_fe_loop_[static_cast<size_t>(run->fe)];
  run->fe_loop = next_loop;
  next_loop = (next_loop + 1) % config_.fe_loops;
  SessionRun* raw = run.get();
  active_runs_.push_back(std::move(run));
  runs_by_id_[raw->id] = raw;

  DispatcherFor(raw).OnConnectionOpen(raw->conn);
  FrontEndWork(raw->fe, raw->fe_loop, config_.fe_costs.accept_us,
               [this, raw]() { ProcessBatch(raw); });
}

ClusterSim::SessionRun* ClusterSim::FindRun(uint64_t run_id) {
  auto it = runs_by_id_.find(run_id);
  return it == runs_by_id_.end() ? nullptr : it->second;
}

void ClusterSim::OnGuardedResponseDone(uint64_t run_id, size_t index, uint32_t generation) {
  SessionRun* run = FindRun(run_id);
  if (run == nullptr || index >= run->inflight.size()) {
    return;  // the session finished (or the batch moved on) without this event
  }
  SessionRun::InflightRequest& entry = run->inflight[index];
  if (entry.done || entry.generation != generation) {
    return;  // stale completion from a crashed node; superseded by the replay
  }
  entry.done = true;
  OnResponseDone(run);
}

void ClusterSim::ReplayOrphanedRun(SessionRun* run) {
  Dispatcher& dispatcher = DispatcherFor(run);
  // Resurrect the connection and place it on a survivor, seeding the pick
  // with the requests about to be re-served there (the prototype's journal
  // tail).
  // Every undone request of the orphaned connection is interrupted: its
  // response either originates at the dead node or relays through it (the
  // forwarded case — the remote peer serves, the dead handler relays), so
  // the serving peer's identity does not matter here.
  std::vector<TargetId> pending;
  std::vector<size_t> replay_indices;
  std::vector<size_t> lost_indices;
  for (size_t i = 0; i < run->inflight.size(); ++i) {
    const SessionRun::InflightRequest& entry = run->inflight[i];
    if (entry.done) {
      continue;
    }
    if (entry.idempotent) {
      replay_indices.push_back(i);
      pending.push_back(entry.target);
    } else {
      lost_indices.push_back(i);
    }
  }
  dispatcher.OnConnectionOpen(run->conn);
  const NodeId target =
      dispatcher.ReassignConnection(run->conn, pending, Dispatcher::ReassignReason::kFailure);
  if (target == kInvalidNode) {
    // No survivor to continue on: fall back to the legacy reconnect path
    // (the in-flight events still complete; the client re-opens after the
    // batch drains). The prototype 503s here.
    dispatcher.OnConnectionClose(run->conn);
    run->conn_lost = true;
    ++replay_unplaceable_;
    return;
  }
  ++replayed_connections_;
  run->drain_pending = false;
  // The front-end pays the re-handoff work, as in the drain path.
  fe_accounted_us_[static_cast<size_t>(run->fe)] += config_.fe_costs.migrate_us;

  // Idempotent in-flight requests re-issue on the survivor; the crashed
  // node's still-scheduled completions become stale via the generation bump.
  for (const size_t index : replay_indices) {
    SessionRun::InflightRequest& entry = run->inflight[index];
    entry.node = target;
    entry.generation = ++run->next_generation;
    ++replayed_requests_;
    const bool cached = MeshMode()
                            ? TrueCacheServe(run->fe, target, entry.target, true)
                            : dispatcher.TargetCachedAt(target, entry.target);
    ServeAtNode(target, entry.target, cached, config_.server_costs.handoff_us,
                [this, run_id = run->id, index, generation = entry.generation]() {
                  OnGuardedResponseDone(run_id, index, generation);
                });
  }
  // Non-idempotent in-flight requests die with the node (client-visible
  // failure) — the shared invariant: lost == non_idempotent_in_flight,
  // counted here at classification granularity, separately from the loss
  // bookkeeping below, so the invariant checks the two paths against each
  // other. Mark everything first; the final OnResponseDone may finish the
  // batch and erase `run`.
  non_idempotent_in_flight_ += lost_indices.size();
  const size_t losses = lost_indices.size();
  for (const size_t index : lost_indices) {
    run->inflight[index].done = true;
    ++lost_requests_;
  }
  for (size_t i = 0; i < losses; ++i) {
    OnResponseDone(run);
  }
}

void ClusterSim::ReopenIfLost(SessionRun* run) {
  if (!run->conn_lost) {
    return;
  }
  // Failover: the client reconnects; the dispatcher re-assigns the fresh
  // connection (and the remaining batches) under the surviving membership.
  run->conn_lost = false;
  run->drain_pending = false;  // the fresh connection is placed anew anyway
  run->conn = next_conn_id_++;
  DispatcherFor(run).OnConnectionOpen(run->conn);
  ++failovers_;
}

void ClusterSim::RehandoffIfDraining(SessionRun* run, const std::vector<TargetId>& targets) {
  if (!run->drain_pending) {
    return;
  }
  run->drain_pending = false;
  const NodeId moved_to = DispatcherFor(run).ReassignConnection(run->conn, targets);
  if (moved_to == kInvalidNode) {
    return;  // nowhere to go; the connection stays pinned (prototype 503s)
  }
  ++rehandoffs_;
  // The front-end pays the re-handoff work (accounted; the giveback happens
  // between batches so it does not stall the response pipeline).
  fe_accounted_us_[static_cast<size_t>(run->fe)] += config_.fe_costs.migrate_us;
}

void ClusterSim::ProcessBatch(SessionRun* run) {
  LARD_CHECK(run->next_batch < run->session->batches.size());
  // The handling node can die during a think-time wait; reconnect before
  // consulting the dispatcher about the next batch.
  ReopenIfLost(run);
  const TraceBatch& batch = run->session->batches[run->next_batch++];
  // Draining-node migration happens between batches, seeding the new node's
  // cache model with the batch about to be served there.
  RehandoffIfDraining(run, batch.targets);
  run->batch_start_us = queue_.now_us();
  run->outstanding = batch.targets.size();
  if (batch.targets.empty()) {
    OnResponseDone(run);  // degenerate; treat as instantly complete
    return;
  }

  std::vector<Assignment> assignments =
      DispatcherFor(run).OnBatch(run->conn, batch.targets);
  LARD_CHECK(assignments.size() == batch.targets.size());
  if (config_.failure_replay) {
    // Fresh in-flight records for this batch: serving node + idempotency
    // verdict per request (the crash handler consults them).
    run->inflight.clear();
    run->inflight.reserve(batch.targets.size());
    for (size_t i = 0; i < assignments.size(); ++i) {
      SessionRun::InflightRequest entry;
      entry.target = batch.targets[i];
      entry.node = assignments[i].node;
      entry.idempotent = !(config_.non_idempotent_fraction > 0.0 &&
                           replay_rng_->NextDouble() < config_.non_idempotent_fraction);
      entry.generation = ++run->next_generation;
      run->inflight.push_back(entry);
    }
  }
  for (size_t i = 0; i < assignments.size(); ++i) {
    if (MeshMode()) {
      // The deciding replica's virtual caches are approximate; service
      // outcomes come from the back-ends' authoritative caches.
      assignments[i].served_from_cache = TrueCacheServe(
          run->fe, assignments[i].node, batch.targets[i], assignments[i].cache_after_miss);
    }
    IssueRequest(run, i, batch.targets[i], assignments[i]);
  }
}

void ClusterSim::IssueRequest(SessionRun* run, size_t index, TargetId target,
                              const Assignment& assignment) {
  ++total_requests_;
  const uint64_t bytes = trace_->catalog().Get(target).size_bytes;
  total_bytes_ += bytes;
  const ServerCostModel& costs = config_.server_costs;
  const bool zero_cost = config_.mechanism == Mechanism::kIdealHandoff;
  const int fe = run->fe;
  const int fe_loop = run->fe_loop;
  // Failure-replay mode routes completions through the guarded trampoline so
  // a crash can supersede (replay) or drop (lose) an in-flight request.
  std::function<void()> done;
  if (config_.failure_replay) {
    done = [this, run_id = run->id, index,
            generation = run->inflight[index].generation]() {
      OnGuardedResponseDone(run_id, index, generation);
    };
  } else {
    done = [this, run]() { OnResponseDone(run); };
  }

  switch (assignment.action) {
    case AssignmentAction::kHandoff: {
      // First request: FE pays handoff, handling node pays connection setup
      // before regular request processing.
      const NodeId node = assignment.node;
      const double setup = zero_cost ? 0.0 : costs.conn_setup_us;
      const double fe_cost = zero_cost ? 0.0 : config_.fe_costs.handoff_us;
      FrontEndWork(fe, fe_loop, fe_cost, [this, node, target, hit = assignment.served_from_cache,
                                          setup, done]() {
        ServeAtNode(node, target, hit, setup, done);
      });
      break;
    }
    case AssignmentAction::kServeLocal: {
      FrontEndWork(fe, fe_loop, config_.fe_costs.per_request_us,
                   [this, node = assignment.node, target, hit = assignment.served_from_cache,
                    done]() { ServeAtNode(node, target, hit, 0.0, done); });
      break;
    }
    case AssignmentAction::kForward: {
      // Handling node A tags + issues the lateral request; remote node B
      // serves it (possibly from disk) transmitting to A; A receives and
      // relays the response to the client.
      const NodeId handling = DispatcherFor(run).HandlingNode(run->conn);
      LARD_CHECK(handling != kInvalidNode);
      const NodeId remote = assignment.node;
      const double xmit = TransmitCostUs(costs, bytes);
      const double relay_cost = costs.tag_us + costs.forward_receive_factor * xmit + xmit;
      FrontEndWork(fe, fe_loop, config_.fe_costs.per_request_us,
                   [this, handling, remote, target, bytes, relay_cost,
                    hit = assignment.served_from_cache, done]() {
                     // Remote serve: per-request + cache/disk + transmit (to
                     // the handling node), then the handling node receives and
                     // relays to the client.
                     ServeAtNode(remote, target, hit, 0.0,
                                 [this, handling, relay_cost, bytes, done]() {
                                   Backend& handler =
                                       *backends_[static_cast<size_t>(handling)];
                                   handler.SubmitCpu(
                                       relay_cost, [this, handling, bytes, done]() {
                                         Backend& h =
                                             *backends_[static_cast<size_t>(handling)];
                                         h.metrics.bytes_sent += bytes;
                                         done();
                                       });
                                 });
                   });
      break;
    }
    case AssignmentAction::kMigrate: {
      // Connection moves to assignment.node: the new node pays the migration
      // CPU, and the connection additionally stalls for the pipeline-drain
      // time (latency, not CPU).
      const double overhead = zero_cost ? 0.0 : costs.handoff_us;
      const double stall = zero_cost ? 0.0 : costs.migration_stall_us;
      const double fe_cost = zero_cost ? 0.0 : config_.fe_costs.migrate_us;
      FrontEndWork(fe, fe_loop, fe_cost, [this, node = assignment.node, target,
                                          hit = assignment.served_from_cache, overhead, stall,
                                          done]() {
        queue_.ScheduleAfter(stall, [this, node, target, hit, overhead, done]() {
          ServeAtNode(node, target, hit, overhead, done);
        });
      });
      break;
    }
    case AssignmentAction::kRelay: {
      // FE relays request and response bytes through its own CPU.
      const double fe_cost = config_.fe_costs.per_request_us +
                             config_.fe_costs.relay_us_per_512b *
                                 static_cast<double>((bytes + 511) / 512);
      const NodeId node = assignment.node;
      const bool hit = assignment.served_from_cache;
      // Charge the FE after the back-end produced the data (response path
      // dominates); ordering does not affect totals.
      ServeAtNode(node, target, hit, 0.0, [this, fe, fe_loop, fe_cost, done]() {
        FrontEndWork(fe, fe_loop, fe_cost, done);
      });
      break;
    }
  }
}

void ClusterSim::ServeAtNode(NodeId node, TargetId target, bool cached, double extra_cpu_us,
                             std::function<void()> done) {
  Backend& backend = *backends_[static_cast<size_t>(node)];
  const uint64_t bytes = trace_->catalog().Get(target).size_bytes;
  const ServerCostModel& costs = config_.server_costs;
  backend.metrics.requests++;

  backend.SubmitCpu(extra_cpu_us + costs.per_request_us,
                    [this, node, bytes, cached, done = std::move(done)]() {
                      Backend& backend = *backends_[static_cast<size_t>(node)];
                      const double xmit = TransmitCostUs(config_.server_costs, bytes);
                      if (cached) {
                        backend.metrics.cache_hits++;
                        backend.metrics.bytes_sent += bytes;
                        backend.SubmitCpu(xmit, std::move(done));
                        return;
                      }
                      backend.metrics.disk_reads++;
                      backend.disk.Read(bytes, [this, node, bytes, xmit,
                                                done = std::move(done)]() {
                        Backend& backend = *backends_[static_cast<size_t>(node)];
                        backend.metrics.bytes_sent += bytes;
                        backend.SubmitCpu(xmit, std::move(done));
                      });
                    });
  (void)costs;
}

void ClusterSim::OnResponseDone(SessionRun* run) {
  if (run->outstanding > 0) {
    --run->outstanding;
  }
  if (run->outstanding > 0) {
    return;
  }
  batch_latency_us_.Add(static_cast<double>(queue_.now_us() - run->batch_start_us));

  if (run->next_batch >= run->session->batches.size()) {
    FinishSession(run);
    return;
  }
  ReopenIfLost(run);
  if (config_.use_think_times) {
    const int64_t prev_offset = run->session->batches[run->next_batch - 1].offset_us;
    const int64_t next_offset = run->session->batches[run->next_batch].offset_us;
    const double think_us = static_cast<double>(std::max<int64_t>(next_offset - prev_offset, 0));
    if (think_us > 0.0) {
      DispatcherFor(run).OnConnectionIdle(run->conn);
      queue_.ScheduleAfter(think_us, [this, run]() { ProcessBatch(run); });
      return;
    }
  }
  ProcessBatch(run);
}

void ClusterSim::FinishSession(SessionRun* run) {
  if (run->conn_lost) {
    // The session's last batch completed on a connection whose node died:
    // the dispatcher already forgot it, so there is nothing to tear down.
    fe_accounted_us_[static_cast<size_t>(run->fe)] += config_.fe_costs.conn_close_us;
  } else {
    // Connection teardown: handling node pays teardown CPU; FE cleans up.
    const NodeId handling = DispatcherFor(run).HandlingNode(run->conn);
    const bool zero_cost = config_.mechanism == Mechanism::kIdealHandoff;
    if (handling != kInvalidNode && !zero_cost) {
      backends_[static_cast<size_t>(handling)]->SubmitCpu(config_.server_costs.conn_teardown_us,
                                                          []() {});
    }
    fe_accounted_us_[static_cast<size_t>(run->fe)] += config_.fe_costs.conn_close_us;
    DispatcherFor(run).OnConnectionClose(run->conn);
  }

  ++sessions_done_;
  // Recycle the slot: start the next session from the trace.
  auto it = std::find_if(active_runs_.begin(), active_runs_.end(),
                         [run](const std::unique_ptr<SessionRun>& p) { return p.get() == run; });
  LARD_CHECK(it != active_runs_.end());
  runs_by_id_.erase(run->id);
  active_runs_.erase(it);
  StartNextSession();
}

ClusterSimMetrics ClusterSim::Run() {
  LARD_CHECK(!ran_) << "ClusterSim::Run may be called once";
  ran_ = true;

  // The control-plane scenario replays at fixed simulated times, giving
  // deterministic join/drain/failure runs the prototype can only approximate.
  for (const MembershipEvent& event : config_.membership_events) {
    queue_.ScheduleAt(event.at_us, [this, event]() { ApplyMembershipEvent(event); });
  }
  if (MeshMode()) {
    queue_.ScheduleAfter(static_cast<double>(config_.gossip_interval_us),
                         [this]() { GossipRound(); });
  }

  const size_t initial =
      std::min(trace_->sessions().size(),
               static_cast<size_t>(config_.concurrent_sessions_per_node) *
                   static_cast<size_t>(config_.num_nodes));
  for (size_t i = 0; i < initial; ++i) {
    StartNextSession();
  }
  queue_.RunUntilEmpty();
  LARD_CHECK(sessions_done_ == trace_->sessions().size()) << "sessions stranded";

  ClusterSimMetrics metrics;
  metrics.sim_seconds = static_cast<double>(queue_.now_us()) / 1e6;
  metrics.total_requests = total_requests_;
  metrics.total_connections = sessions_done_;
  metrics.throughput_rps =
      metrics.sim_seconds > 0.0 ? static_cast<double>(total_requests_) / metrics.sim_seconds : 0.0;
  metrics.throughput_mbps = metrics.sim_seconds > 0.0
                                ? 8.0 * static_cast<double>(total_bytes_) / 1e6 /
                                      metrics.sim_seconds
                                : 0.0;
  metrics.mean_batch_latency_ms = batch_latency_us_.mean() / 1000.0;
  for (const auto& dispatcher : dispatchers_) {
    metrics.dispatcher += dispatcher->counters();
  }

  uint64_t hits = 0;
  uint64_t served = 0;
  double cpu_util_sum = 0.0;
  double disk_util_sum = 0.0;
  for (const auto& backend : backends_) {
    BackendSimMetrics node = backend->metrics;
    node.cpu_busy_us = backend->cpu.total_busy_us();
    node.disk_busy_us = backend->disk.total_busy_us();
    node.cpu_utilization = backend->cpu.Utilization();
    node.disk_utilization = backend->disk.Utilization();
    cpu_util_sum += node.cpu_utilization;
    disk_util_sum += node.disk_utilization;
    hits += node.cache_hits;
    served += node.cache_hits + node.disk_reads;
    metrics.per_node.push_back(node);
  }
  metrics.cache_hit_rate =
      served > 0 ? static_cast<double>(hits) / static_cast<double>(served) : 0.0;
  const double node_count = static_cast<double>(backends_.size());
  metrics.mean_cpu_idle = 1.0 - cpu_util_sum / node_count;
  metrics.mean_disk_idle = 1.0 - disk_util_sum / node_count;
  for (const double accounted : fe_accounted_us_) {
    // An FE's capacity is fe_loops loop-CPUs; 1.0 = all its loops busy the
    // whole run (the single-loop formula when fe_loops is 1).
    const double utilization =
        queue_.now_us() > 0 ? accounted / (static_cast<double>(queue_.now_us()) *
                                           static_cast<double>(config_.fe_loops))
                            : 0.0;
    metrics.per_fe_utilization.push_back(utilization);
    metrics.fe_utilization = std::max(metrics.fe_utilization, utilization);
  }
  metrics.nodes_joined = nodes_joined_;
  metrics.nodes_failed = nodes_failed_;
  metrics.nodes_drained = nodes_drained_;
  metrics.failovers = failovers_;
  metrics.rehandoffs = rehandoffs_;
  metrics.rejected_membership_events = rejected_membership_events_;
  metrics.replayed_connections = replayed_connections_;
  metrics.replayed_requests = replayed_requests_;
  metrics.lost_requests = lost_requests_;
  metrics.non_idempotent_in_flight = non_idempotent_in_flight_;
  metrics.replay_unplaceable = replay_unplaceable_;

  // Mesh metrics + end-of-run invariants. With every session finished, each
  // replica must have drained its own accounting to zero — remaining load or
  // open connections mean the tier double-counted or leaked.
  metrics.frontends = config_.num_frontends;
  metrics.gossip_rounds = gossip_rounds_;
  metrics.gossip_deltas_applied = gossip_deltas_applied_;
  metrics.gossip_bytes = gossip_bytes_;
  metrics.gossip_divergent_deltas = gossip_divergent_deltas_;
  metrics.max_gossip_lag_us = max_gossip_lag_us_;
  metrics.ownership_violations = ownership_violations_;
  for (const auto& table : mesh_) {
    metrics.gossip_stale_drops += table->stale_drops();
    metrics.mesh_epoch_regressions += table->epoch_regressions();
  }
  for (const auto& dispatcher : dispatchers_) {
    if (dispatcher->open_connections() != 0) {
      metrics.mesh_load_conserved = false;
    }
    for (NodeId node = 0; node < dispatcher->num_node_slots(); ++node) {
      if (std::fabs(dispatcher->NodeLoad(node)) > 1e-6) {
        metrics.mesh_load_conserved = false;
      }
    }
    if (dispatcher->membership_epoch() != dispatchers_[0]->membership_epoch()) {
      metrics.mesh_epochs_converged = false;
    }
  }
  return metrics;
}

}  // namespace lard
