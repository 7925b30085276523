// The prototype's one knob struct (Figure 12's testbed: one front-end tier
// and N back-ends configured together). Cluster, FrontEnd and BackendServer
// all read their settings from it; what differs per replica or per node (a
// front end's id, a back end's node id, the shared registry and tracer) is a
// constructor argument, not a field.
#ifndef SRC_PROTO_CLUSTER_CONFIG_H_
#define SRC_PROTO_CLUSTER_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/cluster_types.h"
#include "src/core/lard_params.h"
#include "src/obs/slo_watchdog.h"

namespace lard {

struct ClusterConfig {
  // Back-ends at boot (the front end's initial membership).
  int num_nodes = 2;
  // Replicated front-end tier: N front-ends, each on its own loop thread
  // with its own listen port (see Cluster::ports()), its own control session
  // to every back-end, and a pairwise gossip mesh keeping the dispatchers'
  // load/vcache views approximately consistent. 1 = the classic single-FE
  // harness; > 1 arms the gossip machinery, and every FE count is labelled
  // {fe="k"} either way.
  int num_frontends = 1;
  // Reactor-per-core front ends: event loops per FE process. Loop 0 carries
  // the control plane (back-end control sessions, gossip, admin); client
  // connections shard across all loops via per-loop SO_REUSEPORT listeners.
  // 0 = auto: the LARD_FE_LOOPS environment variable when set, else 1 (the
  // classic single-loop front-end, bit-compatible with the old harness).
  int fe_loops = 0;
  // Mesh sync period (only meaningful with num_frontends > 1).
  int64_t gossip_interval_ms = 50;
  Policy policy = Policy::kExtendedLard;
  // Capacity weight per initial node (padded with 1.0); weighted policies
  // normalize load by weight. Weights describe relative back-end speed —
  // the prototype's processes are really homogeneous, so this mostly
  // exercises the decision plumbing (the simulator models true speed skew).
  std::vector<double> node_weights;
  // Supported in the prototype: kSingleHandoff, kBackEndForwarding,
  // kMultipleHandoff (our extension: the paper's prototype never built it —
  // we migrate connections via fd hand-back through the front-end) and
  // kRelayingFrontEnd.
  Mechanism mechanism = Mechanism::kBackEndForwarding;
  LardParams params;
  // Each back-end's cache, and the size of the dispatcher's virtual cache
  // that models it.
  uint64_t backend_cache_bytes = 32ull * 1024 * 1024;
  // 1.0 = paper-faithful disk latencies; tests compress (e.g. 0.02).
  double disk_time_scale = 1.0;
  // Back-end keep-alive: an adopted client connection inactive this long is
  // closed (the paper's "configurable interval, typically 15 seconds").
  // <= 0 disables.
  int64_t idle_close_ms = 15000;
  // Front-end keep-alive: a shard-owned client connection (accepted but not
  // yet handed off, or relayed) with no bytes in either direction for this
  // long is reaped by its shard loop's idle timer. A read or write only
  // stores a timestamp; the connection's one timer re-checks it when it
  // fires. Runtime-tunable via POST /config idle_timeout_ms=N; <= 0
  // disables.
  int64_t idle_timeout_ms = 30000;
  // Per-fetch deadline on lateral (peer) fetches and relay-mode back-end
  // fetches: a killed peer's listener keeps accepting silently until its
  // process dies, and an unbounded wait would wedge the client connection
  // being served. <= 0 disables.
  int64_t lateral_timeout_ms = 2000;
  // Front-end 0's client port (the other replicas pick free ports).
  uint16_t listen_port = 0;  // 0 = ephemeral
  uint16_t admin_port = 0;   // 0 = ephemeral (see Cluster::admin_port())
  // Back-ends send a status frame every 100 ms; one that sends no control
  // frame for this long is declared dead and auto-removed. <= 0 disables
  // liveness tracking (the control-session-EOF path still removes crashed
  // nodes).
  int64_t heartbeat_timeout_ms = 1500;
  // Graceful removal: a live node being admin-removed first drains and gives
  // its connections back (re-handoff); after this grace period whatever is
  // left is hard-removed. <= 0 removes immediately.
  int64_t retire_grace_ms = 1000;
  // Crash-transparent request replay: the front-end retains a dup of every
  // handed-off client socket plus a bounded journal of unacknowledged
  // requests, and when a back-end dies *without* handing its connections
  // back (kill, missed heartbeats, control EOF) the orphans are re-handed
  // off to survivors with the journaled GET/HEAD tail replayed and the
  // response stream spliced at the recorded offset. A non-idempotent request
  // in the tail turns the crash into a clean 502/close instead. Only the
  // handoff mechanisms journal (relaying keeps connections at the FE).
  bool replay_enabled = true;
  // Request tracing (src/util/tracing.h): every component records sampled
  // per-request spans into fixed-size rings, drained via GET /trace
  // (format=chrome for about:tracing / Perfetto). The slow-request log
  // starts off; POST /config slow_threshold_us=N arms it at runtime.
  bool tracing_enabled = true;
  uint32_t trace_sample_every = 16;  // 1 = trace every connection
  size_t trace_ring_capacity = 2048;
  // Telemetry pipeline (src/obs/): every component samples rates, window
  // quantiles and gauges at this period into a fixed-size TimeSeriesStore
  // (back-ends ship each row in a status frame to the front-ends, which
  // mirror it), and the FE SLO watchdog evaluates its rules at the same
  // cadence. <= 0 disables the pipeline (no per-request latency timing at
  // the back-ends; GET /timeseries and /cluster/health go empty).
  int64_t telemetry_interval_ms = 1000;
  // Front-end watchdog rules; empty = the built-in defaults (back-end p99
  // latency, replay storms, giveups, loop wakeup delay, load skew).
  std::vector<SloRule> slo_rules;
};

}  // namespace lard

#endif  // SRC_PROTO_CLUSTER_CONFIG_H_
