// The receiving half of the front-end mesh: per-peer latest gossip state and
// the aggregated remote-load overlay the local Dispatcher decides over.
//
// Each front-end owns one MeshStateTable. Applying a peer's GossipDelta
// replaces that peer's previous contribution wholesale (deltas are absolute
// per-sender state); RemoteLoad(node) answers the sum of every peer's latest
// reported load on `node`, which DispatcherView::Load adds to the local
// accounting. The table enforces the mesh invariants:
//   * per-peer sequence numbers only move forward (reordered/duplicated
//     deltas are dropped as stale, counted in stale_drops),
//   * per-peer membership epochs never regress (a regression is a protocol
//     violation, counted in epoch_regressions — must stay 0).
//
// Staleness is first-class: the table records when each peer last spoke, and
// OldestPeerAgeUs() is the mesh's gossip lag — what GET /mesh and the
// multi_frontend bench report.
//
// Not thread-safe: lives on its front-end's loop thread (prototype) or the
// simulator's single thread, like the Dispatcher it feeds.
//
// Concurrency contract (docs/CONCURRENCY.md): the table carries no lock of
// its own. In the prototype every access — Apply from gossip receipt, the
// RemoteLoad overlay reads, and the Peers()/age introspection — happens with
// FrontEnd::state_mutex_ held; the owning FrontEnd is the capability, so the
// guard is not expressible as a GUARDED_BY on these members.
#ifndef SRC_MESH_MESH_STATE_H_
#define SRC_MESH_MESH_STATE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/cluster_types.h"
#include "src/mesh/gossip.h"

namespace lard {

class Dispatcher;

class MeshStateTable final : public RemoteLoadProvider {
 public:
  explicit MeshStateTable(uint32_t self_fe_id) : self_(self_fe_id) {}

  // Merges a peer's delta. Returns false when the delta was dropped: sent by
  // ourselves, older than (or equal to) the peer's last applied sequence
  // number, or carrying a regressed membership epoch.
  bool Apply(const GossipDelta& delta, int64_t now_us);

  // Forgets a departed peer: its load contribution vanishes from the overlay.
  void RemovePeer(uint32_t fe_id);

  // RemoteLoadProvider: total load the peers' latest deltas place on `node`.
  double RemoteLoad(NodeId node) const override;

  // --- introspection (tests, GET /mesh, the bench's invariant checks) ---
  struct PeerInfo {
    uint32_t fe_id = 0;
    uint64_t seq = 0;
    uint64_t membership_epoch = 0;
    int64_t last_update_us = 0;
    double total_load = 0.0;  // sum of the peer's per-node contributions
  };
  std::vector<PeerInfo> Peers() const;
  size_t peer_count() const { return peers_.size(); }
  uint64_t stale_drops() const { return stale_drops_; }
  // Monotone-epoch violations observed. The invariant is that this stays 0.
  uint64_t epoch_regressions() const { return epoch_regressions_; }
  // Age of the most out-of-date peer's last delta — the mesh's gossip lag.
  // 0 when there are no peers.
  int64_t OldestPeerAgeUs(int64_t now_us) const;
  uint32_t self_fe_id() const { return self_; }

 private:
  struct PeerState {
    uint64_t seq = 0;
    uint64_t epoch = 0;
    int64_t updated_us = 0;
    std::vector<double> loads;  // indexed by NodeId, sized to the peer's report
  };

  uint32_t self_ = 0;
  std::map<uint32_t, PeerState> peers_;
  // Aggregated overlay, maintained incrementally on Apply/RemovePeer.
  std::vector<double> remote_sum_;
  uint64_t stale_drops_ = 0;
  uint64_t epoch_regressions_ = 0;
};

// Cross-checks a peer delta's per-node beliefs (membership state, capacity
// weight — the non-load fields every delta carries) against the local
// dispatcher: returns how many nodes the two disagree on, counting nodes
// the local dispatcher has not even allocated yet. Transient disagreement
// right after a membership change is normal; *persistent* divergence means
// a replica missed control-plane news — the prototype publishes it as the
// lard_mesh_divergence gauge and the simulator counts divergent deltas.
uint64_t CountBeliefDivergence(const GossipDelta& delta, const Dispatcher& dispatcher);

// Builds this front-end's outgoing delta from its dispatcher's state: one
// entry per node slot carrying the dispatcher's *local* load (never the
// gossip overlay — re-exporting remote load would double-count it on the
// next hop), plus the collected vcache hints.
GossipDelta BuildGossipDelta(uint32_t fe_id, uint64_t seq, const Dispatcher& dispatcher,
                             std::vector<GossipVcacheHint> hints);

}  // namespace lard

#endif  // SRC_MESH_MESH_STATE_H_
