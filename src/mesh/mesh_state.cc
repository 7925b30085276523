#include "src/mesh/mesh_state.h"

#include <algorithm>

#include "src/core/dispatcher.h"

namespace lard {

bool MeshStateTable::Apply(const GossipDelta& delta, int64_t now_us) {
  if (delta.fe_id == self_) {
    ++stale_drops_;  // a loop in the mesh wiring; our own state is not remote
    return false;
  }
  auto it = peers_.find(delta.fe_id);
  if (it != peers_.end()) {
    PeerState& peer = it->second;
    if (delta.seq <= peer.seq) {
      ++stale_drops_;  // duplicate or reordered: the newer absolute state won
      return false;
    }
    if (delta.membership_epoch < peer.epoch) {
      // Sequence moved forward but the epoch went back: a protocol violation
      // (epochs are monotone per dispatcher). Drop and flag.
      ++epoch_regressions_;
      return false;
    }
  }

  PeerState& peer = peers_[delta.fe_id];
  // Replace the peer's old contribution in the aggregate.
  for (size_t node = 0; node < peer.loads.size(); ++node) {
    remote_sum_[node] -= peer.loads[node];
  }
  peer.seq = delta.seq;
  peer.epoch = delta.membership_epoch;
  peer.updated_us = now_us;
  peer.loads.assign(peer.loads.size(), 0.0);
  for (const GossipNodeEntry& entry : delta.nodes) {
    if (entry.node < 0) {
      continue;
    }
    const size_t slot = static_cast<size_t>(entry.node);
    if (slot >= peer.loads.size()) {
      peer.loads.resize(slot + 1, 0.0);
    }
    if (slot >= remote_sum_.size()) {
      remote_sum_.resize(slot + 1, 0.0);
    }
    peer.loads[slot] = entry.load;
    remote_sum_[slot] += entry.load;
  }
  return true;
}

void MeshStateTable::RemovePeer(uint32_t fe_id) {
  auto it = peers_.find(fe_id);
  if (it == peers_.end()) {
    return;
  }
  for (size_t node = 0; node < it->second.loads.size(); ++node) {
    remote_sum_[node] -= it->second.loads[node];
  }
  peers_.erase(it);
}

double MeshStateTable::RemoteLoad(NodeId node) const {
  if (node < 0 || static_cast<size_t>(node) >= remote_sum_.size()) {
    return 0.0;
  }
  // Scrub float dust so an all-peers-idle overlay compares exactly equal to
  // no overlay (subtract/re-add cycles need not cancel bit-exactly).
  const double load = remote_sum_[static_cast<size_t>(node)];
  return load > -1e-9 && load < 1e-9 ? 0.0 : load;
}

std::vector<MeshStateTable::PeerInfo> MeshStateTable::Peers() const {
  std::vector<PeerInfo> out;
  out.reserve(peers_.size());
  for (const auto& [fe_id, peer] : peers_) {
    PeerInfo info;
    info.fe_id = fe_id;
    info.seq = peer.seq;
    info.membership_epoch = peer.epoch;
    info.last_update_us = peer.updated_us;
    for (const double load : peer.loads) {
      info.total_load += load;
    }
    out.push_back(info);
  }
  return out;
}

int64_t MeshStateTable::OldestPeerAgeUs(int64_t now_us) const {
  int64_t oldest = 0;
  for (const auto& [fe_id, peer] : peers_) {
    oldest = std::max(oldest, now_us - peer.updated_us);
  }
  return oldest;
}

uint64_t CountBeliefDivergence(const GossipDelta& delta, const Dispatcher& dispatcher) {
  uint64_t divergent = 0;
  for (const GossipNodeEntry& entry : delta.nodes) {
    if (entry.node < 0) {
      continue;
    }
    if (entry.node >= dispatcher.num_node_slots()) {
      ++divergent;  // the peer knows a node we have not seen join yet
      continue;
    }
    if (entry.state != static_cast<uint8_t>(dispatcher.node_state(entry.node)) ||
        entry.weight != dispatcher.NodeWeight(entry.node)) {
      ++divergent;
    }
  }
  return divergent;
}

GossipDelta BuildGossipDelta(uint32_t fe_id, uint64_t seq, const Dispatcher& dispatcher,
                             std::vector<GossipVcacheHint> hints) {
  GossipDelta delta;
  delta.fe_id = fe_id;
  delta.seq = seq;
  delta.membership_epoch = dispatcher.membership_epoch();
  delta.nodes.reserve(static_cast<size_t>(dispatcher.num_node_slots()));
  for (NodeId node = 0; node < dispatcher.num_node_slots(); ++node) {
    GossipNodeEntry entry;
    entry.node = node;
    entry.load = dispatcher.NodeLoad(node);  // local accounting only
    entry.weight = dispatcher.NodeWeight(node);
    entry.state = static_cast<uint8_t>(dispatcher.node_state(node));
    delta.nodes.push_back(entry);
  }
  delta.hints = std::move(hints);
  return delta;
}

}  // namespace lard
