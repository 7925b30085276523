// Unit tests for the front-end mesh: the gossip wire codec, the
// MeshStateTable's staleness/epoch rules, and the dispatcher-side overlay
// (remote load merged into every policy's view, vcache hints, membership
// epochs, the shared capacity-weight validator).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "src/core/dispatcher.h"
#include "src/mesh/gossip.h"
#include "src/mesh/mesh_state.h"

namespace lard {
namespace {

GossipDelta SampleDelta(uint32_t fe, uint64_t seq, uint64_t epoch) {
  GossipDelta delta;
  delta.fe_id = fe;
  delta.seq = seq;
  delta.membership_epoch = epoch;
  delta.nodes.push_back({0, 1.5, 1.0, static_cast<uint8_t>(NodeState::kActive)});
  delta.nodes.push_back({1, 0.25, 2.0, static_cast<uint8_t>(NodeState::kDraining)});
  delta.hints.push_back({1, 7});
  delta.hints.push_back({0, 42});
  return delta;
}

// Highest membership epoch any peer has reported (0 when alone).
uint64_t MaxPeerEpoch(const MeshStateTable& table) {
  uint64_t max_epoch = 0;
  for (const MeshStateTable::PeerInfo& peer : table.Peers()) {
    max_epoch = std::max(max_epoch, peer.membership_epoch);
  }
  return max_epoch;
}

TEST(GossipCodecTest, RoundTripsAllFields) {
  const GossipDelta delta = SampleDelta(3, 99, 12);
  const std::string encoded = EncodeGossipDelta(delta);

  GossipDelta decoded;
  ASSERT_TRUE(DecodeGossipDelta(encoded, &decoded));
  EXPECT_EQ(decoded.fe_id, 3u);
  EXPECT_EQ(decoded.seq, 99u);
  EXPECT_EQ(decoded.membership_epoch, 12u);
  ASSERT_EQ(decoded.nodes.size(), 2u);
  EXPECT_EQ(decoded.nodes[0].node, 0);
  EXPECT_DOUBLE_EQ(decoded.nodes[0].load, 1.5);
  EXPECT_DOUBLE_EQ(decoded.nodes[1].weight, 2.0);
  EXPECT_EQ(decoded.nodes[1].state, static_cast<uint8_t>(NodeState::kDraining));
  ASSERT_EQ(decoded.hints.size(), 2u);
  EXPECT_EQ(decoded.hints[0].node, 1);
  EXPECT_EQ(decoded.hints[0].target, 7u);
}

TEST(GossipCodecTest, RejectsTruncationTrailingBytesAndHostileCounts) {
  const std::string encoded = EncodeGossipDelta(SampleDelta(1, 2, 3));
  GossipDelta decoded;
  // Every strict prefix must fail cleanly.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeGossipDelta(std::string_view(encoded).substr(0, len), &decoded))
        << "prefix of " << len << " bytes decoded";
  }
  EXPECT_FALSE(DecodeGossipDelta(encoded + "x", &decoded));

  // A count field claiming more entries than the payload could hold must be
  // rejected before any allocation is attempted.
  GossipDelta tiny;
  tiny.fe_id = 1;
  tiny.seq = 1;
  std::string hostile = EncodeGossipDelta(tiny);
  // The node-count u32 sits right after fe_id(4) + seq(8) + epoch(8).
  hostile[20] = '\xff';
  hostile[21] = '\xff';
  hostile[22] = '\xff';
  hostile[23] = '\x7f';
  EXPECT_FALSE(DecodeGossipDelta(hostile, &decoded));
}

TEST(MeshStateTableTest, AggregatesPeersAndReplacesOldDeltas) {
  MeshStateTable table(0);
  GossipDelta from1 = SampleDelta(1, 1, 5);
  GossipDelta from2 = SampleDelta(2, 1, 5);
  EXPECT_TRUE(table.Apply(from1, 1000));
  EXPECT_TRUE(table.Apply(from2, 1000));
  EXPECT_EQ(table.peer_count(), 2u);
  EXPECT_DOUBLE_EQ(table.RemoteLoad(0), 3.0);   // 1.5 + 1.5
  EXPECT_DOUBLE_EQ(table.RemoteLoad(1), 0.5);   // 0.25 + 0.25
  EXPECT_DOUBLE_EQ(table.RemoteLoad(7), 0.0);   // unknown slots answer 0

  // A newer delta from peer 1 fully replaces its old contribution.
  GossipDelta update = SampleDelta(1, 2, 5);
  update.nodes[0].load = 0.0;
  update.nodes[1].load = 4.0;
  EXPECT_TRUE(table.Apply(update, 2000));
  EXPECT_DOUBLE_EQ(table.RemoteLoad(0), 1.5);
  EXPECT_DOUBLE_EQ(table.RemoteLoad(1), 4.25);

  // Forgetting the peer removes its share.
  table.RemovePeer(1);
  EXPECT_EQ(table.peer_count(), 1u);
  EXPECT_DOUBLE_EQ(table.RemoteLoad(0), 1.5);
  EXPECT_DOUBLE_EQ(table.RemoteLoad(1), 0.25);
}

TEST(MeshStateTableTest, DropsStaleAndSelfDeltas) {
  MeshStateTable table(0);
  // The front end counts applied deltas off Apply's return value: of the
  // four deltas below only the first counts.
  EXPECT_TRUE(table.Apply(SampleDelta(1, 5, 2), 0));
  // Duplicate and reordered sequence numbers are stale, not errors.
  EXPECT_FALSE(table.Apply(SampleDelta(1, 5, 2), 0));
  EXPECT_FALSE(table.Apply(SampleDelta(1, 4, 2), 0));
  EXPECT_EQ(table.stale_drops(), 2u);
  EXPECT_EQ(table.epoch_regressions(), 0u);
  // Our own delta looping back is dropped too.
  EXPECT_FALSE(table.Apply(SampleDelta(0, 9, 2), 0));
}

TEST(MeshStateTableTest, FlagsEpochRegressionsAndTracksLag) {
  MeshStateTable table(0);
  EXPECT_TRUE(table.Apply(SampleDelta(1, 1, 10), 1000));
  // Newer sequence but an older membership epoch: protocol violation.
  EXPECT_FALSE(table.Apply(SampleDelta(1, 2, 9), 2000));
  EXPECT_EQ(table.epoch_regressions(), 1u);
  EXPECT_EQ(MaxPeerEpoch(table), 10u);

  EXPECT_TRUE(table.Apply(SampleDelta(2, 1, 11), 4000));
  // Peer 1 last spoke at t=1000: it is the most out-of-date at t=10000.
  EXPECT_EQ(table.OldestPeerAgeUs(10000), 9000);
  EXPECT_EQ(MaxPeerEpoch(table), 11u);
}

TEST(CapacityWeightValidatorTest, AcceptsPositivesRejectsEverythingElse) {
  EXPECT_TRUE(IsValidCapacityWeight(1.0));
  EXPECT_TRUE(IsValidCapacityWeight(0.25));
  EXPECT_TRUE(IsValidCapacityWeight(16.0));
  EXPECT_FALSE(IsValidCapacityWeight(0.0));
  EXPECT_FALSE(IsValidCapacityWeight(-1.0));
  EXPECT_FALSE(IsValidCapacityWeight(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(IsValidCapacityWeight(std::numeric_limits<double>::quiet_NaN()));
}

// --- Dispatcher-side overlay ---

class OverlayTest : public ::testing::Test {
 protected:
  void Build(int num_nodes, const RemoteLoadProvider* remote) {
    DispatcherConfig config;
    config.policy = Policy::kWrr;
    config.mechanism = Mechanism::kSingleHandoff;
    config.num_nodes = num_nodes;
    config.remote_loads = remote;
    dispatcher_ = std::make_unique<Dispatcher>(config, &catalog_, &stats_);
  }

  TargetCatalog catalog_;
  NullBackendStats stats_;
  std::unique_ptr<Dispatcher> dispatcher_;
};

TEST_F(OverlayTest, RemoteLoadSteersWrrAwayFromBusyNodes) {
  const TargetId target = catalog_.Intern("/a", 1000);
  MeshStateTable mesh(0);
  // A peer reports 5 load units parked on node 0.
  GossipDelta delta;
  delta.fe_id = 1;
  delta.seq = 1;
  delta.nodes.push_back({0, 5.0, 1.0, static_cast<uint8_t>(NodeState::kActive)});
  ASSERT_TRUE(mesh.Apply(delta, 0));

  Build(2, &mesh);
  EXPECT_DOUBLE_EQ(dispatcher_->RemoteNodeLoad(0), 5.0);
  EXPECT_DOUBLE_EQ(dispatcher_->RemoteNodeLoad(1), 0.0);
  // Locally both nodes are idle; the overlay must push WRR onto node 1
  // repeatedly (without it, the round-robin cursor would alternate).
  for (ConnId conn = 1; conn <= 3; ++conn) {
    dispatcher_->OnConnectionOpen(conn);
    const std::vector<Assignment> assignments = dispatcher_->OnBatch(conn, {target});
    ASSERT_EQ(assignments.size(), 1u);
    EXPECT_EQ(assignments[0].node, 1) << "conn " << conn << " ignored the gossip overlay";
    dispatcher_->OnConnectionClose(conn);
  }
}

TEST_F(OverlayTest, NoteRemoteFetchSeedsTheVirtualCacheModel) {
  const TargetId target = catalog_.Intern("/hot", 4096);
  Build(2, nullptr);
  EXPECT_FALSE(dispatcher_->TargetCachedAt(1, target));
  dispatcher_->NoteRemoteFetch(1, target);
  EXPECT_TRUE(dispatcher_->TargetCachedAt(1, target));
  EXPECT_EQ(dispatcher_->VirtualCacheBytes(1), 4096u);
  // Out-of-range and invalid arguments are ignored, not fatal.
  dispatcher_->NoteRemoteFetch(99, target);
  dispatcher_->NoteRemoteFetch(0, kInvalidTarget);
  EXPECT_FALSE(dispatcher_->TargetCachedAt(0, target));
}

TEST_F(OverlayTest, MembershipEpochIsMonotoneAcrossAllMutations) {
  Build(2, nullptr);
  EXPECT_EQ(dispatcher_->membership_epoch(), 0u);  // initial membership is a given
  const NodeId added = dispatcher_->AddNode(2.0);
  EXPECT_EQ(dispatcher_->membership_epoch(), 1u);
  ASSERT_TRUE(dispatcher_->DrainNode(added));
  EXPECT_EQ(dispatcher_->membership_epoch(), 2u);
  ASSERT_TRUE(dispatcher_->RemoveNode(added));
  EXPECT_EQ(dispatcher_->membership_epoch(), 3u);
  // Refused mutations must not bump the epoch.
  EXPECT_FALSE(dispatcher_->RemoveNode(added));
  EXPECT_FALSE(dispatcher_->DrainNode(99));
  EXPECT_EQ(dispatcher_->membership_epoch(), 3u);
}

TEST_F(OverlayTest, CountBeliefDivergenceSpotsMissedMembershipNews) {
  Build(2, nullptr);
  // Agreement: a delta built from this dispatcher diverges from it nowhere.
  const GossipDelta self_view = BuildGossipDelta(1, 1, *dispatcher_, {});
  EXPECT_EQ(CountBeliefDivergence(self_view, *dispatcher_), 0u);

  // A peer that saw node 1 drain (and reweighted it) while we did not.
  GossipDelta ahead = self_view;
  ahead.nodes[1].state = static_cast<uint8_t>(NodeState::kDraining);
  EXPECT_EQ(CountBeliefDivergence(ahead, *dispatcher_), 1u);
  ahead.nodes[0].weight = 4.0;
  EXPECT_EQ(CountBeliefDivergence(ahead, *dispatcher_), 2u);

  // A peer that saw a join we missed entirely.
  GossipDelta wider = self_view;
  wider.nodes.push_back({2, 0.0, 1.0, static_cast<uint8_t>(NodeState::kActive)});
  EXPECT_EQ(CountBeliefDivergence(wider, *dispatcher_), 1u);
}

TEST(GossipHintKeyTest, RoundTrips) {
  const uint64_t key = MakeHintKey(7, 0xdeadbeefu);
  const GossipVcacheHint hint = HintFromKey(key);
  EXPECT_EQ(hint.node, 7);
  EXPECT_EQ(hint.target, 0xdeadbeefu);
}

TEST_F(OverlayTest, BuildGossipDeltaExportsLocalStateOnly) {
  const TargetId target = catalog_.Intern("/x", 1000);
  MeshStateTable mesh(0);
  GossipDelta remote;
  remote.fe_id = 1;
  remote.seq = 1;
  remote.nodes.push_back({0, 7.0, 1.0, static_cast<uint8_t>(NodeState::kActive)});
  ASSERT_TRUE(mesh.Apply(remote, 0));
  Build(2, &mesh);

  dispatcher_->OnConnectionOpen(1);
  (void)dispatcher_->OnBatch(1, {target});  // 1 local load unit somewhere

  const GossipDelta out = BuildGossipDelta(0, 1, *dispatcher_, {});
  ASSERT_EQ(out.nodes.size(), 2u);
  double total = 0.0;
  for (const GossipNodeEntry& entry : out.nodes) {
    total += entry.load;
  }
  // The exported loads are the dispatcher's own accounting (1 active conn),
  // never the 7 remote units — re-exporting those would double-count them
  // around the mesh.
  EXPECT_DOUBLE_EQ(total, 1.0);
  EXPECT_EQ(out.membership_epoch, dispatcher_->membership_epoch());
}

}  // namespace
}  // namespace lard
