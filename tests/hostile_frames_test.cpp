// Hostile but checksum-valid frames against the wire decoders.
//
// A raw endpoint forges frames and sends them through the network, so each
// one carries a valid checksum and reaches the decoder: FIFO stream frames,
// editor and conference frames carried over a FIFO stream, group-channel
// and membership frames, and trader and share-server requests.  A
// decoder must drop what it cannot trust without crashing, delivering or
// adopting any of it, and keep serving well-formed traffic afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ccontrol/ot.hpp"
#include "groups/group_channel.hpp"
#include "groups/membership.hpp"
#include "groupware/conference.hpp"
#include "groupware/editor.hpp"
#include "mobile/host.hpp"
#include "mobile/share_server.hpp"
#include "net/fifo_channel.hpp"
#include "net/network.hpp"
#include "rpc/trader.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"

namespace coop::net {
namespace {

// --- FIFO stream frames ------------------------------------------------------

constexpr std::uint8_t kWireData = 0x71;
constexpr std::uint8_t kWireAck = 0x72;

struct RawPeer : Endpoint {
  RawPeer(Network& n, Address a) : net(n), self(a) { net.attach(self, *this); }
  ~RawPeer() override { net.detach(self); }

  void send(const Address& to, util::Writer& w) {
    net.send({.src = self, .dst = to, .payload = w.take_buf()});
  }
  void data(const Address& to, std::uint32_t epoch, std::uint64_t seq,
            std::string_view payload) {
    util::Writer w;
    w.put(kWireData).put(epoch).put(seq).put_string(payload);
    send(to, w);
  }
  void on_message(const Message& msg) override {
    ++received;
    util::Reader r(msg.payload);
    const auto type = r.get<std::uint8_t>();
    const auto epoch = r.get<std::uint32_t>();
    const auto seq = r.get<std::uint64_t>();
    if (type == kWireAck) acks.push_back(seq);
    if (type == kWireData) data_seqs.push_back(seq);
    (void)epoch;
  }

  Network& net;
  Address self;
  std::size_t received = 0;              ///< frames of any kind received
  std::vector<std::uint64_t> acks;       ///< cumulative acks received
  std::vector<std::uint64_t> data_seqs;  ///< seqs of data frames received
};

class HostileFrames : public ::testing::Test {
 protected:
  HostileFrames() : sim(31), net(sim), ch(net, {1, 1}), peer(net, {2, 1}) {
    net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                          .bandwidth_bps = 0, .loss = 0});
    ch.on_receive([this](const Address&, std::string_view p) {
      got.emplace_back(p);
    });
  }
  /// Builds a three-member group on nodes 21-23 (slots 0-2); every
  /// delivery lands in `delivered` as "<member>:<payload>".
  void make_group(groups::Ordering ordering) {
    for (net::NodeId n = 21; n <= 23; ++n) group_addrs.push_back({n, 10});
    for (const Address& a : group_addrs) {
      members.push_back(std::make_unique<groups::GroupChannel>(
          net, a, kGroup, groups::ChannelConfig{.ordering = ordering}));
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      members[i]->set_members(group_addrs);
      members[i]->on_deliver([this, i](const groups::Delivery& d) {
        delivered.push_back(std::to_string(i) + ":" + d.payload);
      });
    }
  }
  /// Sends @p frame from the forging peer to group slot @p slot.
  void forge(std::size_t slot, std::string_view frame) {
    net.send({.src = peer.self, .dst = group_addrs[slot],
              .payload = util::Buf(frame)});
  }

  static constexpr McastId kGroup = 42;
  sim::Simulator sim;
  Network net;
  FifoChannel ch;
  RawPeer peer;
  std::vector<std::string> got;
  std::vector<Address> group_addrs;
  std::vector<std::unique_ptr<groups::GroupChannel>> members;
  std::vector<std::string> delivered;
};

/// @p v in sorted order, for checks that must not depend on which member
/// a multicast reached first.
std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST_F(HostileFrames, SeqFarBeyondTheWindowIsHeldSparselyAndOrderSurvives) {
  // 2^40 lies far outside the hold-back ring's window: sizing the ring to
  // reach it would need terabytes.  It is parked in the sparse map, and
  // the in-order stream keeps flowing around it.
  peer.data({1, 1}, 1, std::uint64_t{1} << 40, "far");
  peer.data({1, 1}, 1, 2, "two");
  peer.data({1, 1}, 1, 1, "one");
  peer.data({1, 1}, 1, 3, "three");
  sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"one", "two", "three"}));
  EXPECT_EQ(ch.stats().delivered, 3u);
  ASSERT_FALSE(peer.acks.empty());
  EXPECT_EQ(peer.acks.back(), 3u);
}

TEST_F(HostileFrames, DataLengthPrefixOverrunningTheFrameIsDropped) {
  util::Writer w;
  w.put(kWireData).put(std::uint32_t{1}).put(std::uint64_t{1});
  w.put(std::uint32_t{1000});  // claims 1000 payload bytes...
  w.put(std::uint32_t{0xabcd});  // ...and carries 4
  peer.send({1, 1}, w);
  sim.run();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(ch.stats().delivered, 0u);
  EXPECT_TRUE(peer.acks.empty());  // never parsed far enough to ack
  // The cursor did not move: a well-formed seq 1 still delivers.
  peer.data({1, 1}, 1, 1, "ok");
  sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"ok"}));
}

TEST_F(HostileFrames, AckPastTheLastSentSeqPopsOnlyTheBacklog) {
  ch.send({2, 1}, "a");
  ch.send({2, 1}, "b");
  ch.send({2, 1}, "c");
  EXPECT_EQ(ch.unacked({2, 1}), 3u);
  util::Writer w;
  w.put(kWireAck).put(std::uint32_t{1}).put(std::uint64_t{1} << 50);
  peer.send({1, 1}, w);
  sim.run_until(sim::msec(5));
  EXPECT_EQ(ch.unacked({2, 1}), 0u);
  // Numbering carries on from the real end of the stream, and the next
  // frame is tracked (and acked away) as usual.
  ch.send({2, 1}, "d");
  EXPECT_EQ(ch.unacked({2, 1}), 1u);
  sim.run_until(sim::msec(10));
  ASSERT_EQ(peer.data_seqs.size(), 4u);
  EXPECT_EQ(peer.data_seqs.back(), 4u);
  util::Writer ack4;
  ack4.put(kWireAck).put(std::uint32_t{1}).put(std::uint64_t{4});
  peer.send({1, 1}, ack4);
  sim.run_until(sim::msec(15));
  EXPECT_EQ(ch.unacked({2, 1}), 0u);
}

TEST_F(HostileFrames, AckCarryingAStaleEpochIsIgnored) {
  ch.send({2, 1}, "a");
  ch.send({2, 1}, "b");
  util::Writer w;
  w.put(kWireAck).put(std::uint32_t{0}).put(std::uint64_t{2});
  peer.send({1, 1}, w);
  sim.run_until(sim::msec(5));
  EXPECT_EQ(ch.stats().stale, 1u);
  EXPECT_EQ(ch.unacked({2, 1}), 2u);
}

TEST_F(HostileFrames, TruncatedEditorOpIsDroppedAndEditingContinues) {
  groupware::EditorServer server(net, {10, 1}, "doc");
  groupware::EditorClient alice(net, {3, 1}, {10, 1}, 1, "doc");
  std::size_t alice_remote_ops = 0;
  alice.on_remote_change(
      [&](const ccontrol::TextOp&, sim::Duration) { ++alice_remote_ops; });
  alice.connect();
  sim.run_until(sim::msec(50));
  ASSERT_TRUE(alice.connected());
  // A kOp (type 2) whose insert text claims more bytes than the frame
  // holds, delivered over a real FIFO stream to both editor roles.
  FifoChannel forger(net, {4, 1});
  util::Writer w;
  w.put(std::uint8_t{2}).put(ccontrol::SiteId{9}).put(sim::TimePoint{0});
  w.put(std::uint64_t{0}).put(std::uint64_t{0});
  w.put(ccontrol::TextOp::Kind::kInsert).put(std::uint64_t{0});
  w.put(std::uint32_t{64}).put(std::uint8_t{'x'});
  const util::Buf truncated = w.take_buf();
  forger.send({10, 1}, truncated);
  forger.send({3, 1}, truncated);
  sim.run_until(sim::msec(100));
  EXPECT_EQ(server.doc(), "doc");
  EXPECT_EQ(alice.doc(), "doc");
  EXPECT_EQ(alice_remote_ops, 0u);
  alice.insert(3, "!");
  sim.run_until(sim::msec(150));
  EXPECT_EQ(server.doc(), "doc!");
}


TEST_F(HostileFrames, EditorOpOfAnUnknownKindIsDroppedAndReplicasConverge) {
  groupware::EditorServer server(net, {10, 1}, "hello world");
  groupware::EditorClient alice(net, {3, 1}, {10, 1}, 1, "hello world");
  groupware::EditorClient bob(net, {5, 1}, {10, 1}, 2, "hello world");
  FifoChannel forger(net, {4, 1});
  alice.connect();
  bob.connect();
  forger.send({10, 1}, util::encode(groupware::RegisterMsg{.site = 9}));
  sim.run_until(sim::msec(50));
  ASSERT_TRUE(alice.connected() && bob.connected());
  // Kind 3 is no TextOp kind.  Relayed, it would reach the transform as a
  // delete, and the server would shift alice's concurrent insert by one
  // while alice keeps it where she typed it.
  ccontrol::TextOp forged = ccontrol::TextOp::erase(0, 9);
  forged.kind = static_cast<ccontrol::TextOp::Kind>(3);
  forger.send({10, 1}, util::encode(groupware::OpMsg{
                           .site = 9, .link = {forged, 0, 0}}));
  alice.insert(5, "!");
  sim.run_until(sim::msec(100));
  EXPECT_EQ(server.doc(), "hello! world");
  EXPECT_EQ(alice.doc(), server.doc());
  EXPECT_EQ(bob.doc(), server.doc());
}

TEST_F(HostileFrames, EditorRegisterForABoundSiteIsRefused) {
  groupware::EditorServer server(net, {10, 1}, "doc");
  groupware::EditorClient alice(net, {3, 1}, {10, 1}, 1, "doc");
  groupware::EditorClient bob(net, {5, 1}, {10, 1}, 2, "doc");
  alice.connect();
  bob.connect();
  sim.run_until(sim::msec(50));
  ASSERT_TRUE(alice.connected() && bob.connected());
  // A third endpoint claims alice's site, then speaks for it.
  FifoChannel forger(net, {4, 1});
  std::size_t forger_got = 0;
  forger.on_receive([&](const Address&, std::string_view) { ++forger_got; });
  forger.send({10, 1}, util::encode(groupware::RegisterMsg{.site = 1}));
  sim.run_until(sim::msec(100));
  forger.send({10, 1}, util::encode(groupware::OpMsg{
                           .site = 1,
                           .link = {ccontrol::TextOp::insert(0, "X", 1), 0,
                                    0}}));
  bob.insert(3, "!");
  sim.run_until(sim::msec(200));
  EXPECT_EQ(server.doc(), "doc!");
  EXPECT_EQ(bob.doc(), "doc!");
  EXPECT_EQ(alice.doc(), "doc!");
  EXPECT_EQ(forger_got, 0u);
  // Alice keeps editing through her own binding.
  alice.insert(0, ">");
  sim.run_until(sim::msec(300));
  EXPECT_EQ(server.doc(), ">doc!");
  EXPECT_EQ(bob.doc(), ">doc!");
  EXPECT_EQ(alice.doc(), ">doc!");
}

TEST_F(HostileFrames, ConferenceFramesNamingAnotherClientAreDropped) {
  groupware::ConferenceServer server(
      net, {10, 1}, std::make_unique<groupware::TerminalApp>(),
      {.policy = ccontrol::FloorPolicy::kExplicitRelease});
  groupware::ConferenceClient alice(net, {3, 1}, {10, 1}, 1);
  alice.join();
  sim.run_until(sim::msec(50));
  alice.request_floor();
  sim.run_until(sim::msec(100));
  ASSERT_TRUE(alice.has_floor());
  // An endpoint that never joined releases alice's floor, asks for it as
  // id 9 and types as id 9; then it tries to join as alice.
  FifoChannel forger(net, {4, 1});
  std::size_t forger_got = 0;
  forger.on_receive([&](const Address&, std::string_view) { ++forger_got; });
  using groupware::ConferenceMsg;
  forger.send({10, 1},
              util::encode(groupware::ClientMsg{ConferenceMsg::kFloorRel, 1}));
  forger.send({10, 1},
              util::encode(groupware::ClientMsg{ConferenceMsg::kFloorReq, 9}));
  forger.send({10, 1},
              util::encode(groupware::InputMsg{.client = 9, .text = "rm"}));
  forger.send({10, 1},
              util::encode(groupware::ClientMsg{ConferenceMsg::kJoin, 1}));
  sim.run_until(sim::msec(200));
  EXPECT_EQ(server.floor().holder(), std::optional<groupware::ClientId>(1));
  EXPECT_EQ(server.app().display(), "");
  EXPECT_EQ(server.stats().inputs_accepted, 0u);
  EXPECT_EQ(server.member_count(), 1u);
  EXPECT_EQ(forger_got, 0u);
  // Alice still holds the floor and is heard.
  alice.send_input("ls");
  sim.run_until(sim::msec(300));
  EXPECT_EQ(server.app().display(), "ls");
  EXPECT_EQ(alice.display(), "ls");
}

// --- group-channel frames ----------------------------------------------------
//
// Wire types of GroupChannel (the first byte of every frame).
constexpr std::uint8_t kGroupData = 1;
constexpr std::uint8_t kGroupAck = 2;
constexpr std::uint8_t kGroupTotalReq = 3;
constexpr std::uint8_t kGroupSolicit = 4;
constexpr std::uint8_t kGroupRecover = 5;

/// A kData frame: sender slot, per-sender seq, total seq, sequencing
/// epoch, send time, vector clock, payload.
std::string group_data(std::uint32_t sender, std::uint64_t seq,
                       const std::vector<std::uint64_t>& clock,
                       std::string_view payload) {
  util::Writer w;
  w.put(kGroupData).put(sender).put(seq).put(std::uint64_t{0});
  w.put(std::uint32_t{0}).put(sim::TimePoint{0});
  w.write(clock).put_string(payload);
  return w.take();
}

TEST_F(HostileFrames, GroupAckWithAHugeAckerSlotIsIgnored) {
  make_group(groups::Ordering::kFifo);
  members[0]->broadcast("a");
  // Lands while the broadcast still awaits the real acks.
  util::Writer w;
  w.put(kGroupAck).put(std::uint32_t{0}).put(std::uint64_t{1});
  w.put(std::uint32_t{1} << 31);
  forge(0, w.take());
  sim.run();
  EXPECT_EQ(sorted(delivered),
            (std::vector<std::string>{"0:a", "1:a", "2:a"}));
  EXPECT_EQ(members[0]->stats().retransmits, 0u);
  members[1]->broadcast("b");
  sim.run();
  EXPECT_EQ(delivered.size(), 6u);
}

TEST_F(HostileFrames, GroupFramesFromAnOutOfRangeSenderAreDropped) {
  make_group(groups::Ordering::kTotal);
  for (const std::uint32_t sender : {3u, 0xFFFFFFFFu}) {
    util::Writer req;
    req.put(kGroupTotalReq).put(sender).put(std::uint64_t{1});
    req.put(sim::TimePoint{0}).put_string("forged");
    forge(0, req.take());  // slot 0 sequences
    forge(1, group_data(sender, 1, {}, "forged"));
  }
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(peer.received, 0u);  // nothing was acked
  members[1]->broadcast("ok");
  sim.run();
  EXPECT_EQ(sorted(delivered),
            (std::vector<std::string>{"0:ok", "1:ok", "2:ok"}));
}

TEST_F(HostileFrames, TruncatedGroupSolicitIsIgnored) {
  make_group(groups::Ordering::kTotal);
  util::Writer cut;
  cut.put(kGroupSolicit).put(std::uint32_t{0});  // the u64 position is gone
  forge(2, cut.take());
  sim.run();
  EXPECT_EQ(peer.received, 0u);
  // The whole solicit is answered with a recovery summary.
  util::Writer whole;
  whole.put(kGroupSolicit).put(std::uint32_t{0}).put(std::uint64_t{0});
  forge(2, whole.take());
  sim.run();
  EXPECT_EQ(peer.received, 1u);
}

TEST_F(HostileFrames, GroupRecoverSummariesThatLieAreDropped) {
  make_group(groups::Ordering::kTotal);
  // Slot 1 alone learns that the sequencer (slot 0) failed: it takes over
  // and solicits slot 2, whose answers are lost until the link heals.
  net.crash(21);
  net.set_link(23, 22, {.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 0, .loss = 1.0});
  members[1]->mark_failed(group_addrs[0]);
  sim.schedule_at(sim::msec(150), [this] {
    net.set_link(23, 22, {.latency = sim::msec(1), .jitter = 0,
                          .bandwidth_bps = 0, .loss = 0.0});
  });
  // A tail count far beyond a short body, from slot 2.
  util::Writer overrun;
  overrun.put(kGroupRecover).put(std::uint32_t{2}).put(std::uint32_t{0});
  overrun.put(std::uint64_t{0}).put(std::uint32_t{0xFFFFFFFF});
  forge(1, overrun.take());
  // A well-formed summary from a responder slot past the member count,
  // carrying one un-relayed request.
  util::Writer stranger;
  stranger.put(kGroupRecover).put(std::uint32_t{3}).put(std::uint32_t{0});
  stranger.put(std::uint64_t{0}).put(std::uint32_t{0});
  stranger.put(std::uint32_t{1}).put(std::uint64_t{1});
  stranger.put(sim::TimePoint{0}).put(sim::TimePoint{0});
  stranger.put_string("forged-relay");
  forge(1, stranger.take());
  // One complete tail entry from slot 2, then a relay count with no
  // entries behind it.
  util::Writer truncated;
  truncated.put(kGroupRecover).put(std::uint32_t{2}).put(std::uint32_t{0});
  truncated.put(std::uint64_t{0}).put(std::uint32_t{1});
  truncated.put(std::uint32_t{2}).put(std::uint64_t{1});
  truncated.put(std::uint32_t{0}).put(std::uint64_t{1});
  truncated.put(sim::TimePoint{0}).put_string("forged-tail");
  truncated.put(std::uint32_t{5});
  forge(1, truncated.take());
  // Broadcast while recovering: it is sequenced only once the round
  // closes, which none of the forged summaries may do.
  sim.schedule_at(sim::msec(20), [this] { members[1]->broadcast("held"); });
  sim.run_until(sim::msec(100));
  EXPECT_TRUE(delivered.empty());
  sim.run();
  EXPECT_EQ(delivered, (std::vector<std::string>{"1:held", "2:held"}));
}

TEST_F(HostileFrames, GroupDataTruncatedAtEachFieldBoundaryIsDropped) {
  make_group(groups::Ordering::kCausal);
  const std::string frame = group_data(1, 1, {0, 1, 0}, "whole");
  // Ends of: type, sender, seq, total seq, epoch, send time, clock
  // length, clock entries, payload length.
  for (const std::size_t cut : {1, 5, 13, 21, 25, 33, 37, 61, 65}) {
    forge(0, std::string_view(frame).substr(0, cut));
  }
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(peer.received, 0u);
  forge(0, frame);
  sim.run();
  EXPECT_EQ(delivered, (std::vector<std::string>{"0:whole"}));
  EXPECT_EQ(peer.received, 1u);  // the ack
}

TEST_F(HostileFrames, WideVectorClockIsRefusedAndLaterFramesKeepTheirSize) {
  make_group(groups::Ordering::kCausal);
  std::vector<std::size_t> data_sizes;  // slot 0's kData frames on the wire
  net.set_inject_hook([&data_sizes](const Message& m) {
    if (m.src.node == 21 && !m.payload.empty() &&
        static_cast<std::uint8_t>(m.payload[0]) == kGroupData)
      data_sizes.push_back(m.payload.size());
    return InjectDecision{};
  });
  members[0]->broadcast("x");
  sim.run();
  ASSERT_FALSE(data_sizes.empty());
  const std::size_t before = data_sizes.back();
  // From a non-member: 1000 entries, all zero but the sender's own next
  // one, so at this width it would be deliverable.
  std::vector<std::uint64_t> wide(1000, 0);
  wide[1] = 1;
  forge(0, group_data(1, 1, wide, "forged"));
  sim.run();
  EXPECT_EQ(peer.received, 0u);  // neither acked nor deduped
  members[0]->broadcast("y");
  sim.run();
  EXPECT_EQ(data_sizes.back(), before);
  // Slot 1's real seq 1 was not shadowed by the forgery.
  members[1]->broadcast("z");
  sim.run();
  EXPECT_EQ(sorted(delivered),
            (std::vector<std::string>{"0:x", "0:y", "0:z", "1:x", "1:y",
                                      "1:z", "2:x", "2:y", "2:z"}));
}

TEST_F(HostileFrames, TotalOrderFrameFromOutsideItsEpochsSequencerIsDropped) {
  make_group(groups::Ordering::kTotal);
  // Epoch 2 names slot 2 as its sequencer, but the frame comes from a
  // non-member: adopting it would open epoch 2 at slot 2 and shadow the
  // real sequencer's next frames as duplicates.
  util::Writer w;
  w.put(kGroupData).put(std::uint32_t{1}).put(std::uint64_t{1});
  w.put(std::uint64_t{1}).put(std::uint32_t{2}).put(sim::TimePoint{0});
  w.write(std::vector<std::uint64_t>{}).put_string("forged");
  forge(2, w.take());
  sim.run();
  EXPECT_EQ(peer.received, 0u);  // not even acked
  for (int i = 0; i < 5; ++i) members[0]->broadcast("m" + std::to_string(i));
  sim.run();
  EXPECT_EQ(delivered.size(), 15u);
  EXPECT_EQ(std::count(delivered.begin(), delivered.end(), "2:forged"), 0);
  EXPECT_EQ(members[2]->stats().duplicates, 0u);
}

// --- membership frames -------------------------------------------------------

/// A kView frame claiming @p count member addresses but carrying
/// @p carried of them, then an empty ban list.
std::string view_frame(std::uint32_t count, std::size_t carried) {
  util::Writer w;
  w.put(groups::MemberMsg::kView).put(std::uint64_t{99}).put(count);
  for (std::size_t i = 0; i < carried; ++i) w.put(NodeId{7}).put(PortId{1});
  w.put(std::uint32_t{0});
  return w.take();
}

TEST_F(HostileFrames, ViewsWithBadAddressListsAreDropped) {
  groups::MembershipCoordinator coord(net, {50, 1});
  groups::MembershipMember member(net, {51, 1}, {50, 1});
  std::vector<std::uint64_t> views;
  member.on_view([&views](const groups::View& v) { views.push_back(v.id); });
  member.join();
  sim.run_until(sim::msec(50));
  ASSERT_EQ(views, (std::vector<std::uint64_t>{1}));
  // Counts past the frame, and a frame cut inside an address.
  for (const std::string& frame :
       {view_frame(0xFFFFFFFF, 1), view_frame(3, 2),
        view_frame(1, 1).substr(0, 17)}) {
    net.send({.src = peer.self, .dst = {51, 1}, .payload = util::Buf(frame)});
  }
  sim.run_until(sim::msec(100));
  EXPECT_EQ(views, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(peer.received, 0u);  // none was acked
  // Membership goes on: a second member's join installs view 2.
  groups::MembershipMember other(net, {52, 1}, {50, 1});
  other.join();
  sim.run_until(sim::msec(200));
  EXPECT_EQ(views, (std::vector<std::uint64_t>{1, 2}));
}

TEST_F(HostileFrames, ViewFromAnyoneButTheCoordinatorIsDropped) {
  groups::MembershipCoordinator coord(net, {50, 1});
  groups::MembershipMember member(net, {51, 1}, {50, 1});
  std::vector<std::uint64_t> views;
  member.on_view([&views](const groups::View& v) { views.push_back(v.id); });
  member.join();
  sim.run_until(sim::msec(50));
  ASSERT_EQ(views, (std::vector<std::uint64_t>{1}));
  // Well formed and newer than any real view, but not the coordinator's.
  const groups::View forged{99, {peer.self}, {}};
  net.send({.src = peer.self,
            .dst = {51, 1},
            .payload = util::encode(
                groups::ViewMsg{groups::MemberMsg::kView, forged})});
  sim.run_until(sim::msec(100));
  EXPECT_EQ(views, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(peer.received, 0u);  // not acked either
  groups::MembershipMember other(net, {52, 1}, {50, 1});
  other.join();
  sim.run_until(sim::msec(200));
  EXPECT_EQ(views, (std::vector<std::uint64_t>{1, 2}));
}

// --- trader and share-server requests ----------------------------------------

/// Calls @p method on @p server with a raw body and counts refusals.
struct RawCaller {
  RawCaller(Network& net, Address self) : rpc(net, self) {}
  void call(Address server, const std::string& method,
            const std::string& body) {
    rpc.call(server, method, body, [this](const rpc::RpcResult& r) {
      if (!r.ok()) ++refused;
    });
  }
  rpc::RpcClient rpc;
  int refused = 0;
};

TEST_F(HostileFrames, MalformedTraderRequestsAreRefused) {
  rpc::Trader trader(net, {30, 1});
  RawCaller raw(net, {31, 1});
  const rpc::Offer offer{"svc", {5, 5}, {{"room", "ops"}}};
  const std::string whole = util::encode(offer).str();
  raw.call(trader.address(), "export", whole.substr(0, whole.size() - 1));
  util::Writer huge;  // a constraint count far past the body
  huge.put_string("svc").put(std::uint32_t{0xFFFFFFFF});
  raw.call(trader.address(), "import", huge.take());
  raw.call(trader.address(), "withdraw", std::string(3, '\0'));
  sim.run();
  EXPECT_EQ(raw.refused, 3);
  EXPECT_EQ(trader.offer_count(), 0u);
  // Trading goes on.
  rpc::TraderClient client(raw.rpc, trader.address());
  std::uint64_t id = 0;
  client.export_offer(offer, [&id](std::uint64_t got) { id = got; });
  sim.run();
  EXPECT_NE(id, 0u);
  std::vector<rpc::Offer> found;
  client.import("svc", {{"room", "ops"}}, [&found](std::vector<rpc::Offer> o) {
    found = std::move(o);
  });
  sim.run();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].provider, (Address{5, 5}));
}

TEST_F(HostileFrames, MalformedShareServerRequestsChangeNothing) {
  mobile::ShareServer server(net, {40, 1});
  server.store().write("report", "v1");
  RawCaller raw(net, {41, 1});
  util::Writer hoard;  // a key count far past the body
  hoard.put(std::uint32_t{0xFFFFFFFF});
  raw.call(server.address(), "hoard", hoard.take());
  // A bulk log cut inside its second entry: the whole, applicable first
  // entry must not be applied either.
  const std::string bulk =
      util::encode(std::vector<mobile::BulkWrite>{
                       {"report", "forged", server.store().version("report")},
                       {"notes", "forged", 0}})
          .str();
  raw.call(server.address(), "bulk", bulk.substr(0, bulk.size() - 3));
  raw.call(server.address(), "write", util::encode(std::string("report")).str());
  raw.call(server.address(), "read", std::string(2, '\0'));
  sim.run();
  EXPECT_EQ(raw.refused, 4);
  EXPECT_EQ(server.store().read("report"), "v1");
  EXPECT_FALSE(server.store().read("notes").has_value());
  // Reads are still served.
  mobile::MobileHost host(net, {42, 1}, server.address());
  std::optional<std::string> got;
  host.read("report", [&got](bool, std::optional<std::string> v) { got = v; });
  sim.run();
  EXPECT_EQ(got, "v1");
}

}  // namespace
}  // namespace coop::net
