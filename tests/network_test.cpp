// Unit tests for the simulated network: delivery, links, faults, mobility,
// multicast and congestion.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace coop::net {
namespace {

// Records every delivered message with its arrival time.
class Recorder : public Endpoint {
 public:
  explicit Recorder(sim::Simulator& sim) : sim_(sim) {}
  void on_message(const Message& msg) override {
    arrivals.push_back({msg, sim_.now()});
  }
  struct Arrival {
    Message msg;
    sim::TimePoint at;
  };
  std::vector<Arrival> arrivals;

 private:
  sim::Simulator& sim_;
};

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator sim{1};
  Network net{sim};
};

TEST_F(NetworkTest, DeliversUnicastWithLinkLatency) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.set_link(1, 2, {.latency = sim::msec(10), .jitter = 0,
                      .bandwidth_bps = 0 /* infinite */, .loss = 0});
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "hi"});
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 1u);
  EXPECT_EQ(rx.arrivals[0].msg.payload, "hi");
  EXPECT_EQ(rx.arrivals[0].at, sim::msec(10));
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST_F(NetworkTest, ChargesHeaderOverheadInWireSize) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "abcd"});
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 1u);
  EXPECT_EQ(rx.arrivals[0].msg.wire_size, 4 + Message::kHeaderBytes);
}

TEST_F(NetworkTest, NoEndpointCountsAsDrop) {
  net.send({.src = {1, 1}, .dst = {9, 9}, .payload = "x"});
  sim.run();
  EXPECT_EQ(net.stats().dropped_no_endpoint, 1u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST_F(NetworkTest, DetachStopsDelivery) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.detach({2, 1});
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "x"});
  sim.run();
  EXPECT_TRUE(rx.arrivals.empty());
}

TEST_F(NetworkTest, LossDropsApproximatelyTheConfiguredFraction) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.set_link(1, 2, {.latency = sim::usec(10), .jitter = 0,
                      .bandwidth_bps = 1e9, .loss = 0.25});
  const int n = 4000;
  for (int i = 0; i < n; ++i)
    net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "x"});
  sim.run();
  const double rate = static_cast<double>(rx.arrivals.size()) / n;
  EXPECT_NEAR(rate, 0.75, 0.04);
  EXPECT_EQ(net.stats().dropped_loss + net.stats().delivered,
            static_cast<std::uint64_t>(n));
}

TEST_F(NetworkTest, BandwidthQueueingDelaysBackToBackDatagrams) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  // 1000 bytes at 8 kbps = 1 s serialization each; zero propagation.
  net.set_link(1, 2, {.latency = 0, .jitter = 0,
                      .bandwidth_bps = 8000, .loss = 0});
  for (int i = 0; i < 3; ++i) {
    Message m{.src = {1, 1}, .dst = {2, 1}, .payload = ""};
    m.wire_size = 1000;
    net.send(std::move(m));
  }
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 3u);
  EXPECT_EQ(rx.arrivals[0].at, sim::sec(1));
  EXPECT_EQ(rx.arrivals[1].at, sim::sec(2));
  EXPECT_EQ(rx.arrivals[2].at, sim::sec(3));
}

TEST_F(NetworkTest, PartitionBlocksAcrossTheCutOnly) {
  Recorder rx2(sim), rx3(sim);
  net.attach({2, 1}, rx2);
  net.attach({3, 1}, rx3);
  net.partition({1, 2});  // {1,2} vs everyone else
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "same side"});
  net.send({.src = {1, 1}, .dst = {3, 1}, .payload = "across"});
  sim.run();
  EXPECT_EQ(rx2.arrivals.size(), 1u);
  EXPECT_TRUE(rx3.arrivals.empty());
  net.heal_partition();
  net.send({.src = {1, 1}, .dst = {3, 1}, .payload = "healed"});
  sim.run();
  EXPECT_EQ(rx3.arrivals.size(), 1u);
}

TEST_F(NetworkTest, ExplicitTwoSidedPartition) {
  Recorder rx(sim);
  net.attach({5, 1}, rx);
  net.partition({1}, {5});
  net.send({.src = {1, 1}, .dst = {5, 1}, .payload = "x"});
  // Node 7 is in neither side: unaffected.
  Recorder rx7(sim);
  net.attach({7, 1}, rx7);
  net.send({.src = {1, 1}, .dst = {7, 1}, .payload = "y"});
  sim.run();
  EXPECT_TRUE(rx.arrivals.empty());
  EXPECT_EQ(rx7.arrivals.size(), 1u);
}

TEST_F(NetworkTest, CrashedNodeNeitherSendsNorReceives) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.crash(2);
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "to crashed"});
  sim.run();
  EXPECT_TRUE(rx.arrivals.empty());
  net.recover(2);
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "after recover"});
  sim.run();
  EXPECT_EQ(rx.arrivals.size(), 1u);
}

TEST_F(NetworkTest, CrashDuringFlightLosesInFlightMessage) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.set_link(1, 2, {.latency = sim::msec(100), .jitter = 0,
                      .bandwidth_bps = 0, .loss = 0});
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "x"});
  sim.schedule_at(sim::msec(50), [&] { net.crash(2); });
  sim.run();
  EXPECT_TRUE(rx.arrivals.empty());
}

TEST_F(NetworkTest, RestartedNodeRejoinsWithCleanNicState) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  // 1000 bytes at 8 kbps = 1 s serialization each: build an outbound
  // backlog on node 1, then fail-stop it mid-queue.
  net.set_link(1, 2, {.latency = 0, .jitter = 0,
                      .bandwidth_bps = 8000, .loss = 0});
  for (int i = 0; i < 3; ++i) {
    Message m{.src = {1, 1}, .dst = {2, 1}, .payload = ""};
    m.wire_size = 1000;
    net.send(std::move(m));
  }
  sim.schedule_at(sim::msec(500), [&] { net.crash(1); });
  sim.schedule_at(sim::msec(600), [&] { net.restart(1); });
  // Post-restart the NIC serializer is idle: this frame serializes from
  // "now" (arriving at 1.7s), not behind the dead incarnation's backlog
  // (which would have pushed it to 4s).
  sim.schedule_at(sim::msec(700), [&] {
    Message m{.src = {1, 1}, .dst = {2, 1}, .payload = "fresh"};
    m.wire_size = 1000;
    net.send(std::move(m));
  });
  sim.run();
  bool saw_fresh = false;
  for (const auto& a : rx.arrivals) {
    if (a.msg.payload == "fresh") {
      saw_fresh = true;
      EXPECT_EQ(a.at, sim::msec(700) + sim::sec(1));
    }
  }
  EXPECT_TRUE(saw_fresh);
}

TEST_F(NetworkTest, ChecksumIsStampedAndVerified) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "payload"});
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 1u);
  EXPECT_EQ(rx.arrivals[0].msg.checksum, frame_checksum("payload"));
}

// The word-at-a-time checksum's one-word guarantee, exhaustively for every
// single-byte corruption: each position, each nonzero XOR mask, over
// lengths that cross several word boundaries and end on every tail size.
TEST(FrameChecksum, DetectsEverySingleByteCorruption) {
  std::string payload;
  for (std::size_t len = 0; len <= 72; ++len) {
    const std::uint64_t clean = frame_checksum(payload);
    for (std::size_t pos = 0; pos < len; ++pos) {
      for (unsigned mask = 1; mask < 256; ++mask) {
        payload[pos] = static_cast<char>(payload[pos] ^ mask);
        ASSERT_NE(frame_checksum(payload), clean)
            << "len=" << len << " pos=" << pos << " mask=" << mask;
        payload[pos] = static_cast<char>(payload[pos] ^ mask);
      }
    }
    payload.push_back(static_cast<char>(len * 37 + 11));
  }
}

TEST(FrameChecksum, TrailingZeroBytesChangeTheChecksum) {
  using namespace std::string_view_literals;
  EXPECT_NE(frame_checksum(""sv), frame_checksum("\0"sv));
  EXPECT_NE(frame_checksum("a"sv), frame_checksum("a\0"sv));
  EXPECT_NE(frame_checksum("abcdefgh"sv), frame_checksum("abcdefgh\0"sv));
  EXPECT_NE(frame_checksum("abcdefg"sv), frame_checksum("abcdefg\0"sv));
}

TEST_F(NetworkTest, CorruptedFrameIsDroppedBeforeTheEndpoint) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  int frames = 0;
  net.set_inject_hook([&](const Message&) {
    ++frames;
    return InjectDecision{.corrupt = true};
  });
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "mangled"});
  sim.run();
  EXPECT_EQ(frames, 1);
  EXPECT_TRUE(rx.arrivals.empty());
  EXPECT_EQ(net.stats().dropped_corrupt, 1u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST_F(NetworkTest, EmptyPayloadCorruptionStillDetected) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.set_inject_hook(
      [](const Message&) { return InjectDecision{.corrupt = true}; });
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = ""});
  sim.run();
  EXPECT_TRUE(rx.arrivals.empty());
  EXPECT_EQ(net.stats().dropped_corrupt, 1u);
}

TEST_F(NetworkTest, InjectHookDuplicatesAndDelays) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.set_link(1, 2, {.latency = sim::msec(10), .jitter = 0,
                      .bandwidth_bps = 0, .loss = 0});
  net.set_inject_hook([](const Message&) {
    return InjectDecision{.duplicate = true, .extra_delay = sim::msec(5)};
  });
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "twin"});
  sim.run();
  // The original is delayed by 5ms; the duplicate re-enters transmission
  // with injection disabled (no duplicate storms) and no extra delay.
  ASSERT_EQ(rx.arrivals.size(), 2u);
  EXPECT_EQ(rx.arrivals[0].msg.payload, "twin");
  EXPECT_EQ(rx.arrivals[1].msg.payload, "twin");
  EXPECT_EQ(rx.arrivals[0].at, sim::msec(10));  // duplicate, undelayed
  EXPECT_EQ(rx.arrivals[1].at, sim::msec(15));  // original + extra_delay
}

TEST_F(NetworkTest, DisconnectedMobileNodeIsUnreachable) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.set_connectivity(2, Connectivity::kDisconnected);
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "x"});
  sim.run();
  EXPECT_TRUE(rx.arrivals.empty());
  net.set_connectivity(2, Connectivity::kFull);
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "y"});
  sim.run();
  EXPECT_EQ(rx.arrivals.size(), 1u);
}

TEST_F(NetworkTest, PartialConnectivityAppliesRadioModel) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.set_link(1, 2, {.latency = sim::usec(100), .jitter = 0,
                      .bandwidth_bps = 1e9, .loss = 0});
  net.set_radio_model({.latency = sim::msec(200), .jitter = 0,
                       .bandwidth_bps = 1e9, .loss = 0});
  net.set_connectivity(2, Connectivity::kPartial);
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "x"});
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 1u);
  EXPECT_GE(rx.arrivals[0].at, sim::msec(200));
}

TEST_F(NetworkTest, MulticastFansOutToAllMembersExceptSender) {
  Recorder a(sim), b(sim), c(sim);
  net.attach({1, 1}, a);
  net.attach({2, 1}, b);
  net.attach({3, 1}, c);
  const McastId g = 77;
  net.mcast_join(g, {1, 1});
  net.mcast_join(g, {2, 1});
  net.mcast_join(g, {3, 1});
  EXPECT_EQ(net.mcast_size(g), 3u);
  net.multicast(g, {.src = {1, 1}, .dst = {}, .payload = "all"});
  sim.run();
  EXPECT_TRUE(a.arrivals.empty());  // sender excluded
  ASSERT_EQ(b.arrivals.size(), 1u);
  ASSERT_EQ(c.arrivals.size(), 1u);
  EXPECT_TRUE(b.arrivals[0].msg.multicast);
  EXPECT_EQ(b.arrivals[0].msg.group, g);
}

TEST_F(NetworkTest, MulticastLeaveStopsDelivery) {
  Recorder b(sim);
  net.attach({2, 1}, b);
  const McastId g = 5;
  net.mcast_join(g, {2, 1});
  net.mcast_leave(g, {2, 1});
  EXPECT_EQ(net.mcast_size(g), 0u);
  net.multicast(g, {.src = {1, 1}, .dst = {}, .payload = "x"});
  sim.run();
  EXPECT_TRUE(b.arrivals.empty());
}

TEST_F(NetworkTest, MulticastCopiesTraverseDistinctLinks) {
  Recorder near(sim), far(sim);
  net.attach({2, 1}, near);
  net.attach({3, 1}, far);
  net.set_link(1, 2, {.latency = sim::msec(1), .jitter = 0,
                      .bandwidth_bps = 0, .loss = 0});
  net.set_link(1, 3, {.latency = sim::msec(50), .jitter = 0,
                      .bandwidth_bps = 0, .loss = 0});
  const McastId g = 9;
  net.mcast_join(g, {2, 1});
  net.mcast_join(g, {3, 1});
  net.multicast(g, {.src = {1, 1}, .dst = {}, .payload = "x"});
  sim.run();
  ASSERT_EQ(near.arrivals.size(), 1u);
  ASSERT_EQ(far.arrivals.size(), 1u);
  EXPECT_EQ(near.arrivals[0].at, sim::msec(1));
  EXPECT_EQ(far.arrivals[0].at, sim::msec(50));
}

TEST_F(NetworkTest, LinkStateTracksTraffic) {
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.send({.src = {1, 1}, .dst = {2, 1}, .payload = "abc"});
  sim.run();
  const LinkState* ls = net.link_state(1, 2);
  ASSERT_NE(ls, nullptr);
  EXPECT_EQ(ls->sent, 1u);
  EXPECT_EQ(ls->bytes, 3 + Message::kHeaderBytes);
}

TEST_F(NetworkTest, JitterReordersIndependentMessages) {
  // With large jitter, two messages sent back-to-back can arrive out of
  // order — the property the FIFO/causal layers exist to repair.
  Recorder rx(sim);
  net.attach({2, 1}, rx);
  net.set_link(1, 2, {.latency = sim::msec(10), .jitter = sim::msec(9),
                      .bandwidth_bps = 0, .loss = 0});
  bool reordered = false;
  for (int trial = 0; trial < 200 && !reordered; ++trial) {
    rx.arrivals.clear();
    char seq0 = '0';
    net.send({.src = {1, 1}, .dst = {2, 1}, .payload = std::string(1, seq0)});
    net.send({.src = {1, 1}, .dst = {2, 1},
              .payload = std::string(1, static_cast<char>(seq0 + 1))});
    sim.run();
    if (rx.arrivals.size() == 2 && rx.arrivals[0].msg.payload == "1")
      reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(LinkModelTest, SerializeTimeMatchesBandwidth) {
  LinkModel m{.latency = 0, .jitter = 0, .bandwidth_bps = 1e6, .loss = 0};
  EXPECT_EQ(m.serialize_time(125), sim::msec(1));  // 1000 bits at 1 Mbps
  LinkModel inf{.latency = 0, .jitter = 0, .bandwidth_bps = 0, .loss = 0};
  EXPECT_EQ(inf.serialize_time(1'000'000), 0);
}

TEST(LinkModelTest, PresetsAreOrderedByDistance) {
  EXPECT_LT(LinkModel::lan().latency, LinkModel::wan().latency);
  EXPECT_LT(LinkModel::wan().latency, LinkModel::intercontinental().latency);
  EXPECT_GT(LinkModel::lan().bandwidth_bps, LinkModel::radio().bandwidth_bps);
}

}  // namespace
}  // namespace coop::net
