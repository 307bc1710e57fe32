// Tests for the reliable in-order point-to-point channel.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/fifo_channel.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace coop::net {
namespace {

class FifoTest : public ::testing::Test {
 protected:
  FifoTest()
      : sim(17), net(sim), a(net, {1, 1}), b(net, {2, 1}) {
    b.on_receive([this](const Address& from, std::string_view p) {
      from_b.emplace_back(from, p);
    });
    a.on_receive([this](const Address& from, std::string_view p) {
      from_a.emplace_back(from, p);
    });
  }

  sim::Simulator sim;
  Network net;
  FifoChannel a, b;
  std::vector<std::pair<Address, std::string>> from_a, from_b;
};

TEST_F(FifoTest, DeliversInOrderOnCleanLink) {
  for (int i = 0; i < 10; ++i) a.send({2, 1}, std::to_string(i));
  sim.run();
  ASSERT_EQ(from_b.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(from_b[static_cast<size_t>(i)].second, std::to_string(i));
}

TEST_F(FifoTest, RepairsReorderingFromJitter) {
  net.set_default_link({.latency = sim::msec(10), .jitter = sim::msec(9),
                        .bandwidth_bps = 0, .loss = 0});
  for (int i = 0; i < 50; ++i) a.send({2, 1}, std::to_string(i));
  sim.run();
  ASSERT_EQ(from_b.size(), 50u);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(from_b[static_cast<size_t>(i)].second, std::to_string(i));
}

TEST_F(FifoTest, SurvivesHeavyLoss) {
  net.set_default_link({.latency = sim::msec(3), .jitter = sim::msec(1),
                        .bandwidth_bps = 10e6, .loss = 0.35});
  for (int i = 0; i < 30; ++i) a.send({2, 1}, std::to_string(i));
  sim.run();
  ASSERT_EQ(from_b.size(), 30u);
  for (int i = 0; i < 30; ++i)
    EXPECT_EQ(from_b[static_cast<size_t>(i)].second, std::to_string(i));
  EXPECT_GT(a.stats().retransmits, 0u);
  EXPECT_EQ(a.unacked({2, 1}), 0u);
}

TEST_F(FifoTest, BidirectionalTrafficIsIndependent) {
  a.send({2, 1}, "ping");
  b.send({1, 1}, "pong");
  sim.run();
  ASSERT_EQ(from_b.size(), 1u);
  ASSERT_EQ(from_a.size(), 1u);
  EXPECT_EQ(from_b[0].second, "ping");
  EXPECT_EQ(from_a[0].second, "pong");
}

TEST_F(FifoTest, MultiplexesSeveralPeers) {
  FifoChannel c(net, {3, 1});
  std::vector<std::string> at_c;
  c.on_receive([&](const Address&, std::string_view p) {
    at_c.emplace_back(p);
  });
  a.send({2, 1}, "to-b");
  a.send({3, 1}, "to-c");
  sim.run();
  ASSERT_EQ(from_b.size(), 1u);
  ASSERT_EQ(at_c.size(), 1u);
  EXPECT_EQ(at_c[0], "to-c");
}

TEST_F(FifoTest, DuplicatesAreDropped) {
  // Force retransmission by making the reverse (ack) path lossy.
  net.set_link(2, 1, {.latency = sim::msec(3), .jitter = 0,
                      .bandwidth_bps = 10e6, .loss = 0.9});
  a.send({2, 1}, "once");
  sim.run();
  EXPECT_EQ(from_b.size(), 1u);
  EXPECT_GT(b.stats().duplicates, 0u);
}

TEST_F(FifoTest, BoundedConfigGivesUpAgainstCrashedPeer) {
  FifoChannel bounded(net, {4, 1},
                      {.retransmit_timeout = sim::msec(20),
                       .max_retransmit_timeout = sim::msec(100),
                       .max_retransmits = 5});
  net.crash(2);
  bounded.send({2, 1}, "doomed");
  sim.run();
  EXPECT_EQ(bounded.stats().gave_up, 1u);
  EXPECT_EQ(bounded.unacked({2, 1}), 0u);
}

TEST_F(FifoTest, DefaultPersistsThroughLongPartitionAndRecovers) {
  // The default channel never gives up: a 30 s partition delays the
  // stream, it does not break it — and backoff keeps the retry chatter
  // bounded while the partition lasts.
  net.partition({1}, {2});
  a.send({2, 1}, "patient");
  a.send({2, 1}, "messages");
  sim.run_until(sim::sec(30));
  EXPECT_TRUE(from_b.empty());
  EXPECT_EQ(a.stats().gave_up, 0u);
  const auto chatter = a.stats().retransmits;
  EXPECT_LE(chatter, 60u);  // backoff keeps it ~1 per 3 s eventually
  net.heal_partition();
  sim.run_until(sim::sec(40));
  ASSERT_EQ(from_b.size(), 2u);
  EXPECT_EQ(from_b[0].second, "patient");
  EXPECT_EQ(from_b[1].second, "messages");
}

TEST_F(FifoTest, CrashRestartResynchronizesThroughEpochs) {
  net.set_default_link({.latency = sim::msec(5), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0});
  FifoChannel sender(net, {5, 1}, {.retransmit_timeout = sim::msec(20)});
  auto receiver = std::make_unique<FifoChannel>(net, net::Address{6, 1});
  std::vector<std::string> got;
  receiver->on_receive(
      [&](const Address&, std::string_view p) { got.emplace_back(p); });

  sender.send({6, 1}, "one");
  sender.send({6, 1}, "two");
  sim.run_until(sim::msec(100));
  EXPECT_EQ(got.size(), 2u);

  // Fail-stop the receiver process: its channel object dies with it, and
  // the sender keeps retransmitting into the void.
  net.crash(6);
  receiver.reset();
  sender.send({6, 1}, "three");
  sender.send({6, 1}, "four");
  sim.run_until(sim::msec(300));
  EXPECT_EQ(sender.unacked({6, 1}), 2u);

  // Restart: a fresh incarnation with a bumped epoch announces itself.
  net.restart(6);
  receiver = std::make_unique<FifoChannel>(net, net::Address{6, 1},
                                           FifoConfig{.epoch = 2});
  receiver->on_receive(
      [&](const Address&, std::string_view p) { got.emplace_back(p); });
  receiver->resync({5, 1});
  sim.run_until(sim::sec(2));

  // The sender renumbered its outstanding backlog from 1 under a fresh
  // epoch; the new incarnation received it in order, exactly once.
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[2], "three");
  EXPECT_EQ(got[3], "four");
  EXPECT_EQ(sender.unacked({6, 1}), 0u);

  // The resynchronized stream keeps working in both directions.
  std::vector<std::string> at_sender;
  sender.on_receive(
      [&](const Address&, std::string_view p) { at_sender.emplace_back(p); });
  sender.send({6, 1}, "five");
  receiver->send({5, 1}, "reply");
  sim.run_until(sim::sec(3));
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[4], "five");
  ASSERT_EQ(at_sender.size(), 1u);
  EXPECT_EQ(at_sender[0], "reply");
}

TEST_F(FifoTest, HelloRetriesThroughAPartition) {
  net.set_default_link({.latency = sim::msec(5), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0});
  FifoChannel sender(net, {5, 1}, {.retransmit_timeout = sim::msec(20)});
  auto receiver = std::make_unique<FifoChannel>(net, net::Address{6, 1});
  std::vector<std::string> got;
  sender.send({6, 1}, "backlog");
  sim.run_until(sim::msec(100));

  net.crash(6);
  receiver.reset();
  sender.send({6, 1}, "pending");
  sim.run_until(sim::msec(200));

  // The restarted incarnation comes back *inside* a partition: its hello
  // cannot get through until the heal, so it must be retried.
  net.restart(6);
  net.partition({5}, {6});
  receiver = std::make_unique<FifoChannel>(
      net, net::Address{6, 1},
      FifoConfig{.retransmit_timeout = sim::msec(20), .epoch = 2});
  receiver->on_receive(
      [&](const Address&, std::string_view p) { got.emplace_back(p); });
  receiver->resync({5, 1});
  sim.run_until(sim::msec(400));
  EXPECT_TRUE(got.empty());

  net.heal_partition();
  sim.run_until(sim::sec(3));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "pending");
  EXPECT_EQ(sender.unacked({6, 1}), 0u);
}

TEST_F(FifoTest, BackoffJitterDecorrelatesButStaysReliable) {
  const auto delivery_fingerprint = [](double jitter) {
    sim::Simulator s(23);
    Network n(s);
    n.set_default_link({.latency = sim::msec(3), .jitter = sim::msec(1),
                        .bandwidth_bps = 10e6, .loss = 0.35});
    FifoChannel tx(n, {1, 1},
                   {.retransmit_timeout = sim::msec(20),
                    .backoff_jitter = jitter});
    FifoChannel rv(n, {2, 1});
    std::string fp;
    rv.on_receive([&](const Address&, std::string_view p) {
      fp += std::string(p) + "@" + std::to_string(s.now()) + ";";
    });
    for (int i = 0; i < 15; ++i) tx.send({2, 1}, std::to_string(i));
    s.run_until(sim::sec(10));
    return fp;
  };
  // Jittered retries still deliver everything in order...
  const std::string jittered = delivery_fingerprint(0.3);
  for (int i = 0; i < 15; ++i) {
    EXPECT_NE(jittered.find(std::to_string(i) + "@"), std::string::npos);
  }
  // ...deterministically (same seed, same schedule)...
  EXPECT_EQ(jittered, delivery_fingerprint(0.3));
  // ...and the knob actually changes the timings (opt-in, not a no-op).
  EXPECT_NE(jittered, delivery_fingerprint(0.0));
}

}  // namespace
}  // namespace coop::net
