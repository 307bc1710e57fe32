// Cross-module property tests: randomized sweeps checking invariants
// against oracles — percentiles vs std::nth_element, codec robustness on
// garbage, FIFO-channel exactness under chaos, causal ordering vs true
// happened-before, and membership churn convergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "groups/group_channel.hpp"
#include "groups/membership.hpp"
#include "net/fifo_channel.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"
#include "util/stats.hpp"

namespace coop {
namespace {

// --- Summary vs oracle -------------------------------------------------------

class SummaryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SummaryProperty, PercentilesMatchNthElementOracle) {
  sim::Rng rng(GetParam());
  util::Summary s;
  std::vector<double> data;
  const int n = static_cast<int>(rng.uniform_int(1, 500));
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(100, 40);
    s.add(x);
    data.push_back(x);
  }
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    std::vector<double> copy = data;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(copy.size() - 1) + 0.5);
    const auto idx = std::min(rank, copy.size() - 1);
    std::nth_element(copy.begin(), copy.begin() + static_cast<long>(idx),
                     copy.end());
    EXPECT_DOUBLE_EQ(s.percentile(q), copy[idx]) << "q=" << q << " n=" << n;
  }
  // Mean oracle.
  double sum = 0;
  for (double x : data) sum += x;
  EXPECT_NEAR(s.mean(), sum / n, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Codec robustness ----------------------------------------------------------

TEST(CodecProperty, RandomGarbageNeverCrashesAndAlwaysTerminates) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string garbage;
    const int len = static_cast<int>(rng.uniform_int(0, 64));
    for (int i = 0; i < len; ++i)
      garbage.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    util::Reader r(garbage);
    // Interleave reads of every kind; the reader must stay in-bounds and
    // the failure flag must be monotone.
    bool was_failed = false;
    for (int op = 0; op < 8; ++op) {
      switch (rng.uniform_int(0, 3)) {
        case 0: r.get<std::uint64_t>(); break;
        case 1: r.get_string(); break;
        case 2: {
          std::vector<std::uint8_t> bytes;
          r.read(bytes);
          break;
        }
        default: {
          std::vector<std::uint32_t> v;
          r.read(v);
          break;
        }
      }
      if (was_failed) {
        EXPECT_TRUE(r.failed());  // sticky
      }
      was_failed = r.failed();
    }
    EXPECT_LE(r.remaining(), garbage.size());
  }
}

TEST(CodecProperty, WriterReaderRoundTripRandomSequences) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    util::Writer w;
    std::vector<int> kinds;
    std::vector<std::uint64_t> ints;
    std::vector<std::string> strings;
    const int ops = static_cast<int>(rng.uniform_int(1, 20));
    for (int i = 0; i < ops; ++i) {
      if (rng.bernoulli(0.5)) {
        kinds.push_back(0);
        ints.push_back(rng.next());
        w.put(ints.back());
      } else {
        kinds.push_back(1);
        std::string s;
        const int len = static_cast<int>(rng.uniform_int(0, 32));
        for (int c = 0; c < len; ++c)
          s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        strings.push_back(s);
        w.put_string(s);
      }
    }
    const std::string buf = w.take();
    util::Reader r(buf);
    std::size_t ii = 0, si = 0;
    for (int kind : kinds) {
      if (kind == 0) {
        EXPECT_EQ(r.get<std::uint64_t>(), ints[ii++]);
      } else {
        EXPECT_EQ(r.get_string(), strings[si++]);
      }
    }
    EXPECT_TRUE(r.exhausted());
  }
}

// --- FIFO channel chaos ---------------------------------------------------------

class FifoChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FifoChaos, ExactlyOnceInOrderUnderLossJitterAndFlaps) {
  sim::Simulator sim(GetParam());
  net::Network net(sim);
  net.set_default_link({.latency = sim::msec(10), .jitter = sim::msec(8),
                        .bandwidth_bps = 5e6, .loss = 0.15});
  net::FifoChannel a(net, {1, 1});
  net::FifoChannel b(net, {2, 1});
  std::vector<std::string> got;
  b.on_receive([&](const net::Address&, std::string_view p) {
    got.emplace_back(p);
  });
  const int kMsgs = 120;
  std::vector<std::string> sent_order;
  for (int i = 0; i < kMsgs; ++i) {
    sim.schedule_at(
        static_cast<sim::TimePoint>(sim.rng().uniform_int(0, sim::sec(5))),
        [&a, &sent_order, i] {
          sent_order.push_back(std::to_string(i));
          a.send({2, 1}, std::to_string(i));
        });
  }
  // A mid-run connectivity flap.
  sim.schedule_at(sim::sec(2), [&net] { net.partition({1}, {2}); });
  sim.schedule_at(sim::sec(4), [&net] { net.heal_partition(); });
  sim.run_until(sim::sec(60));
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMsgs));
  EXPECT_EQ(got, sent_order);  // exactly once, in send order
}

INSTANTIATE_TEST_SUITE_P(Seeds, FifoChaos,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// --- causal order vs true happened-before ---------------------------------------

// Build a causality oracle: message ids carry (sender, seq); each member,
// on delivering m and later broadcasting m', establishes m -> m'.  The
// property: no member delivers m' before any m with m -> m'.
class CausalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CausalProperty, DeliveryRespectsHappenedBefore) {
  sim::Simulator sim(GetParam());
  net::Network net(sim);
  net.set_default_link({.latency = sim::msec(5), .jitter = sim::msec(4),
                        .bandwidth_bps = 10e6, .loss = 0.08});
  const std::size_t n = 4;
  std::vector<net::Address> addrs;
  for (std::size_t i = 0; i < n; ++i)
    addrs.push_back({static_cast<net::NodeId>(i + 1), 10});

  groups::ChannelConfig config{.ordering = groups::Ordering::kCausal,
                               .retransmit_timeout = sim::msec(25),
                               .max_retransmits = 60};
  std::vector<std::unique_ptr<groups::GroupChannel>> chans;
  for (std::size_t i = 0; i < n; ++i)
    chans.push_back(
        std::make_unique<groups::GroupChannel>(net, addrs[i], 9, config));

  using MsgId = std::pair<std::size_t, std::uint64_t>;  // (sender, seq)
  // deps[m] = set of messages delivered at m's sender before m was sent.
  std::map<MsgId, std::set<MsgId>> deps;
  std::vector<std::vector<MsgId>> delivered(n);
  std::vector<std::set<MsgId>> seen_at(n);

  for (std::size_t i = 0; i < n; ++i) {
    chans[i]->set_members(addrs);
    chans[i]->on_deliver([&, i](const groups::Delivery& d) {
      const MsgId id{d.sender, d.seq};
      delivered[i].push_back(id);
      seen_at[i].insert(id);
    });
  }

  // Random broadcasts; each new message depends on everything its sender
  // has delivered so far.
  for (int round = 0; round < 40; ++round) {
    sim.schedule_at(round * sim::msec(15), [&, round] {
      const auto who = static_cast<std::size_t>(
          sim.rng().uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const std::uint64_t seq =
          chans[who]->broadcast("r" + std::to_string(round));
      // The local echo already delivered it to `who`; remove self from deps.
      std::set<MsgId> d = seen_at[who];
      d.erase({who, seq});
      deps[{who, seq}] = std::move(d);
    });
  }
  sim.run();

  // Everyone delivered everything...
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(delivered[i].size(), 40u) << "member " << i;
  // ...and never before a causal predecessor.
  for (std::size_t i = 0; i < n; ++i) {
    std::set<MsgId> so_far;
    for (const MsgId& m : delivered[i]) {
      for (const MsgId& dep : deps[m]) {
        EXPECT_TRUE(so_far.count(dep) != 0)
            << "member " << i << " delivered (" << m.first << ","
            << m.second << ") before its dependency (" << dep.first << ","
            << dep.second << ")";
      }
      so_far.insert(m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CausalProperty,
                         ::testing::Values(3u, 13u, 23u, 33u, 43u));

// --- sequencer failover agreement --------------------------------------------------

class FailoverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailoverProperty, SurvivorsAgreeOnPostFailoverOrder) {
  sim::Simulator sim(GetParam());
  net::Network net(sim);
  net.set_default_link({.latency = sim::msec(4), .jitter = sim::msec(3),
                        .bandwidth_bps = 10e6, .loss = 0.05});
  const std::size_t n = 5;
  std::vector<net::Address> addrs;
  for (std::size_t i = 0; i < n; ++i)
    addrs.push_back({static_cast<net::NodeId>(i + 1), 10});
  groups::ChannelConfig config{.ordering = groups::Ordering::kTotal,
                               .retransmit_timeout = sim::msec(30),
                               .max_retransmits = 40};
  std::vector<std::unique_ptr<groups::GroupChannel>> chans;
  std::vector<std::vector<std::string>> logs(n);
  for (std::size_t i = 0; i < n; ++i)
    chans.push_back(
        std::make_unique<groups::GroupChannel>(net, addrs[i], 4, config));
  for (std::size_t i = 0; i < n; ++i) {
    chans[i]->set_members(addrs);
    chans[i]->on_deliver([&logs, i](const groups::Delivery& d) {
      logs[i].push_back(d.payload);
    });
  }

  // Random broadcasts before, during and after the sequencer crash.
  for (int round = 0; round < 30; ++round) {
    sim.schedule_at(
        static_cast<sim::TimePoint>(sim.rng().uniform_int(0, sim::sec(2))),
        [&, round] {
          const auto who = static_cast<std::size_t>(
              sim.rng().uniform_int(1, static_cast<std::int64_t>(n) - 1));
          chans[who]->broadcast("m" + std::to_string(round));
        });
  }
  sim.schedule_at(sim::sec(1), [&] {
    net.crash(1);
    for (std::size_t i = 1; i < n; ++i)
      chans[i]->mark_failed(addrs[0]);
  });
  sim.run();

  // Survivors delivered identical sequences (pre- and post-failover
  // combined, from the survivors' perspective).
  for (std::size_t i = 2; i < n; ++i) {
    EXPECT_EQ(logs[i], logs[1]) << "survivor " << i << " diverged, seed "
                                << GetParam();
  }
  // Liveness: messages sent comfortably after the failover all arrived.
  EXPECT_GE(logs[1].size(), 25u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverProperty,
                         ::testing::Values(7u, 17u, 27u, 37u, 47u, 57u));

// --- membership churn -----------------------------------------------------------

class ChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnProperty, ViewConvergesToLiveJoinedMembers) {
  sim::Simulator sim(GetParam());
  net::Network net(sim);
  net.set_default_link({.latency = sim::msec(3), .jitter = sim::msec(2),
                        .bandwidth_bps = 10e6, .loss = 0.05});
  groups::MembershipConfig cfg;
  cfg.failure_timeout = sim::msec(800);
  groups::MembershipCoordinator coord(net, {100, 1}, cfg);

  const int kMembers = 6;
  std::vector<std::unique_ptr<groups::MembershipMember>> members;
  std::vector<bool> wants_in(kMembers, false);
  std::vector<bool> crashed(kMembers, false);
  for (int i = 0; i < kMembers; ++i) {
    members.push_back(std::make_unique<groups::MembershipMember>(
        net, net::Address{static_cast<net::NodeId>(i + 1), 1},
        net::Address{100, 1}, cfg));
  }

  // Random churn for 20 virtual seconds: joins, leaves, crashes,
  // recoveries (recovered members re-join).
  for (int step = 0; step < 60; ++step) {
    sim.schedule_at(step * sim::msec(300), [&, step] {
      const auto i = static_cast<std::size_t>(
          sim.rng().uniform_int(0, kMembers - 1));
      const auto node = static_cast<net::NodeId>(i + 1);
      switch (sim.rng().uniform_int(0, 3)) {
        case 0:
          if (!crashed[i]) {
            members[i]->join();
            wants_in[i] = true;
          }
          break;
        case 1:
          if (!crashed[i]) {
            members[i]->leave();
            wants_in[i] = false;
          }
          break;
        case 2:
          net.crash(node);
          crashed[i] = true;
          break;
        default:
          if (crashed[i]) {
            net.recover(node);
            crashed[i] = false;
            if (wants_in[i]) members[i]->join();
          }
          break;
      }
    });
  }
  // Quiescence: let the failure detector and join-retries settle.
  sim.run_until(sim::sec(40));

  std::set<net::Address> expected;
  for (int i = 0; i < kMembers; ++i) {
    if (wants_in[i] && !crashed[i])
      expected.insert({static_cast<net::NodeId>(i + 1), 1});
  }
  std::set<net::Address> actual(coord.view().members.begin(),
                                coord.view().members.end());
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnProperty,
                         ::testing::Values(5u, 15u, 25u, 35u));

// --- whole-platform determinism ------------------------------------------------

// The reproducibility contract everything else rests on: the same seed
// and scenario yield byte-identical traffic statistics and delivery logs.
TEST(DeterminismProperty, IdenticalSeedsReplayIdentically) {
  auto run_scenario = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    net::Network net(sim);
    net.set_default_link({.latency = sim::msec(5), .jitter = sim::msec(4),
                          .bandwidth_bps = 5e6, .loss = 0.1});
    std::vector<net::Address> addrs = {{1, 1}, {2, 1}, {3, 1}};
    std::vector<std::unique_ptr<groups::GroupChannel>> chans;
    for (const auto& a : addrs)
      chans.push_back(std::make_unique<groups::GroupChannel>(
          net, a, 1,
          groups::ChannelConfig{.ordering = groups::Ordering::kTotal,
                                .retransmit_timeout = sim::msec(25),
                                .max_retransmits = 30}));
    std::vector<std::pair<sim::TimePoint, std::string>> trace;
    for (auto& c : chans) {
      c->set_members(addrs);
      c->on_deliver([&trace, &sim](const groups::Delivery& d) {
        trace.emplace_back(sim.now(), d.payload);
      });
    }
    for (int i = 0; i < 30; ++i) {
      sim.schedule_at(
          static_cast<sim::TimePoint>(sim.rng().uniform_int(0, sim::sec(1))),
          [&chans, &sim, i] {
            chans[static_cast<std::size_t>(
                      sim.rng().uniform_int(0, 2))]
                ->broadcast("m" + std::to_string(i));
          });
    }
    sim.run();
    return std::make_tuple(trace, net.stats().sent, net.stats().delivered,
                           net.stats().bytes_sent, sim.events_processed());
  };
  EXPECT_EQ(run_scenario(2024), run_scenario(2024));
  EXPECT_NE(std::get<4>(run_scenario(2024)),
            std::get<4>(run_scenario(2025)));
}

// --- network accounting -----------------------------------------------------------

TEST(NetworkProperty, LinkByteAccountingMatchesTraffic) {
  sim::Simulator sim(1);
  net::Network net(sim);
  struct Sink : net::Endpoint {
    void on_message(const net::Message&) override {}
  } sink;
  net.attach({2, 1}, sink);
  std::uint64_t expected = 0;
  sim::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    net::Message m{.src = {1, 1}, .dst = {2, 1}, .payload = {}};
    m.wire_size = static_cast<std::size_t>(rng.uniform_int(40, 2000));
    expected += m.wire_size;
    net.send(std::move(m));
  }
  sim.run();
  const auto* ls = net.link_state(1, 2);
  ASSERT_NE(ls, nullptr);
  EXPECT_EQ(ls->bytes, expected);
  EXPECT_EQ(net.stats().bytes_sent, expected);
  EXPECT_EQ(net.stats().delivered + net.stats().dropped_loss, 100u);
}

}  // namespace
}  // namespace coop
