// Tests for reliable ordered group communication, including property-style
// randomized sweeps over lossy, jittery networks.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "groups/group_channel.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace coop::groups {
namespace {

struct Member {
  std::unique_ptr<GroupChannel> chan;
  std::vector<Delivery> log;
};

/// Builds an n-member group on one mcast id with the given config.
class Harness {
 public:
  Harness(std::size_t n, ChannelConfig config, std::uint64_t seed = 1)
      : sim(seed), net(sim) {
    std::vector<net::Address> addrs;
    for (std::size_t i = 0; i < n; ++i)
      addrs.push_back({static_cast<net::NodeId>(i + 1), 10});
    for (std::size_t i = 0; i < n; ++i) {
      auto m = std::make_unique<Member>();
      m->chan = std::make_unique<GroupChannel>(net, addrs[i], 42, config);
      members.push_back(std::move(m));
    }
    for (auto& m : members) {
      m->chan->set_members(addrs);
      Member* mp = m.get();
      m->chan->on_deliver([mp](const Delivery& d) { mp->log.push_back(d); });
    }
  }

  std::vector<std::string> payloads(std::size_t member) const {
    std::vector<std::string> out;
    for (const auto& d : members[member]->log) out.push_back(d.payload);
    return out;
  }

  sim::Simulator sim;
  net::Network net;
  std::vector<std::unique_ptr<Member>> members;
};

TEST(GroupChannel, BroadcastReachesAllMembersIncludingSelf) {
  Harness h(3, {.ordering = Ordering::kFifo});
  h.members[0]->chan->broadcast("hello");
  h.sim.run();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(h.members[i]->log.size(), 1u) << "member " << i;
    EXPECT_EQ(h.members[i]->log[0].payload, "hello");
    EXPECT_EQ(h.members[i]->log[0].sender, 0u);
  }
}

TEST(GroupChannel, SelfIndexMatchesMemberListPosition) {
  Harness h(3, {});
  EXPECT_EQ(h.members[0]->chan->self_index(), 0u);
  EXPECT_EQ(h.members[2]->chan->self_index(), 2u);
  EXPECT_EQ(h.members[0]->chan->member_count(), 3u);
}

TEST(GroupChannel, DeliveryCarriesOriginalSendTime) {
  Harness h(2, {});
  h.sim.run_until(sim::msec(500));
  h.members[0]->chan->broadcast("x");
  h.sim.run();
  ASSERT_EQ(h.members[1]->log.size(), 1u);
  EXPECT_EQ(h.members[1]->log[0].sent_at, sim::msec(500));
}

TEST(GroupChannel, ReliableUnderHeavyLoss) {
  Harness h(3, {.ordering = Ordering::kFifo,
                .retransmit_timeout = sim::msec(20),
                .max_retransmits = 50});
  h.net.set_default_link({.latency = sim::msec(2), .jitter = sim::msec(1),
                          .bandwidth_bps = 10e6, .loss = 0.30});
  for (int i = 0; i < 20; ++i)
    h.members[0]->chan->broadcast("m" + std::to_string(i));
  h.sim.run();
  for (std::size_t m = 1; m < 3; ++m) {
    ASSERT_EQ(h.members[m]->log.size(), 20u) << "member " << m;
    for (int i = 0; i < 20; ++i)
      EXPECT_EQ(h.members[m]->log[static_cast<size_t>(i)].payload,
                "m" + std::to_string(i));
  }
  EXPECT_GT(h.members[0]->chan->stats().retransmits, 0u);
}

TEST(GroupChannel, DuplicatesAreSuppressed) {
  Harness h(2, {.ordering = Ordering::kUnordered,
                .retransmit_timeout = sim::msec(5),  // fires before acks
                .max_retransmits = 20});
  // Slow link: the ack returns long after several retransmits went out.
  h.net.set_default_link({.latency = sim::msec(30), .jitter = 0,
                          .bandwidth_bps = 10e6, .loss = 0.0});
  h.members[0]->chan->broadcast("once");
  h.sim.run();
  EXPECT_EQ(h.members[1]->log.size(), 1u);
  EXPECT_GT(h.members[1]->chan->stats().duplicates, 0u);
}

TEST(GroupChannel, FifoOrderingRepairsNetworkReorder) {
  Harness h(2, {.ordering = Ordering::kFifo}, /*seed=*/7);
  h.net.set_default_link({.latency = sim::msec(10), .jitter = sim::msec(9),
                          .bandwidth_bps = 0, .loss = 0});
  for (int i = 0; i < 50; ++i)
    h.members[0]->chan->broadcast(std::to_string(i));
  h.sim.run();
  ASSERT_EQ(h.members[1]->log.size(), 50u);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(h.members[1]->log[static_cast<size_t>(i)].payload,
              std::to_string(i));
}

TEST(GroupChannel, UnorderedMayDeliverOutOfOrder) {
  bool reordered = false;
  for (std::uint64_t seed = 1; seed < 30 && !reordered; ++seed) {
    Harness h(2, {.ordering = Ordering::kUnordered}, seed);
    h.net.set_default_link({.latency = sim::msec(10), .jitter = sim::msec(9),
                            .bandwidth_bps = 0, .loss = 0});
    for (int i = 0; i < 20; ++i)
      h.members[0]->chan->broadcast(std::to_string(i));
    h.sim.run();
    auto got = h.payloads(1);
    std::vector<std::string> want;
    for (int i = 0; i < 20; ++i) want.push_back(std::to_string(i));
    if (got != want) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(GroupChannel, CausalOrderingHonoursReplyAfterQuestion) {
  // Classic scenario: member 0 asks, member 1 replies; member 2 must never
  // see the reply before the question, whatever the link speeds.
  Harness h(3, {.ordering = Ordering::kCausal});
  // Make 0 -> 2 slow and 1 -> 2 fast so the raw network would invert them.
  h.net.set_link(1, 3, {.latency = sim::msec(80), .jitter = 0,
                        .bandwidth_bps = 0, .loss = 0});
  h.net.set_link(2, 3, {.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 0, .loss = 0});
  h.members[1]->chan->on_deliver([&](const Delivery& d) {
    h.members[1]->log.push_back(d);
    if (d.payload == "question") h.members[1]->chan->broadcast("reply");
  });
  h.members[0]->chan->broadcast("question");
  h.sim.run();
  const auto got = h.payloads(2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "question");
  EXPECT_EQ(got[1], "reply");
}

TEST(GroupChannel, TotalOrderAgreesAtAllMembersUnderConcurrency) {
  Harness h(4, {.ordering = Ordering::kTotal,
                .retransmit_timeout = sim::msec(30),
                .max_retransmits = 30},
            /*seed=*/3);
  h.net.set_default_link({.latency = sim::msec(5), .jitter = sim::msec(4),
                          .bandwidth_bps = 10e6, .loss = 0.05});
  // Every member broadcasts concurrently; all must deliver identically.
  for (int round = 0; round < 10; ++round) {
    for (std::size_t m = 0; m < 4; ++m) {
      h.sim.schedule_at(sim::msec(round * 10), [&h, m, round] {
        h.members[m]->chan->broadcast("r" + std::to_string(round) + "m" +
                                      std::to_string(m));
      });
    }
  }
  h.sim.run();
  const auto reference = h.payloads(0);
  EXPECT_EQ(reference.size(), 40u);
  for (std::size_t m = 1; m < 4; ++m) {
    EXPECT_EQ(h.payloads(m), reference) << "member " << m << " diverged";
  }
  // Total sequence numbers must be strictly increasing at each member.
  for (std::size_t m = 0; m < 4; ++m) {
    for (std::size_t i = 1; i < h.members[m]->log.size(); ++i)
      EXPECT_GT(h.members[m]->log[i].total_seq,
                h.members[m]->log[i - 1].total_seq);
  }
}

TEST(GroupChannel, SequencerIsLowestLiveSlot) {
  Harness h(3, {.ordering = Ordering::kTotal});
  EXPECT_TRUE(h.members[0]->chan->is_sequencer());
  EXPECT_FALSE(h.members[1]->chan->is_sequencer());
  h.members[1]->chan->mark_failed(h.members[0]->chan->self());
  EXPECT_TRUE(h.members[1]->chan->is_sequencer());
}

TEST(GroupChannel, MarkFailedStopsRetransmissionToDeadMember) {
  Harness h(3, {.ordering = Ordering::kFifo,
                .retransmit_timeout = sim::msec(10),
                .max_retransmits = 1000});
  h.net.crash(3);  // member index 2 is node 3
  h.members[0]->chan->broadcast("x");
  h.sim.run_until(sim::msec(100));
  const auto before = h.members[0]->chan->stats().retransmits;
  EXPECT_GT(before, 0u);
  h.members[0]->chan->mark_failed({3, 10});
  h.sim.run_until(sim::msec(500));
  // One more timer may have been in flight; after that, silence.
  const auto after = h.members[0]->chan->stats().retransmits;
  h.sim.run_until(sim::sec(2));
  EXPECT_EQ(h.members[0]->chan->stats().retransmits, after);
  EXPECT_LE(after, before + 1);
}

TEST(GroupChannel, GivesUpAfterMaxRetransmits) {
  Harness h(2, {.ordering = Ordering::kFifo,
                .retransmit_timeout = sim::msec(10),
                .max_retransmits = 3});
  h.net.crash(2);
  h.members[0]->chan->broadcast("doomed");
  h.sim.run();
  EXPECT_EQ(h.members[0]->chan->stats().gave_up, 1u);
  EXPECT_EQ(h.members[0]->chan->stats().retransmits, 3u);
}

TEST(GroupChannel, SingletonGroupDeliversLocallyWithoutNetwork) {
  Harness h(1, {.ordering = Ordering::kTotal});
  h.members[0]->chan->broadcast("solo");
  h.sim.run();
  ASSERT_EQ(h.members[0]->log.size(), 1u);
  EXPECT_EQ(h.net.stats().sent, 0u);
}

TEST(GroupChannel, TotalOrderSurvivesSequencerFailover) {
  Harness h(4, {.ordering = Ordering::kTotal,
                .retransmit_timeout = sim::msec(30),
                .max_retransmits = 30},
            /*seed=*/9);
  h.net.set_default_link({.latency = sim::msec(3), .jitter = sim::msec(2),
                          .bandwidth_bps = 10e6, .loss = 0.02});
  // Pre-crash traffic from everyone.
  for (std::size_t m = 0; m < 4; ++m) {
    h.sim.schedule_at(sim::msec(10 * (m + 1)), [&h, m] {
      h.members[m]->chan->broadcast("pre" + std::to_string(m));
    });
  }
  // The sequencer (member 0) crashes; survivors detect and promote.
  h.sim.schedule_at(sim::msec(200), [&h] {
    h.net.crash(1);
    for (std::size_t m = 1; m < 4; ++m)
      h.members[m]->chan->mark_failed(h.members[0]->chan->self());
  });
  // Post-crash traffic: the new sequencer (member 1) and the others.
  for (int round = 0; round < 6; ++round) {
    for (std::size_t m = 1; m < 4; ++m) {
      h.sim.schedule_at(sim::msec(300) + round * sim::msec(20), [&h, m,
                                                                round] {
        h.members[m]->chan->broadcast("post" + std::to_string(m) + "." +
                                      std::to_string(round));
      });
    }
  }
  h.sim.run();
  EXPECT_TRUE(h.members[1]->chan->is_sequencer());
  // Every survivor delivered every post-failover message, identically.
  const auto ref = h.payloads(1);
  int post_count = 0;
  for (const auto& p : ref)
    if (p.rfind("post", 0) == 0) ++post_count;
  EXPECT_EQ(post_count, 18);
  EXPECT_EQ(h.payloads(2), ref);
  EXPECT_EQ(h.payloads(3), ref);
}

TEST(GroupChannel, InFlightRequestRereutesToNewSequencer) {
  // A non-sequencer broadcast is in flight to the sequencer when it
  // dies: after mark_failed the request must reach the promoted
  // sequencer and still deliver everywhere.
  Harness h(3, {.ordering = Ordering::kTotal,
                .retransmit_timeout = sim::msec(50),
                .max_retransmits = 30},
            /*seed=*/12);
  // Slow path to the sequencer so the request is still in flight when
  // the crash happens.
  h.net.set_link(3, 1, {.latency = sim::msec(100), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0});
  h.members[2]->chan->broadcast("stranded");
  h.sim.schedule_at(sim::msec(20), [&h] {
    h.net.crash(1);
    h.members[1]->chan->mark_failed(h.members[0]->chan->self());
    h.members[2]->chan->mark_failed(h.members[0]->chan->self());
  });
  h.sim.run();
  ASSERT_EQ(h.payloads(1).size(), 1u);
  EXPECT_EQ(h.payloads(1)[0], "stranded");
  EXPECT_EQ(h.payloads(2), h.payloads(1));
}

// Drives the kTotal failover loss window deterministically: member 2's
// second broadcast is acked (stashed out-of-order at the sequencer) while
// its first is still unacked in flight, then the sequencer dies.  "one"
// was never acked, so its re-route to the new sequencer would save it;
// "two" was acked but never relayed, so only the new sequencer's replay
// from the sender's buffer of un-relayed broadcasts can bring it back.
TEST(GroupChannel, FailoverReplayClosesTheLossWindow) {
  Harness h(3, {.ordering = Ordering::kTotal,
                .retransmit_timeout = sim::msec(200),
                .max_retransmits = 30},
            /*seed=*/21);
  // Counts the old sequencer's acks of "two" (kAck: type 2, then the u32
  // sender slot and the u64 per-sender seq).
  int two_acked = 0;
  h.net.set_inject_hook([&two_acked](const net::Message& m) {
    std::uint32_t sender = 0;
    std::uint64_t seq = 0;
    if (m.src.node == 1 && m.dst.node == 3 && m.payload.size() >= 13 &&
        static_cast<std::uint8_t>(m.payload[0]) == 2) {
      std::memcpy(&sender, m.payload.data() + 1, sizeof sender);
      std::memcpy(&seq, m.payload.data() + 5, sizeof seq);
      if (sender == 2 && seq == 2) ++two_acked;
    }
    return net::InjectDecision{};
  });
  // First request lost on the way to the sequencer...
  h.net.set_link(3, 1, {.latency = sim::msec(2), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 1.0});
  h.members[2]->chan->broadcast("one");
  // ...then the link heals and the second request arrives: the sequencer
  // stashes it out of order and acks it.
  h.sim.schedule_at(sim::msec(5), [&h] {
    h.net.set_link(3, 1, {.latency = sim::msec(2), .jitter = 0,
                          .bandwidth_bps = 10e6, .loss = 0.0});
    h.members[2]->chan->broadcast("two");
  });
  // The sequencer crashes before "one"'s retransmission can fill the gap,
  // with "two" acked but never relayed.
  h.sim.schedule_at(sim::msec(50), [&h] {
    h.net.crash(1);
    h.members[1]->chan->mark_failed(h.members[0]->chan->self());
    h.members[2]->chan->mark_failed(h.members[0]->chan->self());
  });
  h.sim.run();
  // The window did open: the dead sequencer acked "two" and relayed
  // nothing, not even to itself.
  EXPECT_EQ(two_acked, 1);
  EXPECT_TRUE(h.payloads(0).empty());
  const std::vector<std::string> want{"one", "two"};
  EXPECT_EQ(h.payloads(1), want);
  EXPECT_EQ(h.payloads(2), want);
  // Both of the sender's un-relayed broadcasts came back through the
  // replay, "two" among them.
  EXPECT_EQ(h.members[1]->chan->stats().failover_replayed, 2u);
}

TEST(GroupChannel, ReplayRecoveryExtendsEverySurvivorPrefix) {
  // Survivors at different delivered depths when the sequencer dies: the
  // recovery round must produce one order that extends both prefixes, so
  // nobody ever sees a message twice or in a new relative order.
  Harness h(4, {.ordering = Ordering::kTotal,
                .retransmit_timeout = sim::msec(30),
                .max_retransmits = 60},
            /*seed=*/31);
  // Member 3 lags: slow link from the sequencer to it.
  h.net.set_link(1, 4, {.latency = sim::msec(60), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0});
  for (int i = 0; i < 8; ++i) {
    h.sim.schedule_at(sim::msec(5 * i), [&h, i] {
      h.members[1]->chan->broadcast("m" + std::to_string(i));
    });
  }
  h.sim.schedule_at(sim::msec(70), [&h] {
    h.net.crash(1);
    for (std::size_t m = 1; m < 4; ++m)
      h.members[m]->chan->mark_failed(h.members[0]->chan->self());
  });
  h.sim.run();
  std::vector<std::string> want;
  for (int i = 0; i < 8; ++i) want.push_back("m" + std::to_string(i));
  for (std::size_t m = 1; m < 4; ++m) {
    EXPECT_EQ(h.payloads(m), want) << "member " << m;
  }
}

TEST(GroupChannel, SequencerCrashWithConcurrentSendersConverges) {
  // Chaos-flavored sweep: concurrent senders, lossy links, sequencer
  // crash mid-stream.  Replay mode must deliver every acked broadcast
  // from a surviving sender at every survivor, identically ordered.
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    Harness h(4, {.ordering = Ordering::kTotal,
                  .retransmit_timeout = sim::msec(25),
                  .max_retransmits = 80},
              seed);
    h.net.set_default_link({.latency = sim::msec(4), .jitter = sim::msec(3),
                            .bandwidth_bps = 10e6, .loss = 0.05});
    for (int i = 0; i < 6; ++i) {
      for (std::size_t m = 1; m < 4; ++m) {
        h.sim.schedule_at(sim::msec(10 * i + m), [&h, m, i] {
          h.members[m]->chan->broadcast("s" + std::to_string(m) + "." +
                                        std::to_string(i));
        });
      }
    }
    h.sim.schedule_at(sim::msec(35), [&h] {
      h.net.crash(1);
      for (std::size_t m = 1; m < 4; ++m)
        h.members[m]->chan->mark_failed(h.members[0]->chan->self());
    });
    h.sim.run();
    // All 18 survivor broadcasts delivered everywhere, identically.
    const auto ref = h.payloads(1);
    EXPECT_EQ(ref.size(), 18u) << "seed " << seed;
    EXPECT_EQ(h.payloads(2), ref) << "seed " << seed;
    EXPECT_EQ(h.payloads(3), ref) << "seed " << seed;
  }
}

TEST(SlotMask, IteratesAscendingAcrossTheInlineWord) {
  SlotMask m;
  EXPECT_TRUE(m.empty());
  for (std::size_t slot : {130u, 3u, 64u, 0u, 63u, 3u}) m.insert(slot);
  std::vector<std::size_t> seen;
  m.for_each([&](std::size_t slot) { seen.push_back(slot); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 3, 63, 64, 130}));
  EXPECT_TRUE(m.contains(64));
  EXPECT_FALSE(m.contains(65));
  EXPECT_FALSE(m.contains(1000));  // beyond every stored word
  EXPECT_TRUE(m.erase(64));
  EXPECT_FALSE(m.erase(64));
  EXPECT_FALSE(m.erase(1000));
  for (std::size_t slot : {0u, 3u, 63u, 130u}) EXPECT_TRUE(m.erase(slot));
  EXPECT_TRUE(m.empty());
}

// Dedupe state is bounded by the reorder window, not by history: after a
// long lossy kTotal session quiesces, every member's per-sender seen set is
// one watermark with nothing above it.
TEST(GroupChannel, SeenSetsDrainToAWatermarkAfterLongTotalSession) {
  const std::size_t n = 12;
  const int broadcasts = 10000;
  Harness h(n,
            {.ordering = Ordering::kTotal,
             .retransmit_timeout = sim::msec(20),
             .max_retransmits = 100},
            /*seed=*/77);
  h.net.set_default_link({.latency = sim::msec(2), .jitter = sim::msec(2),
                          .bandwidth_bps = 100e6, .loss = 0.02});
  std::vector<std::uint64_t> sent(n, 0);
  for (int i = 0; i < broadcasts; ++i) {
    const auto m = static_cast<std::size_t>(i) % n;
    ++sent[m];
    h.sim.schedule_at(sim::usec(300) * i, [&h, m, i] {
      (void)h.members[m]->chan->broadcast("b" + std::to_string(i));
    });
  }
  h.sim.run();
  for (std::size_t m = 0; m < n; ++m) {
    const GroupChannel& c = *h.members[m]->chan;
    ASSERT_EQ(h.members[m]->log.size(), static_cast<std::size_t>(broadcasts))
        << "member " << m;
    for (std::size_t s = 0; s < n; ++s) {
      EXPECT_EQ(c.seen(s).sparse_size(), 0u) << "member " << m << " sender "
                                             << s;
      EXPECT_EQ(c.seen(s).watermark(), sent[s] + 1)
          << "member " << m << " sender " << s;
    }
  }
  for (std::size_t m = 1; m < n; ++m) EXPECT_EQ(h.payloads(m), h.payloads(0));
}

// Sequencer failover over a hole.  The sequencer's relay of one broadcast
// to the survivor that will be promoted is dropped (corrupted in flight),
// as are the sequencer's acks of that request and the next one, so the
// sender still holds both when the sequencer crashes.  The promoted
// sequencer must resume at the hole: its first new-epoch slot is the
// missing message, and every survivor ends with the same log holding
// every broadcast (the R4 agreement and acked-delivery invariants).
TEST(GroupChannel, PromotedSequencerResumesAtAHoleInItsSeenSet) {
  // Slots: 0 sequencer (node 1), 1 promoted survivor (node 2), 2 sender
  // (node 3), 3 bystander (node 4).
  Harness h(4,
            {.ordering = Ordering::kTotal,
             .retransmit_timeout = sim::msec(200),
             .max_retransmits = 30},
            /*seed=*/5);
  h.net.set_default_link({.latency = sim::msec(3), .jitter = 0,
                          .bandwidth_bps = 10e6, .loss = 0});
  constexpr std::uint64_t kHole = 4;
  // Wire layout shared by kData (type 1) and kAck (type 2): type byte,
  // then the u32 sender slot and the u64 per-sender seq.
  h.net.set_inject_hook([](const net::Message& m) {
    net::InjectDecision d;
    if (m.src.node != 1 || m.payload.size() < 13) return d;
    const auto type = static_cast<std::uint8_t>(m.payload[0]);
    std::uint32_t sender = 0;
    std::uint64_t seq = 0;
    std::memcpy(&sender, m.payload.data() + 1, sizeof sender);
    std::memcpy(&seq, m.payload.data() + 5, sizeof seq);
    if (sender != 2) return d;
    d.corrupt = (type == 1 && m.dst.node == 2 && seq == kHole) ||
                (type == 2 && m.dst.node == 3 && seq >= kHole);
    return d;
  });
  for (int i = 1; i <= 5; ++i) {
    h.sim.schedule_at(sim::msec(5) * i, [&h, i] {
      (void)h.members[2]->chan->broadcast("m" + std::to_string(i));
    });
  }
  const GroupChannel& promoted = *h.members[1]->chan;
  h.sim.schedule_at(sim::msec(50), [&] {
    // The hole: the promoted survivor's watermark for the sender stops at
    // it while the bystander is past both messages.
    EXPECT_EQ(promoted.seen(2).watermark(), kHole);
    EXPECT_EQ(promoted.seen(2).sparse_size(), 0u);
    EXPECT_EQ(h.members[3]->chan->seen(2).watermark(), kHole + 2);
    h.net.crash(1);
    for (std::size_t m = 1; m < 4; ++m)
      h.members[m]->chan->mark_failed(h.members[0]->chan->self());
  });
  h.sim.run();
  ASSERT_TRUE(promoted.is_sequencer());
  const std::vector<std::string> want{"m1", "m2", "m3", "m4", "m5"};
  for (std::size_t m = 1; m < 4; ++m) {
    EXPECT_EQ(h.payloads(m), want) << "member " << m;
    EXPECT_EQ(h.members[m]->chan->seen(2).sparse_size(), 0u) << m;
  }
  // The promoted sequencer's new epoch starts with the hole.
  const auto& log = h.members[1]->log;
  ASSERT_EQ(log.size(), want.size());
  EXPECT_EQ(log[kHole - 1].seq, kHole);
  EXPECT_EQ(log[kHole - 1].total_seq, 1u);
  EXPECT_EQ(log[kHole].total_seq, 2u);
}

TEST(GroupChannel, PostFailoverResyncJumpsOnlyOnce) {
  // Slots: 0 sequencer (node 1, crashes), 1 promoted survivor (node 2),
  // 2 sender (node 3).  After the promotion a sender's first request may
  // jump the gap the old sequencer left; a later gap is a lost datagram,
  // which the sender's retransmission fills.
  Harness h(3, {.ordering = Ordering::kTotal});
  h.net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                          .bandwidth_bps = 0, .loss = 0});
  h.net.crash(1);
  for (std::size_t m = 1; m < 3; ++m)
    h.members[m]->chan->mark_failed(h.members[0]->chan->self());
  h.sim.run_until(sim::msec(20));  // the recovery round has closed
  ASSERT_TRUE(h.members[1]->chan->is_sequencer());
  // The first copy of "b"'s ordering request is lost; "c"'s arrives.
  bool corrupted = false;
  h.net.set_inject_hook([&corrupted](const net::Message& m) {
    net::InjectDecision d;
    TotalReqMsg req;
    if (!corrupted && util::decode(m.payload, req) &&
        req.type == ChannelMsg::kTotalReq && req.seq == 2)
      d.corrupt = corrupted = true;
    return d;
  });
  for (const char* payload : {"a", "b", "c"})
    h.members[2]->chan->broadcast(payload);
  h.sim.run();
  EXPECT_TRUE(corrupted);
  const std::vector<std::string> want{"a", "b", "c"};
  EXPECT_EQ(h.payloads(1), want);
  EXPECT_EQ(h.payloads(2), want);
}

// Property sweep: for every ordering mode and several seeds, all members
// deliver exactly the full message set under loss + jitter, and the
// per-mode ordering invariant holds.
class OrderingSweep
    : public ::testing::TestWithParam<std::tuple<Ordering, std::uint64_t>> {};

TEST_P(OrderingSweep, AllMessagesDeliveredAndInvariantHolds) {
  const auto [ordering, seed] = GetParam();
  const std::size_t n = 3;
  Harness h(n,
            {.ordering = ordering,
             .retransmit_timeout = sim::msec(25),
             .max_retransmits = 60},
            seed);
  h.net.set_default_link({.latency = sim::msec(4), .jitter = sim::msec(3),
                          .bandwidth_bps = 10e6, .loss = 0.10});
  const int per_member = 15;
  for (int i = 0; i < per_member; ++i) {
    for (std::size_t m = 0; m < n; ++m) {
      h.sim.schedule_at(
          static_cast<sim::TimePoint>(
              h.sim.rng().uniform_int(0, sim::msec(200))),
          [&h, m, i] {
            h.members[m]->chan->broadcast("s" + std::to_string(m) + "." +
                                          std::to_string(i));
          });
    }
  }
  h.sim.run();
  for (std::size_t m = 0; m < n; ++m) {
    EXPECT_EQ(h.members[m]->log.size(), n * per_member)
        << "member " << m << " seed " << seed;
    // FIFO invariant (implied by causal and total as implemented): for
    // each sender, seq numbers appear in increasing order.
    if (ordering != Ordering::kUnordered) {
      std::map<std::size_t, std::uint64_t> last;
      for (const auto& d : h.members[m]->log) {
        auto it = last.find(d.sender);
        if (it != last.end()) {
          EXPECT_GT(d.seq, it->second);
        }
        last[d.sender] = d.seq;
      }
    }
  }
  if (ordering == Ordering::kTotal) {
    for (std::size_t m = 1; m < n; ++m) EXPECT_EQ(h.payloads(m), h.payloads(0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrderingsSeeds, OrderingSweep,
    ::testing::Combine(::testing::Values(Ordering::kUnordered, Ordering::kFifo,
                                         Ordering::kCausal, Ordering::kTotal),
                       ::testing::Values(11u, 22u, 33u, 44u, 55u)));

}  // namespace
}  // namespace coop::groups
