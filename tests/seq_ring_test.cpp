// Differential tests for the sequence-indexed rings behind FifoChannel.
//
// util::SeqRing is checked against a std::map<seq, bytes>; FifoChannel's
// unacked backlog and hold-back are checked, end to end, against a model
// of the same protocol kept in std::maps (the structure the rings
// replaced).  Delivered payloads, every frame the channel puts on the
// wire and every FifoStats field must agree after every step.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "net/fifo_channel.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"
#include "util/seq_ring.hpp"

namespace coop {
namespace {

// --- util::SeqRing -----------------------------------------------------------

TEST(SeqRing, StoresFindsAndPopsInSequenceOrder) {
  util::SeqRing r;
  EXPECT_EQ(r.base(), 1u);
  EXPECT_TRUE(r.insert(3, util::Buf("c")));
  EXPECT_TRUE(r.insert(1, util::Buf("a")));
  EXPECT_FALSE(r.insert(3, util::Buf("dup")));  // first arrival wins
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.span(), 3u);
  ASSERT_NE(r.find(3), nullptr);
  EXPECT_EQ(*r.find(3), "c");
  EXPECT_EQ(r.find(2), nullptr);
  EXPECT_EQ(r.find(4), nullptr);
  EXPECT_EQ(r.pop_front(), "a");
  EXPECT_TRUE(r.pop_front().empty());  // seq 2 was vacant
  EXPECT_EQ(r.pop_front(), "c");
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.base(), 4u);
  EXPECT_TRUE(r.pop_front().empty());  // popping an empty ring just advances
  EXPECT_EQ(r.base(), 5u);
}

TEST(SeqRing, GrowingAcrossTheWrapKeepsOrder) {
  util::SeqRing r;
  // Fill the initial 8 slots, slide the window so the head sits mid-array,
  // then grow: the re-layout must unwrap the live entries in order.
  auto put = [&r](std::uint64_t s) {
    return r.insert(s, util::Buf(std::to_string(s)));
  };
  for (std::uint64_t s = 1; s <= 8; ++s) put(s);
  for (int i = 0; i < 5; ++i) r.pop_front();
  for (std::uint64_t s = 9; s <= 40; ++s) put(s);
  EXPECT_EQ(r.size(), 35u);
  std::uint64_t want = 6;
  r.for_each([&](std::uint64_t seq, util::Buf& b) {
    EXPECT_EQ(seq, want);
    EXPECT_EQ(b, std::to_string(want));
    ++want;
  });
  EXPECT_EQ(want, 41u);
}

TEST(SeqRing, ResetAndRebaseRenumber) {
  util::SeqRing r;
  r.reset(10);
  r.insert(10, util::Buf("a"));
  r.insert(11, util::Buf("b"));
  r.rebase(1);  // the same two entries, now numbered 1 and 2
  ASSERT_NE(r.find(2), nullptr);
  EXPECT_EQ(*r.find(2), "b");
  EXPECT_EQ(r.find(11), nullptr);
  const util::Buf shared("kept");
  r.reset(7);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.span(), 0u);
  EXPECT_EQ(r.find(1), nullptr);
  r.insert(7, shared);
  EXPECT_EQ(shared.refs(), 2u);  // held by reference count, not copied
  r.reset(1);
  EXPECT_EQ(shared.refs(), 1u);  // and released by a reset
}

TEST(SeqRing, MatchesStdMapOnSeededSequences) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    util::SeqRing got;
    std::map<std::uint64_t, std::string> want;
    std::uint64_t base = 1;
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t op = rng() % 16;
      if (op < 7) {  // insert near the front, sometimes a duplicate
        const std::uint64_t seq = base + rng() % (op == 0 ? 64 : 12);
        const std::string v = std::to_string(seq) + "/" + std::to_string(i);
        ASSERT_EQ(got.insert(seq, util::Buf(v)),
                  want.try_emplace(seq, v).second);
      } else if (op < 13) {  // pop the front
        auto it = want.find(base);
        const std::string front = it == want.end() ? "" : it->second;
        if (it != want.end()) want.erase(it);
        ASSERT_EQ(got.pop_front(), front);
        ++base;
      } else if (op < 15) {  // probe
        const std::uint64_t seq = base + rng() % 80 - (rng() % 2);
        auto it = want.find(seq);
        const util::Buf* b = got.find(seq);
        ASSERT_EQ(b != nullptr, it != want.end()) << "find(" << seq << ")";
        if (b != nullptr) {
          ASSERT_EQ(*b, it->second);
        }
      } else if (rng() % 4 == 0) {  // reset
        base = 1 + rng() % 1000;
        got.reset(base);
        want.clear();
      }
      ASSERT_EQ(got.base(), base);
      ASSERT_EQ(got.size(), want.size());
      const std::size_t span =
          want.empty() ? 0 : static_cast<std::size_t>(want.rbegin()->first -
                                                      base + 1);
      ASSERT_EQ(got.span(), span);
    }
    std::map<std::uint64_t, std::string> seen;
    got.for_each([&](std::uint64_t seq, util::Buf& b) {
      seen.emplace(seq, b.str());
    });
    EXPECT_EQ(seen, want);
  }
}

// --- FifoChannel against a std::map model -----------------------------------

constexpr std::uint8_t kData = 0x71;
constexpr std::uint8_t kAck = 0x72;
constexpr std::uint8_t kHello = 0x73;

/// The FIFO protocol of one channel toward one peer, as the seq-keyed
/// std::map implementation ran it.  Records what it would deliver and
/// every frame it would send, in the probe's log format.
struct MapModel {
  std::size_t max_unacked;
  net::FifoStats stats;
  std::vector<std::string> delivered;
  std::vector<std::string> wire;
  bool known = false;  ///< the channel keeps state for the peer
  // Sender side.
  std::uint32_t send_epoch = 1;
  std::uint64_t next_send_seq = 1;
  std::map<std::uint64_t, std::string> unacked;
  // Receiver side.
  std::uint32_t remote_epoch = 0;
  std::uint64_t next_expected = 1;
  std::map<std::uint64_t, std::string> holdback;

  void transmit(std::uint64_t seq, const std::string& p) {
    wire.push_back("D" + std::to_string(send_epoch) + " " +
                   std::to_string(seq) + " " + p);
  }
  void ack() {
    wire.push_back("A" + std::to_string(remote_epoch) + " " +
                   std::to_string(next_expected - 1));
  }

  void send(const std::string& p) {
    known = true;
    if (unacked.size() >= max_unacked) {
      ++stats.overflow_dropped;
      return;
    }
    const std::uint64_t seq = next_send_seq++;
    ++stats.sent;
    transmit(seq, p);
    unacked[seq] = p;
  }
  void give_up() {
    stats.gave_up += unacked.size();
    unacked.clear();
  }
  bool observe_epoch(std::uint32_t epoch) {
    if (epoch < remote_epoch) {
      ++stats.stale;
      return false;
    }
    if (epoch > remote_epoch) {
      if (remote_epoch != 0) ++stats.resyncs;
      remote_epoch = epoch;
      next_expected = 1;
      holdback.clear();
    }
    return true;
  }
  void on_ack(std::uint32_t epoch, std::uint64_t cum) {
    if (!known) return;  // an ack from a stranger is ignored
    if (epoch != send_epoch) {
      ++stats.stale;
      return;
    }
    unacked.erase(unacked.begin(), unacked.upper_bound(cum));
  }
  void on_hello(std::uint32_t epoch) {
    known = true;
    const std::uint32_t previous = remote_epoch;
    if (!observe_epoch(epoch)) return;
    if (epoch > previous) {
      ++send_epoch;
      std::vector<std::string> backlog;
      for (auto& [seq, p] : unacked) backlog.push_back(p);
      unacked.clear();
      next_send_seq = 1;
      for (const std::string& p : backlog) {
        const std::uint64_t seq = next_send_seq++;
        ++stats.retransmits;
        transmit(seq, p);
        unacked[seq] = p;
      }
    }
    ack();
  }
  void on_data(std::uint32_t epoch, std::uint64_t seq, const std::string& p) {
    known = true;
    if (!observe_epoch(epoch)) return;
    if (seq < next_expected) {
      ++stats.duplicates;
    } else if (seq > next_expected) {
      holdback.emplace(seq, p);
    } else {
      ++stats.delivered;
      ++next_expected;
      delivered.push_back(p);
      for (auto it = holdback.find(next_expected); it != holdback.end();
           it = holdback.find(next_expected)) {
        delivered.push_back(it->second);
        holdback.erase(it);
        ++stats.delivered;
        ++next_expected;
      }
    }
    ack();
  }
};

/// The peer of the channel under test: records every frame it receives in
/// the model's log format.
struct Probe : net::Endpoint {
  std::vector<std::string> wire;
  void on_message(const net::Message& msg) override {
    util::Reader r(msg.payload);
    const auto type = r.get<std::uint8_t>();
    const auto epoch = r.get<std::uint32_t>();
    if (type == kAck) {
      wire.push_back("A" + std::to_string(epoch) + " " +
                     std::to_string(r.get<std::uint64_t>()));
    } else if (type == kData) {
      const auto seq = r.get<std::uint64_t>();
      wire.push_back("D" + std::to_string(epoch) + " " + std::to_string(seq) +
                     " " + std::string(r.get_string_view()));
    }
  }
};

void expect_same_stats(const net::FifoStats& got, const net::FifoStats& want) {
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.retransmits, want.retransmits);
  EXPECT_EQ(got.duplicates, want.duplicates);
  EXPECT_EQ(got.gave_up, want.gave_up);
  EXPECT_EQ(got.resyncs, want.resyncs);
  EXPECT_EQ(got.stale, want.stale);
  EXPECT_EQ(got.overflow_dropped, want.overflow_dropped);
  EXPECT_EQ(got.unreachable_events, 0u);
}

/// Drives one channel with @p steps seeded random frames and sends, and
/// the same inputs through the model; checks they agree after each step.
void fifo_differential(std::uint64_t seed, std::size_t max_unacked,
                       int steps) {
  constexpr sim::Duration kTimeout = sim::sec(3600);
  sim::Simulator sim{seed};
  net::Network net{sim};
  net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 0, .loss = 0});
  const net::Address self{1, 1};
  const net::Address peer{2, 1};
  Probe probe;
  net.attach(peer, probe);
  // Timers fire only at the explicit give-up steps: the timeout outlasts
  // every other step, and the first silent round gives up.
  net::FifoChannel ch(net, self,
                      {.retransmit_timeout = kTimeout,
                       .max_retransmit_timeout = kTimeout,
                       .max_retransmits = 0,
                       .max_unacked = max_unacked});
  std::vector<std::string> delivered;
  ch.on_receive([&](const net::Address& from, std::string_view p) {
    EXPECT_EQ(from, peer);
    delivered.emplace_back(p);
  });
  MapModel model{.max_unacked = max_unacked};
  const std::uint64_t window = max_unacked;

  auto inject = [&](util::Writer& w) {
    ch.on_message({.src = peer, .dst = self, .payload = w.take_buf()});
  };
  auto data = [&](std::uint32_t epoch, std::uint64_t seq, int step) {
    const std::string p = "p" + std::to_string(seq) + "." +
                          std::to_string(step);
    util::Writer w;
    w.put(kData).put(epoch).put(seq).put_string(p);
    inject(w);
    model.on_data(epoch, seq, p);
  };

  std::mt19937_64 rng(seed);
  for (int step = 0; step < steps; ++step) {
    const std::uint32_t e = std::max<std::uint32_t>(model.remote_epoch, 1);
    const std::uint64_t next = model.next_expected;
    const std::uint64_t op = rng() % 100;
    if (op < 30) {
      data(e, next, step);  // in order
    } else if (op < 45) {
      data(e, next + 1 + rng() % (window - 1), step);  // inside the window
    } else if (op < 50) {
      data(e, next + window + rng() % (2 * window), step);  // beyond it
    } else if (op < 51) {
      data(e, next + (std::uint64_t{1} << 40) + rng() % 4, step);
    } else if (op < 58) {  // duplicate
      const std::uint64_t back = rng() % std::min<std::uint64_t>(next, 4);
      data(e, next - 1 - back, step);
    } else if (op < 61) {
      data(e > 1 ? e - 1 : e, next, step);  // stale incarnation (if any)
    } else if (op < 63) {
      data(e + 1, 1 + rng() % 3, step);  // stream renumbered by the peer
    } else if (op < 65) {
      const std::uint32_t epoch = rng() % 2 == 0 ? e + 1 : e;  // or a dup
      util::Writer w;
      w.put(kHello).put(epoch);
      inject(w);
      model.on_hello(epoch);
    } else if (op < 83) {
      const std::string p = "s" + std::to_string(step);
      ch.send(peer, p);
      model.send(p);
    } else if (op < 98) {
      const std::uint64_t lo =
          model.unacked.empty() ? model.next_send_seq
                                : model.unacked.begin()->first;
      // Around the backlog, sometimes past its end (or wrapped below 0).
      const std::uint64_t cum =
          lo + rng() % (model.next_send_seq - lo + 4) - 2;
      const std::uint32_t epoch =
          rng() % 6 == 0 ? model.send_epoch + 1 : model.send_epoch;
      util::Writer w;
      w.put(kAck).put(epoch).put(cum);
      inject(w);
      model.on_ack(epoch, cum);
    } else if (op < 99) {
      sim.run_until(sim.now() + kTimeout + sim::sec(1));
      if (!model.unacked.empty()) model.give_up();
    }
    sim.run_until(sim.now() + sim::msec(2));
    ASSERT_EQ(delivered, model.delivered) << "step " << step;
    ASSERT_EQ(ch.unacked(peer), model.unacked.size()) << "step " << step;
    expect_same_stats(ch.stats(), model.stats);
    if (::testing::Test::HasFailure()) FAIL() << "step " << step;
  }
  EXPECT_EQ(probe.wire, model.wire);
  EXPECT_GT(model.stats.delivered, 0u);
  EXPECT_GT(model.stats.resyncs, 0u);
  EXPECT_GT(model.stats.gave_up, 0u);
}

TEST(FifoRings, MatchMapModelOnSeededSequences) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    // A 16-frame window wraps the rings constantly and sends many
    // arrivals to the sparse map beyond it.
    fifo_differential(seed, 16, 1500);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace coop
