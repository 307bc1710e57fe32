// Tests for the durability plane: WAL framing and torn-tail handling,
// group-commit ack gating, checkpoint + compaction, crash-restart
// recovery, and anti-entropy replica catch-up.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "core/coop.hpp"
#include "durable/anti_entropy.hpp"
#include "durable/store.hpp"
#include "durable/wal.hpp"
#include "fault/invariants.hpp"

namespace coop::durable {
namespace {

class DurableTest : public ::testing::Test {
 protected:
  DurableConfig cfg(const char* name = "s") {
    DurableConfig c;
    c.name = name;
    c.sync_interval = sim::msec(5);
    c.checkpoint_log_bytes = 0;  // manual checkpoints unless a test opts in
    return c;
  }

  sim::Simulator sim{7};
  obs::Obs obs;
  StableMedia media;
};

TEST_F(DurableTest, AckGatesOnGroupCommit) {
  DurableStore s(sim, obs, media, cfg());
  bool acked = false;
  s.put("k", "v", [&] { acked = true; });
  EXPECT_FALSE(acked);  // buffered until the sync tick
  EXPECT_EQ(media.log.size(), 0u);
  sim.run_until(sim::msec(4));
  EXPECT_FALSE(acked);
  sim.run_until(sim::msec(6));
  EXPECT_TRUE(acked);
  EXPECT_GT(media.log.size(), 0u);
  EXPECT_EQ(s.read("k"), "v");
}

TEST_F(DurableTest, CrashDropsUnsyncedTailAcksNeverLie) {
  std::optional<DurableStore> s;
  s.emplace(sim, obs, media, cfg());
  bool acked1 = false;
  bool acked2 = false;
  s->put("k1", "v1", [&] { acked1 = true; });
  sim.run_until(sim::msec(10));  // k1 synced + acked
  ASSERT_TRUE(acked1);
  s->put("k2", "v2", [&] { acked2 = true; });
  s->crash();  // before the next sync: k2 dies with the tail
  s.reset();
  EXPECT_FALSE(acked2);

  s.emplace(sim, obs, media, cfg());
  EXPECT_EQ(s->read("k1"), "v1");  // every ack survived
  EXPECT_FALSE(s->read("k2").has_value());
  EXPECT_EQ(s->recovery().replayed_records, 1u);
  EXPECT_EQ(s->recovery().truncated_bytes, 0u);  // clean crash, no torn tail
}

// An ack callback may append again, and with a zero sync interval that
// append syncs from inside the outer sync.  Every ack fires exactly once,
// in append order, and the next group commits still work after the
// nested syncs have taken turns with the waiter buffers.
TEST_F(DurableTest, AckCallbacksMayAppendAndSyncAgain) {
  std::vector<std::uint64_t> acked;
  auto put = [](std::uint64_t version) {
    return WalRecord{.version = version, .key = "k", .value = "v"};
  };
  for (const sim::Duration interval : {sim::Duration{0}, sim::msec(5)}) {
    SCOPED_TRACE(interval);
    acked.clear();
    StableMedia disk;
    Wal wal(sim, obs, disk, {.name = "reentrant", .sync_interval = interval},
            1);
    // 1's ack appends 2, whose ack appends 3; 4 rides in 1's batch.
    wal.append(put(1), [&] {
      acked.push_back(1);
      wal.append(put(2), [&] {
        acked.push_back(2);
        wal.append(put(3), [&] { acked.push_back(3); });
      });
    });
    if (interval > 0) wal.append(put(4), [&] { acked.push_back(4); });
    wal.sync();
    if (interval == 0) {
      EXPECT_EQ(acked, (std::vector<std::uint64_t>{1, 2, 3}));
    } else {
      // 2 waits for the next commit, and so does 3 after it.
      EXPECT_EQ(acked, (std::vector<std::uint64_t>{1, 4}));
      wal.sync();
      wal.sync();
      EXPECT_EQ(acked, (std::vector<std::uint64_t>{1, 4, 2, 3}));
    }
    for (std::uint64_t v = 5; v <= 8; ++v) {
      wal.append(put(v), [&acked, v] { acked.push_back(v); });
      wal.sync();
    }
    EXPECT_EQ(acked.size(), 8u - (interval == 0 ? 1u : 0u));
    EXPECT_EQ(acked.back(), 8u);
    EXPECT_EQ(wal.next_lsn(), interval == 0 ? 8u : 9u);
  }
}

TEST_F(DurableTest, TornTailRecordIsDiscardedByChecksumNeverParsed) {
  std::optional<DurableStore> s;
  s.emplace(sim, obs, media, cfg());
  s->put("k1", "v1");
  s->put("k2", "v2");
  sim.run_until(sim::msec(10));  // both synced
  const std::size_t intact = media.log.size();
  s->put("doomed", "never-made-it");
  s->crash(9);  // 9 garbage bytes of the in-flight frame reach the platter
  s.reset();
  EXPECT_EQ(media.torn_writes, 1u);
  EXPECT_EQ(media.log.size(), intact + 9);

  s.emplace(sim, obs, media, cfg());
  EXPECT_EQ(s->recovery().replayed_records, 2u);
  EXPECT_EQ(s->recovery().truncated_bytes, 9u);
  EXPECT_EQ(media.log.size(), intact);  // recovery repaired the medium
  EXPECT_EQ(s->read("k1"), "v1");
  EXPECT_EQ(s->read("k2"), "v2");
  EXPECT_FALSE(s->read("doomed").has_value());

  // A torn stub shorter than a frame header is discarded the same way.
  s->put("doomed2", "x");
  s->crash(3);
  s.reset();
  s.emplace(sim, obs, media, cfg());
  EXPECT_EQ(s->recovery().truncated_bytes, 3u);
  EXPECT_FALSE(s->read("doomed2").has_value());
}

TEST_F(DurableTest, CorruptFrameTruncatesReplayAtTheDamage) {
  std::optional<DurableStore> s;
  s.emplace(sim, obs, media, cfg());
  s->put("k1", "v1");
  sim.run_until(sim::msec(10));
  s->put("k2", "v2");
  sim.run_until(sim::msec(20));
  ASSERT_GT(media.log.size(), 0u);
  media.log.back() ^= 0xff;  // bit-rot inside the last synced frame
  s->crash();
  s.reset();

  s.emplace(sim, obs, media, cfg());
  EXPECT_EQ(s->recovery().replayed_records, 1u);  // intact prefix only
  EXPECT_GT(s->recovery().truncated_bytes, 0u);
  EXPECT_EQ(s->read("k1"), "v1");
  EXPECT_FALSE(s->read("k2").has_value());
}

TEST_F(DurableTest, CheckpointPlusSuffixReplayEqualsFullLogReplay) {
  StableMedia full_media;
  std::optional<DurableStore> a;  // checkpoints mid-run
  std::optional<DurableStore> b;  // keeps the whole log
  a.emplace(sim, obs, media, cfg("a"));
  b.emplace(sim, obs, full_media, cfg("b"));
  for (int i = 0; i < 20; ++i) {
    const std::string key = "k" + std::to_string(i % 5);
    const std::string value = "v" + std::to_string(i);
    a->put(key, value);
    b->put(key, value);
    if (i == 9) {
      a->checkpoint();  // syncs, seals, truncates a's log
      ASSERT_EQ(media.log.size(), 0u);
      ASSERT_GT(media.checkpoint.size(), 0u);
    }
    if (i == 14) {
      a->erase("k1");
      b->erase("k1");
    }
  }
  a->sync();
  b->sync();
  a->crash();
  b->crash();
  a.reset();
  b.reset();

  a.emplace(sim, obs, media, cfg("a"));
  b.emplace(sim, obs, full_media, cfg("b"));
  EXPECT_TRUE(a->recovery().checkpoint_loaded);
  EXPECT_FALSE(b->recovery().checkpoint_loaded);
  EXPECT_GT(a->recovery().base_lsn, 1u);
  EXPECT_LT(a->recovery().replayed_records, b->recovery().replayed_records);
  // Same live state, per-key versions included — and the same lsn cursor,
  // so post-recovery writes continue identically.
  EXPECT_TRUE(a->store() == b->store());
  EXPECT_EQ(a->next_lsn(), b->next_lsn());
}

TEST_F(DurableTest, ReplayIsIdempotentAcrossDoubleRestart) {
  std::optional<DurableStore> s;
  s.emplace(sim, obs, media, cfg());
  for (int i = 0; i < 12; ++i) {
    s->put("k" + std::to_string(i % 4), "v" + std::to_string(i));
  }
  s->erase("k2");
  s->checkpoint();
  s->put("late", "tail-record");
  s->sync();
  s->crash();
  s.reset();

  s.emplace(sim, obs, media, cfg());
  const ccontrol::ObjectStore first = s->store();
  const std::uint64_t first_lsn = s->next_lsn();
  s->crash();  // immediately crash again: nothing new written
  s.reset();

  s.emplace(sim, obs, media, cfg());
  EXPECT_TRUE(s->store() == first);
  EXPECT_EQ(s->next_lsn(), first_lsn);
  EXPECT_EQ(s->read("late"), "tail-record");
}

TEST_F(DurableTest, CorruptCheckpointFallsBackToLogReplay) {
  std::optional<DurableStore> s;
  s.emplace(sim, obs, media, cfg());
  s->put("k", "v");
  s->checkpoint();
  s->put("k2", "v2");
  s->sync();
  s->crash();
  s.reset();
  ASSERT_GT(media.checkpoint.size(), 0u);
  media.checkpoint[media.checkpoint.size() / 2] ^= 0xff;

  s.emplace(sim, obs, media, cfg());
  EXPECT_TRUE(s->recovery().checkpoint_corrupt);
  EXPECT_FALSE(s->recovery().checkpoint_loaded);
  // Only the post-checkpoint suffix survives: the snapshot's content is
  // gone (atomic snapshot writes make this tampering-only), but the
  // replayer never parses the damaged blob.
  EXPECT_EQ(s->read("k2"), "v2");
  EXPECT_FALSE(s->read("k").has_value());
}

TEST_F(DurableTest, CheckpointBoundsLogUnderSustainedWrites) {
  DurableConfig c = cfg();
  c.checkpoint_log_bytes = 2048;
  DurableStore s(sim, obs, media, c);
  for (int i = 0; i < 400; ++i) {
    sim.schedule_at(sim::msec(2) * i, [&s, i] {
      s.put("k" + std::to_string(i % 8), std::string(32, 'x'));
    });
  }
  sim.run();
  EXPECT_GT(media.checkpoints, 1u);  // compaction ran repeatedly
  // Peak log = trigger threshold + at most one group-commit batch.
  const std::size_t slack = 1024;
  EXPECT_LE(s.max_log_bytes(), c.checkpoint_log_bytes + slack);

  fault::Invariants inv;
  inv.check_log_bounded("replica", s.max_log_bytes(),
                        c.checkpoint_log_bytes + slack);
  EXPECT_TRUE(inv.ok());
  inv.check_log_bounded("replica", c.checkpoint_log_bytes + slack + 1,
                        c.checkpoint_log_bytes + slack);
  EXPECT_FALSE(inv.ok());
}

TEST_F(DurableTest, CheckpointGcsExpiredTombstones) {
  DurableConfig c = cfg();
  c.tombstone_ttl = sim::msec(100);
  std::optional<DurableStore> s;
  s.emplace(sim, obs, media, c);
  s->put("k", "v");
  s->erase("k");  // tombstone stamped at t=0
  sim.run_until(sim::msec(200));  // past the TTL
  s->checkpoint();
  EXPECT_TRUE(s->store().tombstones().empty());
  s->crash();
  s.reset();
  s.emplace(sim, obs, media, c);
  EXPECT_TRUE(s->store().tombstones().empty());
  EXPECT_FALSE(s->read("k").has_value());
}

TEST_F(DurableTest, AntiEntropyPropagatesValuesAndDeletions) {
  StableMedia media1;
  DurableStore s0(sim, obs, media, cfg("s0"));
  DurableStore s1(sim, obs, media1, cfg("s1"));

  s0.put("k", "v1");
  s0.sync();
  auto pull = [](DurableStore& to, DurableStore& from) {
    return AntiEntropy::apply_reply(
        to, AntiEntropy::make_reply(from, AntiEntropy::encode_summary(to)));
  };
  EXPECT_EQ(pull(s1, s0), 1u);
  EXPECT_EQ(s1.read("k"), "v1");
  EXPECT_EQ(pull(s1, s0), 0u);  // already converged: reply is empty
  EXPECT_TRUE(s0.store() == s1.store());

  // Deletion travels as a tombstone, not as silence.
  s0.erase("k");
  s0.sync();
  EXPECT_EQ(pull(s1, s0), 1u);
  EXPECT_FALSE(s1.read("k").has_value());
  EXPECT_TRUE(s0.store() == s1.store());

  // Anti-resurrection: a stale replica still holding the old value cannot
  // push it back — the tombstone's version dominates in both directions.
  StableMedia media2;
  DurableStore s2(sim, obs, media2, cfg("s2"));
  s2.put("k", "stale");  // version 1, below the tombstone's 2
  s2.sync();
  EXPECT_EQ(pull(s0, s2), 0u);  // stale value refused
  EXPECT_FALSE(s0.read("k").has_value());
  EXPECT_EQ(pull(s2, s0), 1u);  // tombstone adopted; stale copy dies
  EXPECT_FALSE(s2.read("k").has_value());
}

// End-to-end over rpc/: two replicas with bidirectional periodic pullers
// converge despite a randomized partition schedule cutting them apart
// while the workload runs.
TEST(DurableAntiEntropy, ConvergesUnderRandomizedPartitionSchedule) {
  Platform plat(29);
  sim::Simulator& sim = plat.simulator();
  net::Network& net = plat.network();

  StableMedia media0, media1;
  DurableConfig c0, c1;
  c0.name = "n1";
  c1.name = "n2";
  DurableStore s0(sim, plat.obs(), media0, c0);
  DurableStore s1(sim, plat.obs(), media1, c1);
  rpc::RpcServer srv0(net, {1, 9});
  rpc::RpcServer srv1(net, {2, 9});
  AntiEntropy::serve(srv0, s0);
  AntiEntropy::serve(srv1, s1);
  AeConfig ae0c, ae1c;
  ae0c.name = "n1";
  ae1c.name = "n2";
  ae0c.period = ae1c.period = sim::msec(50);
  AntiEntropy ae0(net, {1, 10}, {2, 9}, s0, ae0c);
  AntiEntropy ae1(net, {2, 10}, {1, 9}, s1, ae1c);

  // Each key has a fixed origin replica (independent origins would assign
  // tying versions that LWW cannot order — the documented workload rule).
  for (int i = 0; i < 60; ++i) {
    sim.schedule_at(sim::msec(10) * i, [&s0, &s1, i] {
      const int key_idx = i % 7;
      DurableStore& origin = (key_idx % 2 == 0) ? s0 : s1;
      origin.put("k" + std::to_string(key_idx), "v" + std::to_string(i));
      if (i == 30) origin.erase("k" + std::to_string(key_idx));
    });
  }
  // Randomized (seeded, deterministic) partition schedule over the write
  // window: repeated cuts of varying length, all healed before quiesce.
  sim::TimePoint t = 0;
  for (int j = 0; j < 5; ++j) {
    t += sim::msec(static_cast<std::int64_t>(sim.rng().uniform_int(40, 160)));
    const auto cut =
        sim::msec(static_cast<std::int64_t>(sim.rng().uniform_int(30, 120)));
    sim.schedule_at(t, [&net] { net.partition({1}, {2}); });
    sim.schedule_at(t + cut, [&net] { net.heal_partition(); });
  }
  sim.run_until(sim::sec(3));
  ae0.stop();
  ae1.stop();
  sim.run_until(sim::sec(4));  // drain in-flight pulls

  EXPECT_GT(ae0.keys_pulled() + ae1.keys_pulled(), 0u);
  EXPECT_TRUE(s0.store() == s1.store())
      << "replicas did not converge after heal + anti-entropy";
}

}  // namespace
}  // namespace coop::durable
