// Tests for the strict-2PL transaction engine, including a serializability
// property check against a sequential oracle.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ccontrol/store.hpp"
#include "ccontrol/transactions.hpp"
#include "sim/simulator.hpp"

namespace coop::ccontrol {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  sim::Simulator sim{3};
  ObjectStore store;
  TransactionManager tm{sim, store};
};

TEST_F(TxnTest, CommitMakesWritesVisible) {
  const TxnId t = tm.begin();
  bool ok = false;
  tm.write(t, "k", "v", [&](bool r) { ok = r; });
  EXPECT_TRUE(ok);
  EXPECT_FALSE(store.read("k").has_value());  // buffered until commit
  EXPECT_TRUE(tm.commit(t));
  EXPECT_EQ(store.read("k"), "v");
  EXPECT_EQ(tm.state(t), TxnState::kCommitted);
}

TEST_F(TxnTest, AbortDiscardsWrites) {
  const TxnId t = tm.begin();
  tm.write(t, "k", "v", [](bool) {});
  tm.abort(t);
  EXPECT_FALSE(store.read("k").has_value());
  EXPECT_EQ(tm.state(t), TxnState::kAborted);
  EXPECT_FALSE(tm.commit(t));  // cannot commit an aborted txn
}

TEST_F(TxnTest, ReadYourOwnWrites) {
  const TxnId t = tm.begin();
  tm.write(t, "k", "mine", [](bool) {});
  std::optional<std::string> got;
  tm.read(t, "k", [&](bool ok, std::optional<std::string> v) {
    EXPECT_TRUE(ok);
    got = std::move(v);
  });
  EXPECT_EQ(got, "mine");
}

TEST_F(TxnTest, SharedReadsDoNotBlockEachOther) {
  store.write("k", "v0");
  const TxnId t1 = tm.begin();
  const TxnId t2 = tm.begin();
  int reads = 0;
  tm.read(t1, "k", [&](bool ok, auto) { reads += ok; });
  tm.read(t2, "k", [&](bool ok, auto) { reads += ok; });
  EXPECT_EQ(reads, 2);
}

TEST_F(TxnTest, WriterBlocksReaderUntilCommit) {
  const TxnId writer = tm.begin();
  const TxnId reader = tm.begin();
  tm.write(writer, "k", "new", [](bool) {});
  bool read_done = false;
  std::optional<std::string> got;
  // reader is younger than writer; wait-die says it WAITS only if older.
  // reader id > writer id -> reader would die.  Use the opposite order:
  (void)reader;
  const TxnId old_reader = writer;  // placeholder to silence unused
  (void)old_reader;
  // Build the real scenario: older reader, younger writer.
  ObjectStore store2;
  TransactionManager tm2(sim, store2);
  const TxnId r = tm2.begin();   // older
  const TxnId w = tm2.begin();   // younger
  tm2.write(w, "k", "new", [](bool) {});
  tm2.read(r, "k", [&](bool ok, std::optional<std::string> v) {
    read_done = ok;
    got = std::move(v);
  });
  EXPECT_FALSE(read_done);  // r (older) waits for w
  sim.run_until(sim::msec(10));
  tm2.commit(w);
  EXPECT_TRUE(read_done);
  EXPECT_EQ(got, "new");
}

TEST_F(TxnTest, WaitDieYoungerRequesterAborts) {
  const TxnId older = tm.begin();
  const TxnId younger = tm.begin();
  tm.write(older, "k", "v1", [](bool) {});
  bool ok = true;
  tm.write(younger, "k", "v2", [&](bool r) { ok = r; });
  EXPECT_FALSE(ok);
  EXPECT_EQ(tm.state(younger), TxnState::kAborted);
  EXPECT_EQ(tm.stats().wait_die_aborts, 1u);
  // The older transaction is unaffected.
  EXPECT_TRUE(tm.commit(older));
  EXPECT_EQ(store.read("k"), "v1");
}

TEST_F(TxnTest, NoDeadlockOnCrossingWrites) {
  // T1 (older) takes A; T2 takes B; T1 wants B (waits); T2 wants A (dies).
  const TxnId t1 = tm.begin();
  const TxnId t2 = tm.begin();
  tm.write(t1, "A", "1", [](bool) {});
  tm.write(t2, "B", "2", [](bool) {});
  bool t1_got_b = false;
  tm.write(t1, "B", "1b", [&](bool r) { t1_got_b = r; });
  EXPECT_FALSE(t1_got_b);  // waiting on t2
  bool t2_got_a = true;
  tm.write(t2, "A", "2a", [&](bool r) { t2_got_a = r; });
  EXPECT_FALSE(t2_got_a);                          // t2 died
  EXPECT_EQ(tm.state(t2), TxnState::kAborted);
  EXPECT_TRUE(t1_got_b);  // t2's death released B; t1 proceeds
  EXPECT_TRUE(tm.commit(t1));
  EXPECT_EQ(store.read("B"), "1b");
}

TEST_F(TxnTest, OperationsOnFinishedTxnFail) {
  const TxnId t = tm.begin();
  tm.commit(t);
  bool write_ok = true, read_ok = true;
  tm.write(t, "k", "v", [&](bool r) { write_ok = r; });
  tm.read(t, "k", [&](bool r, auto) { read_ok = r; });
  EXPECT_FALSE(write_ok);
  EXPECT_FALSE(read_ok);
}

TEST_F(TxnTest, LockUpgradeSharedToExclusive) {
  store.write("k", "v0");
  const TxnId t = tm.begin();
  tm.read(t, "k", [](bool, auto) {});
  bool ok = false;
  tm.write(t, "k", "v1", [&](bool r) { ok = r; });
  EXPECT_TRUE(ok);
  tm.commit(t);
  EXPECT_EQ(store.read("k"), "v1");
}

TEST_F(TxnTest, BlockTimeIsRecorded) {
  ObjectStore store2;
  TransactionManager tm2(sim, store2);
  const TxnId r = tm2.begin();
  const TxnId w = tm2.begin();
  tm2.write(w, "k", "x", [](bool) {});
  tm2.read(r, "k", [](bool, auto) {});
  sim.run_until(sim::msec(250));
  tm2.commit(w);
  EXPECT_GE(tm2.stats().block_time.max_seen(),
            static_cast<double>(sim::msec(250)));
}

// Serializability property: run a randomized contended workload; replay
// the committed transactions' write sets sequentially in commit order on a
// fresh store; the result must match, and every committed read must match
// what the sequential replay would have produced at that point.
class SerializabilityProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SerializabilityProperty, CommitOrderReplayMatches) {
  sim::Simulator sim(GetParam());
  ObjectStore store;
  TransactionManager tm(sim, store);

  const int kClients = 6;
  const int kTxnsPerClient = 25;
  const int kKeys = 4;  // few keys -> heavy contention

  // Each client runs transactions back to back: begin, 2-4 ops with
  // simulated think time, then commit.  Wait-die aborts simply move on.
  std::function<void(int, int)> run_txn = [&](int client, int remaining) {
    if (remaining == 0) return;
    const TxnId t = tm.begin();
    auto finish = [&, t, client, remaining](bool aborted) {
      if (!aborted) tm.commit(t);
      sim.schedule_after(sim.rng().uniform_int(1, 500), [&, client,
                                                         remaining] {
        run_txn(client, remaining - 1);
      });
    };
    const int ops = static_cast<int>(sim.rng().uniform_int(2, 4));
    // Chain the ops with think time between them.
    std::shared_ptr<std::function<void(int)>> step =
        std::make_shared<std::function<void(int)>>();
    // The stored lambda must not capture `step` strongly — the function
    // would own itself and the whole chain leaks.  Scheduled continuations
    // hold the strong reference; the lambda keeps only a weak one.
    std::weak_ptr<std::function<void(int)>> weak_step = step;
    *step = [&, t, ops, finish, weak_step](int i) {
      if (tm.state(t) != TxnState::kActive) {
        finish(true);
        return;
      }
      if (i == ops) {
        finish(false);
        return;
      }
      const std::string key =
          "k" + std::to_string(sim.rng().uniform_int(0, kKeys - 1));
      const bool is_write = sim.rng().bernoulli(0.5);
      // `next` is stored by the transaction manager and invoked later, so
      // it carries the strong reference that keeps the chain alive.
      auto self = weak_step.lock();
      auto next = [&, i, self, finish](bool ok) {
        if (!ok) {
          finish(true);
          return;
        }
        sim.schedule_after(sim.rng().uniform_int(1, 200),
                           [self, i] { (*self)(i + 1); });
      };
      if (is_write) {
        tm.write(t, key, "c" + std::to_string(t) + "i" + std::to_string(i),
                 next);
      } else {
        tm.read(t, key, [next](bool ok, auto) { next(ok); });
      }
    };
    (*step)(0);
  };

  for (int c = 0; c < kClients; ++c) run_txn(c, kTxnsPerClient);
  sim.run();

  EXPECT_GT(tm.stats().commits, 0u);

  // Sequential replay oracle: execute each committed transaction at its
  // commit position, mirroring the engine's write-buffer semantics — reads
  // see the transaction's own earlier writes (read-your-writes), and the
  // write set lands once per key at commit (last value wins), so per-key
  // versions advance exactly as the real store's did.  Strict 2PL
  // guarantees every recorded read matches this serial execution.
  ObjectStore oracle;
  for (const CommitRecord& rec : tm.commit_log()) {
    std::map<std::string, std::string> buffer;
    for (const CommitRecord::Op& op : rec.ops) {
      if (op.is_write) {
        buffer[op.key] = *op.value;
      } else {
        const auto it = buffer.find(op.key);
        const std::optional<std::string> expect =
            it != buffer.end() ? std::optional<std::string>(it->second)
                               : oracle.read(op.key);
        EXPECT_EQ(op.value, expect)
            << "txn " << rec.id << " read of " << op.key
            << " is not serializable at its commit position";
      }
    }
    for (const auto& [key, value] : buffer) oracle.write(key, value);
  }
  // Final states agree, per-key versions included.
  EXPECT_TRUE(store == oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializabilityProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace coop::ccontrol
