// Classic atomic transactions over the shared store: strict two-phase
// locking, wait-die deadlock avoidance, serializable by construction.
//
// This engine is the baseline the paper argues *against* for CSCW (§4.2.1
// and Figure 2a): concurrency transparency achieved by prescribing
// serializability, with conflicting users simply blocked behind "walls" —
// no awareness, response time proportional to contention.  The benchmark
// harness races it against the cooperative alternatives (tickle/soft/
// notification locks, transaction groups, operational transformation).
//
// Wait-die: an older transaction may wait for a younger one; a younger
// transaction requesting a lock held by an older one aborts immediately
// ("dies") and is expected to retry with its original timestamp (callers
// in the benches retry with a fresh transaction, which suffices for the
// workloads measured).  Wait-die guarantees freedom from deadlock, so no
// cycle detector is needed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ccontrol/store.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace coop::ccontrol {

using TxnId = std::uint64_t;

enum class TxnState : std::uint8_t { kActive, kCommitted, kAborted };

/// Why an operation or transaction failed.
enum class TxnError : std::uint8_t {
  kNone = 0,
  kWaitDie,      ///< younger txn died on an older holder's lock
  kNotActive,    ///< operation on a committed/aborted transaction
};

struct TxnStats {
  std::uint64_t begun = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t wait_die_aborts = 0;
  util::Histogram block_time{0.0, 1e7, 64};  ///< µs blocked per lock wait
};

/// The operation log of a committed transaction, in program order — used
/// by the serializability property tests to replay history sequentially.
struct CommitRecord {
  struct Op {
    bool is_write = false;
    std::string key;
    /// Value written, or value observed by the read (nullopt = absent).
    std::optional<std::string> value;
  };
  TxnId id = 0;
  std::vector<Op> ops;
};

/// The transaction engine.  All operations are asynchronous because lock
/// waits consume virtual time.
class TransactionManager {
 public:
  TransactionManager(sim::Simulator& sim, ObjectStore& store)
      : sim_(sim), store_(store) {}

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Starts a transaction; the id doubles as its wait-die timestamp
  /// (smaller = older).
  TxnId begin();

  using ReadFn = std::function<void(bool ok, std::optional<std::string>)>;
  using WriteFn = std::function<void(bool ok)>;

  /// Reads @p key under a shared lock.  ok=false means the transaction
  /// died (wait-die) and has been aborted.
  void read(TxnId txn, const std::string& key, ReadFn done);

  /// Buffers a write under an exclusive lock; visible to others only
  /// after commit.
  void write(TxnId txn, const std::string& key, std::string value,
             WriteFn done);

  /// Applies buffered writes and releases locks.  Returns false if the
  /// transaction was not active.
  bool commit(TxnId txn);

  /// Discards buffered writes and releases locks.
  void abort(TxnId txn);

  [[nodiscard]] TxnState state(TxnId txn) const;
  [[nodiscard]] const TxnStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<CommitRecord>& commit_log() const noexcept {
    return log_;
  }

 private:
  enum class Mode : std::uint8_t { kShared, kExclusive };

  struct Waiter {
    TxnId txn;
    Mode mode;
    std::function<void(bool)> granted;  // false = died while waiting
    sim::TimePoint since;
  };
  struct LockEntry {
    std::map<TxnId, Mode> holders;
    std::deque<Waiter> waiters;
  };
  struct Txn {
    TxnState state = TxnState::kActive;
    std::set<std::string> locks;
    std::map<std::string, std::string> write_buffer;
    CommitRecord record;
  };

  /// Acquires @p key for @p txn; @p done(false) on wait-die abort.
  void lock(TxnId txn, const std::string& key, Mode mode,
            std::function<void(bool)> done);
  [[nodiscard]] bool lock_compatible(const LockEntry& e, TxnId txn,
                                     Mode mode) const;
  void promote(const std::string& key);
  void release_all(TxnId txn);
  void kill(TxnId txn);  ///< wait-die abort

  sim::Simulator& sim_;
  ObjectStore& store_;
  std::map<TxnId, Txn> txns_;
  std::map<std::string, LockEntry> locks_;
  TxnId next_id_ = 1;
  TxnStats stats_;
  std::vector<CommitRecord> log_;
};

}  // namespace coop::ccontrol
