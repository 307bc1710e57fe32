// DurableStore — a crash-consistent ccontrol::ObjectStore: every mutation
// is written ahead to a StableMedia, acknowledgements gate on group-commit
// sync, and a restart reconstructs the in-memory state solely from
// checkpoint + WAL replay.
//
// Lifecycle (the fault::FaultPlan crash/restart seam):
//
//   crash    — harness calls crash(torn_bytes) then destroys the object.
//              The unsynced tail is lost (modulo a torn garbage prefix),
//              pending acks drop unfired, the in-memory store dies.
//   restart  — harness constructs a fresh DurableStore over the same
//              StableMedia; the constructor runs recovery: load the last
//              sealed checkpoint (checksum-verified), replay the log
//              suffix (records below the checkpoint's base lsn are
//              skipped), discard the torn/corrupt tail, and resume the
//              lsn sequence above everything recovered.
//
// Checkpoint + compaction: when the synced log exceeds
// checkpoint_log_bytes, the store seals a snapshot of the full in-memory
// state (items + surviving tombstones + base lsn, one checksummed blob,
// atomically replacing the previous snapshot) and truncates the log — so
// log growth is bounded by threshold + one group-commit batch under
// sustained writes, and recovery cost stays O(state + one threshold of
// log) regardless of history length.  Tombstones are GC'd at seal time
// (TTL + count cap, see ObjectStore::gc_tombstones).
//
// Replication hooks: apply_remote_put/apply_remote_erase adopt
// anti-entropy transfers by last-writer-wins on the absolute per-key
// version (ties keep local), writing adopted entries through the WAL so
// catch-up state is exactly as durable as local writes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "ccontrol/store.hpp"
#include "durable/wal.hpp"

namespace coop::durable {

/// Most tombstones a checkpoint keeps (ObjectStore::gc_tombstones).
inline constexpr std::size_t kTombstoneCap = 1024;
/// Modeled virtual-time cost of replaying one recovered byte, reported
/// as the durable.recovery_us series (recovery itself is instantaneous
/// in the discrete-event world; the model makes recovery *latency* a
/// measurable trajectory).
inline constexpr double kReplayUsPerByte = 0.05;

struct DurableConfig {
  std::string name = "store";  ///< metrics key component: durable.<name>.*
  /// Group-commit interval (0 = sync on every append).
  sim::Duration sync_interval = sim::msec(5);
  /// Seal a checkpoint + truncate when the synced log exceeds this many
  /// bytes (0 = manual checkpoints only).  The durable log is then bounded
  /// by this threshold plus one group-commit batch.
  std::size_t checkpoint_log_bytes = 64 * 1024;
  sim::Duration tombstone_ttl = sim::minutes(10);  ///< GC'd at checkpoint
};

/// What recovery found on the medium (per-instance view; the registry
/// mirrors the totals as durable.<name>.* counters).
struct RecoveryStats {
  bool checkpoint_loaded = false;  ///< a valid snapshot was restored
  bool checkpoint_corrupt = false; ///< snapshot present but failed checksum
  std::uint64_t base_lsn = 0;      ///< first lsn the replay had to apply
  std::uint64_t replayed_records = 0;
  std::uint64_t skipped_records = 0;   ///< below base_lsn (covered by ckpt)
  std::size_t truncated_bytes = 0;     ///< torn/corrupt tail discarded
  std::size_t scanned_bytes = 0;       ///< checkpoint + log bytes read
};

class DurableStore {
 public:
  using DurableFn = Wal::DurableFn;

  /// Constructing the store IS recovery: the in-memory state is rebuilt
  /// from @p media before the first operation is accepted.
  DurableStore(sim::Simulator& sim, obs::Obs& obs, StableMedia& media,
               DurableConfig cfg);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  // --- mutations (write-ahead, ack on sync) --------------------------------

  /// Writes (@p key, @p value); @p on_durable fires when the op's WAL
  /// record has reached the stable medium (never, if a crash intervenes —
  /// the op is then lost with the unsynced tail, exactly the un-acked
  /// window).
  void put(const std::string& key, std::string value,
           DurableFn on_durable = nullptr);

  /// Deletes @p key, leaving a durable tombstone; @p on_durable as put().
  /// Deleting a key that never existed is trivially durable and acks
  /// immediately.
  void erase(const std::string& key, DurableFn on_durable = nullptr);

  // --- anti-entropy adoption ----------------------------------------------

  /// Adopts a remote value iff @p version dominates the local known
  /// version (live or tombstone; ties keep local).  Adopted entries are
  /// WAL-written with their remote version.  Returns true if adopted.
  bool apply_remote_put(const std::string& key, std::string value,
                        std::uint64_t version, std::uint64_t stamp);

  /// Adopts a remote deletion iff @p version dominates.  Returns true if
  /// adopted.
  bool apply_remote_erase(const std::string& key, std::uint64_t version,
                          std::uint64_t stamp);

  // --- reads / introspection ----------------------------------------------

  [[nodiscard]] std::optional<std::string> read(const std::string& key) const {
    return mem_.read(key);
  }
  [[nodiscard]] const ccontrol::ObjectStore& store() const noexcept {
    return mem_;
  }
  [[nodiscard]] const RecoveryStats& recovery() const noexcept {
    return recovery_;
  }
  [[nodiscard]] std::size_t log_bytes() const noexcept {
    return wal_.log_bytes();
  }
  /// Largest synced-log size ever observed (bounded-log invariant input).
  [[nodiscard]] std::size_t max_log_bytes() const noexcept {
    return max_log_bytes_;
  }
  [[nodiscard]] std::uint64_t next_lsn() const noexcept {
    return wal_.next_lsn();
  }

  // --- durability control --------------------------------------------------

  /// Forces a group commit now.
  void sync() { wal_.sync(); }

  /// Seals a checkpoint (sync + snapshot + log truncation + tombstone GC).
  void checkpoint();

  /// Fail-stop crash: see Wal::crash.  The object is inert afterwards.
  void crash(std::size_t torn_bytes = 0) { wal_.crash(torn_bytes); }

 private:
  /// Rebuilds @p mem from @p media and repairs the medium (torn suffix
  /// truncated, so future appends follow the intact prefix); returns the
  /// next lsn to issue.
  static std::uint64_t recover(StableMedia& media, ccontrol::ObjectStore& mem,
                               RecoveryStats& out);

  void after_sync();

  sim::Simulator& sim_;
  obs::Obs& obs_;
  StableMedia& media_;
  DurableConfig cfg_;
  ccontrol::ObjectStore mem_;
  RecoveryStats recovery_;
  Wal wal_;  // constructed last: recovery computes its first lsn
  std::size_t max_log_bytes_ = 0;
  bool checkpointing_ = false;
  // Registry-owned "durable.<name>.*" counters.
  util::Counter* replays_;
  util::Counter* replayed_records_;
  util::Counter* truncated_tail_;
  util::Counter* truncated_bytes_;
  util::Counter* checkpoints_;
  util::Counter* tombstones_gc_;
  obs::Timeseries::SeriesId ts_recovery_;
};

}  // namespace coop::durable
