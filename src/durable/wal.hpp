// Per-node write-ahead log in virtual time.
//
// The paper's asynchronous quadrants assume the shared information space
// outlives any one session or node; the chaos plane (DESIGN.md §10) only
// proved "no acked op lost" because the harness kept server state in
// harness-owned maps across restart().  This module makes durability a
// *platform* concern: state survives a crash because — and only because —
// it was written ahead to a stable medium and replayed on recovery.
//
// Model.  StableMedia is the disk platter: plain byte arrays owned by the
// harness, the one thing a fail-stop crash does not erase.  Wal is the
// volatile runtime on top: appends buffer in memory and become durable at
// the next group-commit sync (a configurable virtual-time interval), so a
// crash deterministically drops the unsynced tail.  A crash may also leave
// a *torn* prefix of the record that was being written — garbage bytes the
// recovery scanner must detect and discard, never parse.
//
// Record format, one sealed frame per op (seal_frame/open_frame below; the
// checkpoint, DurableStore's Checkpoint, is sealed the same way):
//
//   u32 body_len | u32 fnv1a(body) | body
//   body = WalRecord: u8 type | u64 lsn | u64 version | u64 stamp | key | value
//
// The per-record checksum is util::fnv1a32.  It is stored on the medium,
// so it stays bit-for-bit FNV-1a; the NIC's word-at-a-time frame checksum
// (net::frame_checksum) is a different function that is never persisted.
// The checksum is what makes the torn/corrupt tail detectable: replay
// (DurableStore recovery) stops at the first frame whose length overruns
// the medium, whose body hashes wrong or does not decode as exactly one
// WalRecord, counts the truncated bytes, and proceeds with the intact
// prefix.  Acknowledgements are gated on sync (Wal::on_durable), so
// truncated records are by construction un-acked.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"
#include "util/fnv.hpp"

namespace coop::durable {

/// The crash-surviving stable medium of one node.  Owned by the harness
/// (it *is* the disk); every volatile object — Wal, DurableStore, the
/// protocol endpoints — dies at crash time and is rebuilt from these bytes.
struct StableMedia {
  std::vector<std::uint8_t> log;         ///< synced WAL frames (+ torn tail)
  std::vector<std::uint8_t> checkpoint;  ///< last sealed snapshot, [] = none
  std::uint64_t torn_writes = 0;         ///< crashes that left a torn tail
  std::uint64_t checkpoints = 0;         ///< snapshots sealed over lifetime
};

/// One logical WAL record.
struct WalRecord {
  enum Type : std::uint8_t { kPut = 1, kErase = 2 };
  friend COOP_ENUM_RANGE(Type, kPut, kErase)

  Type type = kPut;
  std::uint64_t lsn = 0;      ///< log sequence number, monotonic per node
  std::uint64_t version = 0;  ///< absolute per-key version of the op
  std::uint64_t stamp = 0;    ///< virtual time of the op (tombstone TTL)
  std::string key;
  std::string value;  ///< empty for kErase
  COOP_FIELDS(type, lsn, version, stamp, key, value)
};

/// Appends @p body (a wire value) to @p out as one checksummed frame:
/// {u32 body length, u32 fnv1a32 of the body}, then the body.
template <typename T>
void seal_frame(std::vector<std::uint8_t>& out, const T& body) {
  const util::Buf bytes = util::encode(body);
  const std::array<std::uint32_t, 2> head{
      static_cast<std::uint32_t>(bytes.size()), util::fnv1a32(bytes)};
  const auto* head_bytes = reinterpret_cast<const std::uint8_t*>(head.data());
  out.insert(out.end(), head_bytes, head_bytes + sizeof(head));
  out.insert(out.end(), bytes.data(), bytes.data() + bytes.size());
}

/// Decodes the frame seal_frame wrote at the front of @p bytes into
/// @p body.  Returns the frame's size, or 0 (and @p body unusable) if the
/// frame overruns @p bytes, fails its checksum, or its body is not
/// exactly one T.
template <typename T>
[[nodiscard]] std::size_t open_frame(std::string_view bytes, T& body) {
  std::array<std::uint32_t, 2> head{};  // length, checksum
  if (bytes.size() < sizeof(head)) return 0;
  std::memcpy(head.data(), bytes.data(), sizeof(head));
  if (head[0] > bytes.size() - sizeof(head)) return 0;
  const std::string_view sealed = bytes.substr(sizeof(head), head[0]);
  if (util::fnv1a32(sealed) != head[1] || !util::decode_exact(sealed, body))
    return 0;
  return sizeof(head) + sealed.size();
}

struct WalConfig {
  std::string name = "wal";  ///< metrics key component: durable.<name>.*
  /// Group-commit interval: appends buffer until the next sync tick, so a
  /// sync amortizes over every op that arrived in the window.  0 = sync
  /// synchronously on every append (tests).
  sim::Duration sync_interval = sim::msec(5);
};

/// The volatile write-ahead-log runtime over one StableMedia.
class Wal {
 public:
  using DurableFn = std::function<void()>;

  Wal(sim::Simulator& sim, obs::Obs& obs, StableMedia& media, WalConfig cfg,
      std::uint64_t first_lsn);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends @p rec (its lsn is assigned here), buffers the frame for the
  /// next group commit and arms the sync timer.  If @p on_durable is
  /// given it fires exactly once, when the record's frame has reached the
  /// stable medium — or never, if a crash intervenes.  Returns the lsn.
  std::uint64_t append(WalRecord rec, DurableFn on_durable = nullptr);

  /// Flushes every buffered frame to the medium and fires their
  /// on_durable callbacks in append order.  Idempotent when empty.
  void sync();

  /// Fail-stop crash: the unsynced tail is lost, except for the first
  /// @p torn_bytes of it, which reach the medium as a torn (garbage) tail
  /// for the recovery scanner to discard.  Pending on_durable callbacks
  /// are dropped unfired.  The Wal is inert afterwards; destroy it.
  void crash(std::size_t torn_bytes = 0);

  /// Truncates the medium's log to empty (checkpoint seal).  Buffered
  /// unsynced frames are unaffected — callers sync() first.
  void truncate_log();

  /// Hook fired after each group commit that flushed data (after the
  /// flushed records' on_durable callbacks).  The durability plane uses it
  /// to trigger checkpoints on log growth.
  void set_after_sync(DurableFn fn) { after_sync_ = std::move(fn); }

  [[nodiscard]] std::uint64_t next_lsn() const noexcept { return next_lsn_; }
  [[nodiscard]] std::size_t log_bytes() const noexcept {
    return media_.log.size();
  }
  [[nodiscard]] StableMedia& media() noexcept { return media_; }

 private:
  struct Waiter {
    std::uint64_t lsn;
    DurableFn fn;
  };

  void arm_sync_timer();

  sim::Simulator& sim_;
  StableMedia& media_;
  WalConfig cfg_;
  std::vector<std::uint8_t> pending_;  ///< encoded, not yet synced
  std::vector<Waiter> waiters_;        ///< ack gates for pending records
  std::vector<Waiter> spare_waiters_;  ///< empty; keeps a buffer for sync()
  DurableFn after_sync_;               ///< post-commit hook (may be empty)
  std::uint64_t next_lsn_;
  sim::EventId sync_timer_ = sim::kInvalidEvent;
  bool crashed_ = false;
  obs::Obs& obs_;
  // Registry-owned "durable.<name>.*" counters.
  util::Counter* appends_;
  util::Counter* syncs_;
  util::Counter* synced_bytes_;
};

}  // namespace coop::durable
