// Reliable, in-order, point-to-point message channel (TCP-lite) over the
// lossy, reordering datagram fabric.
//
// Several coop protocols — most importantly the OT editor, whose Jupiter
// links require FIFO channels — need per-peer ordered delivery.  One
// FifoChannel endpoint multiplexes any number of peers: per-peer send
// sequence numbers with retransmission until cumulatively acknowledged,
// and a per-peer receive hold-back queue that releases messages strictly
// in order with duplicate suppression.
//
// Crash-restart resynchronization: every frame carries the sender's
// stream *epoch*.  A restarted process constructs its replacement channel
// with a higher FifoConfig::epoch and calls resync() toward each known
// peer; the kHello it sends makes the survivor reset its receive cursor
// AND renumber its own unacknowledged backlog under a fresh epoch (the
// restarted peer lost its receive state, so old sequence numbers are
// meaningless to it).  A data frame with a bumped epoch resets the
// receive cursor only — it means "this stream was renumbered", not "the
// peer lost its receive state" — which is what keeps two channels from
// ping-ponging epoch bumps at each other.  Residual UDP-era window:
// frames of a dead incarnation still in flight during the handshake can
// be delivered once before the epoch bump lands; applications needing
// cross-restart exactly-once must be idempotent (the same contract as
// the RPC replay cache's per-incarnation at-most-once).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string_view>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"
#include "util/flat_index.hpp"
#include "util/seq_ring.hpp"

namespace coop::net {

/// FIFO wire formats: every frame starts with its FifoMsg byte.
enum class FifoMsg : std::uint8_t { kData = 0x71, kAck = 0x72, kHello = 0x73 };
COOP_ENUM_RANGE(FifoMsg, kData, kHello)

struct FifoData {
  FifoMsg type = FifoMsg::kData;
  std::uint32_t epoch = 0;  ///< the sender's stream incarnation
  std::uint64_t seq = 0;
  std::string_view payload;
  COOP_FIELDS(type, epoch, seq, payload)
};

/// Cumulative: every seq up to @p cumulative arrived (under @p epoch).
struct FifoAck {
  FifoMsg type = FifoMsg::kAck;
  std::uint32_t epoch = 0;
  std::uint64_t cumulative = 0;
  COOP_FIELDS(type, epoch, cumulative)
};

struct FifoHello {
  FifoMsg type = FifoMsg::kHello;
  std::uint32_t epoch = 0;
  COOP_FIELDS(type, epoch)
};

struct FifoConfig {
  sim::Duration retransmit_timeout = sim::msec(60);
  /// Backoff doubles the timeout per consecutive silent retry, up to
  /// this cap — so a partition costs bounded chatter, not give-up.
  sim::Duration max_retransmit_timeout = sim::sec(3);
  /// < 0 means never give up (the default: a reliable FIFO stream that
  /// drops a message is broken forever, so persistence is the only
  /// sensible default; bound it only when the application can cope).
  /// Unbounded *retries* are safe because the backlog is no longer
  /// unbounded: max_unacked caps memory and on_peer_unreachable surfaces
  /// the condition, so persistence costs bounded state + bounded chatter.
  int max_retransmits = -1;
  /// Cap on the per-peer unacknowledged backlog (at least 1).  Sends
  /// beyond it are tail-dropped (counted in FifoStats::overflow_dropped)
  /// instead of growing the queue without bound while a peer is
  /// unreachable.  Also the width of the receiver's hold-back ring: a peer
  /// with the same cap never has a frame in flight beyond it.
  std::size_t max_unacked = 256;
  /// Consecutive silent retransmit rounds after which the peer is
  /// reported unreachable via the on_peer_unreachable callback (once per
  /// episode; any ack progress re-arms it).  0 disables the report.
  int unreachable_after = 8;
  /// Deterministic, seeded retransmit jitter: each armed timeout is
  /// scaled by a uniform draw from [1 - jitter, 1 + jitter] out of the
  /// simulator's stream, so peers that heal at the same instant do not
  /// retransmit in lock-step (retry storms).  0 keeps exact backoff.
  double backoff_jitter = 0.0;
  /// Stream incarnation stamped on every frame this endpoint sends.
  /// Bump it (and call resync()) when constructing the replacement
  /// channel of a restarted process.
  std::uint32_t epoch = 1;
};

struct FifoStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t resyncs = 0;  ///< receive cursors reset by an epoch bump
  std::uint64_t stale = 0;    ///< frames of a dead incarnation dropped
  std::uint64_t overflow_dropped = 0;  ///< sends refused: backlog at cap
  std::uint64_t unreachable_events = 0;  ///< kPeerUnreachable reports
};

/// One endpoint of (any number of) reliable ordered channels.
class FifoChannel : public Endpoint {
 public:
  /// @p payload views the delivered frame and is valid only for the
  /// duration of the callback; copy it to keep it.
  using ReceiveFn =
      std::function<void(const Address& from, std::string_view payload)>;
  /// Fired once per unreachability episode, after
  /// FifoConfig::unreachable_after consecutive silent retransmit rounds
  /// toward @p peer; re-armed by any ack progress.
  using UnreachableFn = std::function<void(const Address& peer)>;

  FifoChannel(Network& net, Address self, FifoConfig config = {});
  ~FifoChannel() override;

  FifoChannel(const FifoChannel&) = delete;
  FifoChannel& operator=(const FifoChannel&) = delete;

  /// Queues @p payload for in-order delivery at @p peer.  The bytes are
  /// copied into the wire frame before send() returns.
  void send(const Address& peer, std::string_view payload);

  /// Announces this (re)started endpoint to @p peer with a kHello carrying
  /// our epoch.  The hello is retried on the retransmit timer until the
  /// peer acknowledges the epoch, so a lost hello only delays
  /// resynchronization.  Call once per known peer after a restart.
  void resync(const Address& peer);

  void on_receive(ReceiveFn fn) { receive_ = std::move(fn); }
  void on_peer_unreachable(UnreachableFn fn) {
    unreachable_ = std::move(fn);
  }

  [[nodiscard]] Address self() const noexcept { return self_; }
  [[nodiscard]] const FifoStats& stats() const noexcept { return stats_; }
  /// Messages sent to @p peer not yet acknowledged.
  [[nodiscard]] std::size_t unacked(const Address& peer) const;

  void on_message(const Message& msg) override;

 private:
  // Both directions keep whole kData frames, shared by reference count
  // with the network: the sender's backlog holds the very Buf every
  // (re)transmission carries, and the receiver holds the arrived frame.
  // The payload is re-read from the frame when it is needed (delivery,
  // or re-encoding when a resync renumbers the backlog).
  struct PeerState {
    // Sender side.
    std::uint32_t send_epoch = 1;
    std::uint64_t next_send_seq = 1;
    /// Unacked frames [unacked.base(), next_send_seq): dense, because
    /// sequence numbers are contiguous and acks are cumulative.
    util::SeqRing unacked;
    sim::EventId timer = sim::kInvalidEvent;
    int retries = 0;
    bool hello_pending = false;
    bool unreachable_reported = false;  ///< this episode already reported
    // Receiver side.
    std::uint32_t remote_epoch = 0;  // 0 = nothing seen yet
    /// Out-of-order arrivals; holdback.base() is the next expected seq.
    /// Only seqs within the window of it are stored here.
    util::SeqRing holdback;
    /// Arrivals beyond the window (never from a peer with the same
    /// max_unacked); they move into the ring as the window reaches them.
    std::map<std::uint64_t, util::Buf> holdback_far;
  };

  using PeerIndex = util::FlatIndex<std::uint64_t>;

  /// @p peer's state, created on first contact.
  PeerState& peer_state(const Address& peer);
  /// @p peer's state, or nullptr before first contact.
  PeerState* find_peer(const Address& peer);
  /// Stores an out-of-order kData frame for later delivery.
  void hold_back(PeerState& state, std::uint64_t seq, const util::Buf& frame);
  /// Counts and hands out one in-order payload, after the hold-back
  /// cursor has advanced past it.
  void deliver(const Address& peer, PeerState& state,
               std::string_view payload);
  void send_hello(const Address& peer, std::uint32_t epoch);
  /// Schedules @p state's retransmit round toward @p peer.
  void arm_timer(const Address& peer, PeerState& state);
  void send_ack(const Address& peer, std::uint32_t epoch,
                std::uint64_t cumulative);
  /// Receive-side epoch handling; returns false if the frame is stale.
  bool observe_epoch(PeerState& state, std::uint32_t epoch);
  /// Renumbers the unacked backlog under a fresh epoch and retransmits
  /// (the peer restarted and lost its receive state).
  void resync_send(const Address& peer, PeerState& state);

  Network& net_;
  Address self_;
  FifoConfig config_;
  /// Per-peer state in first-contact order, found through peer_index_
  /// (keyed by address_key()).  A deque, so a PeerState& stays valid while
  /// a callback it is held across contacts new peers.
  std::deque<PeerState> peers_;
  PeerIndex peer_index_;
  ReceiveFn receive_;
  UnreachableFn unreachable_;
  FifoStats stats_;
};

}  // namespace coop::net
