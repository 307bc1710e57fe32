// Reliable, ordered group communication — the engineering-viewpoint group
// support the paper calls for in §4.2.2-iv.
//
// GroupChannel layers three guarantees over the lossy, reordering simulated
// network:
//
//   1. Reliability: positive acknowledgement with retransmission and
//      receiver-side duplicate suppression (at-least-once on the wire,
//      exactly-once delivery to the application).
//   2. Ordering, selectable per channel:
//        kUnordered — deliver on arrival,
//        kFifo      — per-sender sequence order (hold-back queue),
//        kCausal    — vector-clock causal order (Birman-style CBCAST),
//        kTotal     — sequencer-based total order (the first live member
//                     acts as sequencer; all members deliver in the same
//                     global sequence).
//   3. Failure masking: members marked failed are dropped from the ack
//      quorum so the sender does not retransmit forever.
//
// Site indices: every member occupies a fixed slot in the member list.
// Slots are append-only — a failed member's slot is marked dead rather than
// compacted — so vector-clock components never need remapping mid-session.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "time/logical_clocks.hpp"
#include "util/codec.hpp"
#include "util/watermark_set.hpp"

namespace coop::groups {

/// Delivery-order guarantee of a channel.
enum class Ordering : std::uint8_t {
  kUnordered = 0,
  kFifo = 1,
  kCausal = 2,
  kTotal = 3,
};

/// What the application sees for each delivered message.
struct Delivery {
  std::size_t sender = 0;        ///< site index of the originator
  net::Address sender_addr;      ///< address of the originator
  std::uint64_t seq = 0;         ///< per-sender sequence number
  std::uint64_t total_seq = 0;   ///< global sequence (kTotal only)
  std::string payload;
  sim::TimePoint sent_at = 0;    ///< virtual time of the original broadcast
  /// Causal context of this delivery (descends from the originating
  /// broadcast, through every network hop and sequencer relay).  Pass it
  /// as the parent of any work the delivery triggers to keep the chain
  /// in one trace.
  obs::CausalContext ctx{};
};

/// Group-channel wire formats: every frame starts with its ChannelMsg byte.
enum class ChannelMsg : std::uint8_t {
  kData = 1,      ///< reliable broadcast payload
  kAck = 2,       ///< receiver ack for kData
  kTotalReq = 3,  ///< sender -> sequencer ordering request
  kSolicit = 4,   ///< new sequencer -> members: send recovery summaries
  kRecover = 5,   ///< member -> new sequencer: tail + un-relayed requests
};
COOP_ENUM_RANGE(ChannelMsg, kData, kRecover)

/// A broadcast; under kTotal, as relayed by the sequencer that stamped it.
struct DataMsg {
  ChannelMsg type = ChannelMsg::kData;
  std::uint32_t sender = 0;     ///< the originator's slot
  std::uint64_t seq = 0;        ///< the originator's per-sender seq
  std::uint64_t total_seq = 0;  ///< kTotal: position in the global order
  std::uint32_t epoch = 0;      ///< kTotal: slot of the stamping sequencer
  sim::TimePoint sent_at = 0;
  util::ArrayView<std::uint64_t> clock;  ///< the sender's vector clock
  std::string_view payload;
  COOP_FIELDS(type, sender, seq, total_seq, epoch, sent_at, clock, payload)
};

struct AckMsg {
  ChannelMsg type = ChannelMsg::kAck;
  std::uint32_t sender = 0;  ///< of the acked message
  std::uint64_t seq = 0;
  std::uint32_t acker = 0;   ///< the acking member's slot
  COOP_FIELDS(type, sender, seq, acker)
};

struct TotalReqMsg {
  ChannelMsg type = ChannelMsg::kTotalReq;
  std::uint32_t sender = 0;
  std::uint64_t seq = 0;
  sim::TimePoint sent_at = 0;
  std::string_view payload;
  COOP_FIELDS(type, sender, seq, sent_at, payload)
};

/// Carries the solicitor's delivered position (epoch, total seq).
struct SolicitMsg {
  ChannelMsg type = ChannelMsg::kSolicit;
  std::uint32_t epoch = 0;
  std::uint64_t total = 0;
  COOP_FIELDS(type, epoch, total)
};

/// A past kTotal delivery, as a member retains it for failover recovery.
struct TailEntry {
  std::uint32_t sender = 0;
  std::uint64_t seq = 0;
  std::uint32_t epoch = 0;  ///< epoch the delivery committed under
  std::uint64_t total = 0;  ///< total_seq the delivery committed under
  sim::TimePoint sent_at = 0;
  std::string payload;
  COOP_FIELDS(sender, seq, epoch, total, sent_at, payload)
};

/// A broadcast its sender has not yet seen relayed (sequenced) back.
struct ReplayReq {
  std::uint32_t sender = 0;  ///< not on the wire: the responder's slot
  std::uint64_t seq = 0;
  sim::TimePoint sent_at = 0;
  sim::TimePoint deadline = 0;
  std::string payload;
  COOP_FIELDS(seq, sent_at, deadline, payload)
};

/// A member's answer to kSolicit: its delivered position, the tail the
/// solicitor has not delivered, and its un-relayed broadcasts.
struct RecoverMsg {
  ChannelMsg type = ChannelMsg::kRecover;
  std::uint32_t responder = 0;  ///< the responder's slot
  std::uint32_t epoch = 0;
  std::uint64_t total = 0;
  std::vector<TailEntry> tail;
  std::vector<ReplayReq> relays;
  COOP_FIELDS(type, responder, epoch, total, tail, relays)
};

/// Channel tuning knobs.  Under every ordering but kTotal the sender
/// delivers its own broadcast locally at once; kTotal waits for the
/// sequencer.  kTotal always runs the failover replay protocol (see
/// GroupChannel::mark_failed).
struct ChannelConfig {
  Ordering ordering = Ordering::kFifo;
  sim::Duration retransmit_timeout = sim::msec(50);
  int max_retransmits = 10;
  /// Scheduling class stamped on every frame this channel sends; the
  /// overload plane sheds lowest-priority-first.  Group streams carrying
  /// awareness/media should run kBackground, membership kControl.
  net::Priority priority = net::Priority::kCore;
  /// Relative deadline applied to each broadcast (absolute deadline =
  /// broadcast time + this); 0 = none.  Propagated in message headers so
  /// the total-order sequencer drops expired requests on dequeue and
  /// retransmission stops once the work is pointless.
  sim::Duration broadcast_deadline = 0;
};

/// A set of member slots as a bitmask, iterated in ascending slot order.
/// The first 64 slots live inline, so typical groups never allocate;
/// larger groups spill the higher words into a vector.
class SlotMask {
 public:
  void insert(std::size_t slot) {
    std::uint64_t& w = word(slot);
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    if ((w & bit) == 0) ++count_;
    w |= bit;
  }
  /// Removes @p slot; returns true if it was present.
  bool erase(std::size_t slot) {
    if (!contains(slot)) return false;
    word(slot) &= ~(std::uint64_t{1} << (slot % 64));
    --count_;
    return true;
  }
  [[nodiscard]] bool contains(std::size_t slot) const noexcept {
    const std::size_t w = slot / 64;
    const std::uint64_t bits =
        w == 0 ? low_ : (w - 1 < high_.size() ? high_[w - 1] : 0);
    return ((bits >> (slot % 64)) & 1) != 0;
  }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Calls @p fn(slot) for every member, lowest slot first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w <= high_.size(); ++w) {
      for (std::uint64_t bits = w == 0 ? low_ : high_[w - 1]; bits != 0;
           bits &= bits - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

 private:
  std::uint64_t& word(std::size_t slot) {
    const std::size_t w = slot / 64;
    if (w == 0) return low_;
    if (w > high_.size()) high_.resize(w, 0);
    return high_[w - 1];
  }

  std::uint64_t low_ = 0;
  std::vector<std::uint64_t> high_;
  std::size_t count_ = 0;
};

/// Channel statistics for experiment accounting.
struct ChannelStats {
  std::uint64_t broadcasts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t gave_up = 0;        ///< messages that exhausted retries
  std::uint64_t held_back_max = 0;  ///< high-water mark of hold-back queue
  std::uint64_t expired_drops = 0;   ///< reqs dropped expired at sequencing
  std::uint64_t expired_abandoned = 0;  ///< retransmissions stopped: expired
  std::uint64_t failover_replayed = 0;  ///< broadcasts replayed at failover
  std::uint64_t phantom_commits = 0;  ///< re-sequenced slots committed w/o
                                      ///< redelivery (already delivered)
};

/// One member's endpoint of a reliable ordered group channel.
class GroupChannel : public net::Endpoint {
 public:
  using DeliverFn = std::function<void(const Delivery&)>;

  /// Creates the member endpoint and attaches it to the network at
  /// @p self.  Call set_members() before the first broadcast.
  GroupChannel(net::Network& net, net::Address self, net::McastId group,
               ChannelConfig config = {});
  ~GroupChannel() override;

  GroupChannel(const GroupChannel&) = delete;
  GroupChannel& operator=(const GroupChannel&) = delete;

  /// Fixes the member list (identical order at every member).  The slot of
  /// @p self in this list becomes this member's site index.
  void set_members(const std::vector<net::Address>& members);

  /// Registers the application delivery callback.
  void on_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Broadcasts @p payload to the group with the configured guarantees.
  /// Returns this member's per-sender sequence number for the message.
  /// @p parent optionally links the broadcast into an existing trace (a
  /// user-action context); when invalid the broadcast starts a fresh
  /// trace.  Retransmissions and every member's delivery descend from it.
  std::uint64_t broadcast(std::string payload,
                          const obs::CausalContext& parent = {});

  /// Marks a member failed: no further acks expected from it, pending
  /// retransmissions to it are abandoned.  (Fed by the membership
  /// service's failure detector.)
  ///
  /// kTotal sequencer failover: if the failed member was the sequencer,
  /// the lowest surviving slot takes over in a new *epoch*.  Unacked
  /// ordering requests are re-routed to the new sequencer.
  ///
  /// The new sequencer runs a recovery round first: it solicits every
  /// survivor's delivered tail and un-relayed-but-acked request buffer,
  /// re-sequences the recovered suffix into the new epoch in the old
  /// global order, and replays the acked requests the dead sequencer never
  /// relayed — so survivors agree on one order that *extends* each
  /// survivor's delivered prefix and no acked broadcast from a surviving
  /// sender is lost, even when the coordinator dies in the same incident.
  void mark_failed(const net::Address& member);

  [[nodiscard]] std::size_t self_index() const noexcept { return self_index_; }
  [[nodiscard]] net::Address self() const noexcept { return self_; }
  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t member_count() const noexcept {
    return members_.size();
  }
  [[nodiscard]] bool is_sequencer() const noexcept;
  /// The per-sender sequence numbers this member has recorded seen (by
  /// receipt, or under kTotal by delivery).
  [[nodiscard]] const util::WatermarkSet& seen(std::size_t sender) const {
    return seen_[sender];
  }

  void on_message(const net::Message& msg) override;

 private:
  struct Pending {  // sender side: awaiting acks
    util::Buf wire;                  ///< encoded DATA, shared by resends
    SlotMask awaiting;               ///< member slots yet to ack
    int retries = 0;
    sim::EventId timer = sim::kInvalidEvent;
    bool is_total_req = false;       ///< re-route to new sequencer on fail
    sim::TimePoint deadline = 0;     ///< stamped on (re)sends; 0 = none
    obs::CausalContext ctx{};        ///< broadcast span; resends are children
  };

  struct HeldBack {  // receiver side: not yet deliverable
    Delivery delivery;
    logical::VectorClock vclock;   // kCausal only
    std::uint32_t epoch = 0;       // kTotal only: sequencing epoch
    bool phantom = false;  // kTotal replay: commit the slot, don't redeliver
  };

  struct StashedReq {  // sequencer side: an ordering request not yet placed
    sim::TimePoint sent_at;
    std::string payload;
    sim::TimePoint deadline = 0;  ///< from the request header; 0 = none
    obs::CausalContext ctx{};  ///< context of the arriving ordering request
  };

  void send_data(std::uint64_t seq, const util::Buf& wire,
                 const obs::CausalContext& ctx, sim::TimePoint deadline);
  void arm_retransmit(std::uint64_t seq);
  void handle_data(const net::Message& msg);
  /// Ordering-agnostic "could this be delivered right now" predicate,
  /// shared by try_deliver / flush_holdback.
  [[nodiscard]] bool deliverable_now(const HeldBack& hb) const;
  /// Commits the ordering cursors for a delivery about to happen.
  void commit_order(const HeldBack& hb);
  void handle_ack(const net::Message& msg);
  void send_ack(const net::Message& msg, std::uint32_t sender,
                std::uint64_t seq);
  void handle_total_req(const net::Message& msg);
  void sequence_ready_reqs(std::size_t sender);
  /// Assigns the next total_seq to a dequeued request, relays it and
  /// delivers it locally.
  void sequence_req(std::size_t sender, std::uint64_t seq, StashedReq& req);
  /// Delivers @p hb (with @p payload) now if its order allows, else holds
  /// it back.
  void try_deliver(HeldBack hb, std::string_view payload);
  void flush_holdback();
  void deliver_now(const Delivery& d);

  util::Buf encode_data(std::size_t sender, std::uint64_t seq,
                        std::uint64_t total_seq, sim::TimePoint sent_at,
                        util::ArrayView<std::uint64_t> clock,
                        std::string_view payload) const;

  net::Network& net_;
  net::Address self_;
  net::McastId group_;
  ChannelConfig config_;
  std::vector<net::Address> members_;
  std::vector<bool> alive_;
  std::size_t self_index_ = 0;
  DeliverFn deliver_;

  std::uint64_t next_seq_ = 1;                   // own per-sender seq
  std::map<std::uint64_t, Pending> pending_;     // own unacked broadcasts
  std::vector<std::uint64_t> next_expected_;     // FIFO: per-sender cursor
  std::vector<util::WatermarkSet> seen_;         // dedupe per sender
  std::deque<HeldBack> holdback_;
  logical::VectorClock vclock_;                  // causal state

  // kTotal sequencer state (only used at the sequencer slot).  Ordering
  // requests are sequenced in per-sender seq order — not raw arrival
  // order — so total order preserves each sender's FIFO order even when
  // the network reorders requests in flight.
  std::uint64_t next_total_seq_ = 1;
  std::uint64_t next_expected_total_ = 1;  // receiver cursor for total order
  std::uint32_t epoch_ = 0;                // receiver: current sequencer slot
  // New sequencer: senders whose next request may still jump the gap left
  // by the old sequencer (one jump each, cleared once one is sequenced).
  SlotMask resync_;
  std::vector<std::uint64_t> next_req_;    // per-sender request cursor
  std::vector<std::map<std::uint64_t, StashedReq>> stashed_reqs_;

  // Payload storage recycled across the kTotal hot path: each is moved out
  // while in use (so a delivery callback that re-enters the channel just
  // allocates) and moved back afterwards, handing its capacity on.
  std::string rx_spare_;   // receiver: an arriving kData payload
  std::string req_spare_;  // sequencer: an arriving request's payload

  // kTotal failover-recovery state.
  //
  // Every member retains a bounded tail of its past total-order deliveries
  // (delivered_tail_) and every sender keeps the payload of each broadcast
  // until it has delivered it *itself* (relay_wait_ — once self-delivered,
  // the whole group's sequencer has relayed it and it can no longer be
  // lost to a sequencer crash).  On takeover the new sequencer solicits
  // both from all survivors and replays them into the new epoch.
  struct RelayWait {  // an own broadcast not yet delivered back to us
    sim::TimePoint sent_at = 0;
    sim::TimePoint deadline = 0;
    util::Buf payload;  ///< pooled copy: no heap allocation once warm
    obs::CausalContext ctx{};
  };
  // Fixed ring of the last kRecoveryTail deliveries (grown on first use,
  // then overwritten in place so each entry reuses its payload capacity).
  std::vector<TailEntry> delivered_tail_;
  std::size_t tail_next_ = 0;  // slot the next push overwrites once full
  std::map<std::uint64_t, RelayWait> relay_wait_;  // own seq -> payload
  bool recovering_ = false;
  std::set<std::size_t> recover_await_;            // slots yet to answer
  std::map<std::uint64_t, TailEntry> recovered_;   // pending_key -> entry
  std::map<std::uint64_t, ReplayReq> relay_replays_;
  std::pair<std::uint32_t, std::uint64_t> recover_min_pos_{0, 0};
  sim::TimePoint recover_started_ = 0;
  sim::EventId recover_timer_ = sim::kInvalidEvent;

  /// kTotal failover recovery: per-member bound (entries) on the retained
  /// tail of past deliveries that seeds the replay.  Survivors lagging
  /// further behind the common prefix than this cannot be caught up by
  /// recovery alone (retransmission still repairs them pre-failover).
  static constexpr std::size_t kRecoveryTail = 128;
  /// kTotal failover recovery: the promoted sequencer waits at most this
  /// long for solicited summaries before proceeding with what arrived
  /// (covers survivors that die mid-recovery without a view change).
  static constexpr sim::Duration kRecoveryTimeout = sim::msec(500);

  void tail_push(std::uint32_t sender, std::uint64_t seq, std::uint32_t epoch,
                 std::uint64_t total, sim::TimePoint sent_at,
                 std::string_view payload);
  /// Calls @p fn on every retained tail entry, oldest first.
  template <typename Fn>
  void for_each_tail(Fn&& fn) const {
    const std::size_t n = delivered_tail_.size();
    const std::size_t first = n < kRecoveryTail ? 0 : tail_next_;
    for (std::size_t i = 0; i < n; ++i)
      fn(delivered_tail_[(first + i) % n]);
  }
  void begin_recovery();
  void send_solicits();
  void handle_solicit(const net::Message& msg);
  void handle_recover(const net::Message& msg);
  /// Merges one recovered tail entry into recovered_.
  void adopt_recovered(const TailEntry& e);
  void finish_recovery();
  void resequence(std::uint32_t sender, std::uint64_t seq,
                  sim::TimePoint sent_at, std::string payload);

  [[nodiscard]] std::size_t sequencer_slot() const;
  void take_over_sequencing();

  // Hot storage for the channel's counters; the registry reads it through
  // polled views under metric_prefix_ (retired/frozen in the destructor).
  ChannelStats stats_;
  std::string metric_prefix_;
  // Observability plane: windowed delivery rate and the wall-clock cost
  // of the application delivery callback.
  obs::Timeseries::SeriesId ts_delivered_;
  obs::Profiler::SiteId prof_deliver_;
};

}  // namespace coop::groups
