#include "net/fifo_channel.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/codec.hpp"

namespace coop::net {

namespace {
/// The payload of a kData frame that already parsed once (on arrival, or
/// as this endpoint's own encoding).
std::string_view frame_payload(std::string_view frame) {
  FifoData data;
  return util::decode(frame, data) ? data.payload : std::string_view{};
}
}  // namespace

FifoChannel::FifoChannel(Network& net, Address self, FifoConfig config)
    : net_(net), self_(self), config_(config) {
  assert(config_.max_unacked >= 1 && "the FIFO backlog must be bounded");
  net_.attach(self_, *this);
}

FifoChannel::~FifoChannel() {
  for (PeerState& state : peers_) {
    if (state.timer != sim::kInvalidEvent) net_.simulator().cancel(state.timer);
  }
  net_.detach(self_);
}

FifoChannel::PeerState& FifoChannel::peer_state(const Address& peer) {
  if (PeerState* state = find_peer(peer)) return *state;
  peer_index_.insert(address_key(peer),
                     static_cast<std::uint32_t>(peers_.size()));
  PeerState& state = peers_.emplace_back();
  state.send_epoch = config_.epoch;
  return state;
}

FifoChannel::PeerState* FifoChannel::find_peer(const Address& peer) {
  const std::uint32_t at = peer_index_.find(address_key(peer));
  return at == PeerIndex::kNone ? nullptr : &peers_[at];
}

void FifoChannel::send(const Address& peer, std::string_view payload) {
  PeerState& state = peer_state(peer);
  // Bounded backlog: while a peer is unreachable the queue must not grow
  // without bound.  Tail-drop keeps the oldest (in-order-next) frames,
  // which is the only choice that lets the stream resume seamlessly once
  // the peer heals; dropped sends are visible in overflow_dropped.
  if (state.unacked.size() >= config_.max_unacked) {
    ++stats_.overflow_dropped;
    return;
  }
  const std::uint64_t seq = state.next_send_seq++;
  ++stats_.sent;
  // Encode once; the backlog keeps a reference to the same wire bytes the
  // network is carrying, so retransmits cost no further encoding.
  util::Buf wire = util::encode(
      FifoData{.epoch = state.send_epoch, .seq = seq, .payload = payload});
  net_.send({.src = self_, .dst = peer, .payload = wire});
  state.unacked.insert(seq, std::move(wire));
  if (state.timer == sim::kInvalidEvent) arm_timer(peer, state);
}

void FifoChannel::resync(const Address& peer) {
  PeerState& state = peer_state(peer);
  state.hello_pending = true;
  send_hello(peer, state.send_epoch);
  if (state.timer == sim::kInvalidEvent) arm_timer(peer, state);
}

void FifoChannel::send_hello(const Address& peer, std::uint32_t epoch) {
  net_.send({.src = self_, .dst = peer,
             .payload = util::encode(FifoHello{.epoch = epoch})});
}

void FifoChannel::arm_timer(const Address& peer, PeerState& state) {
  // Exponential backoff capped at max_retransmit_timeout.
  sim::Duration timeout = config_.retransmit_timeout;
  for (int i = 0; i < state.retries && timeout < config_.max_retransmit_timeout;
       ++i) {
    timeout *= 2;
  }
  timeout = std::min(timeout, config_.max_retransmit_timeout);
  if (config_.backoff_jitter > 0) {
    const double scale = net_.simulator().rng().uniform(
        1.0 - config_.backoff_jitter, 1.0 + config_.backoff_jitter);
    timeout = std::max<sim::Duration>(
        1, static_cast<sim::Duration>(static_cast<double>(timeout) * scale));
  }
  // Peers are never dropped and the destructor cancels their timers, so
  // the timer may hold on to the state itself.
  state.timer = net_.simulator().schedule_after(timeout, [this, peer,
                                                         &st = state] {
    st.timer = sim::kInvalidEvent;
    if (st.unacked.empty() && !st.hello_pending) return;
    ++st.retries;
    if (config_.max_retransmits >= 0 &&
        st.retries > config_.max_retransmits) {
      stats_.gave_up += st.unacked.size();
      st.unacked.reset(st.next_send_seq);
      st.hello_pending = false;
      return;
    }
    // Enough consecutive silent rounds: the peer is unreachable.  Report
    // once per episode (ack progress resets the episode) and keep
    // retransmitting — backoff caps the chatter and max_unacked caps the
    // state, so persistence stays affordable.
    if (config_.unreachable_after > 0 &&
        st.retries >= config_.unreachable_after && !st.unreachable_reported) {
      st.unreachable_reported = true;
      ++stats_.unreachable_events;
      if (unreachable_) unreachable_(peer);
    }
    if (st.hello_pending) send_hello(peer, st.send_epoch);
    // Go-back-N style: retransmit everything outstanding, re-sending the
    // original wire buffers (shared, not re-encoded).
    st.unacked.for_each([&](std::uint64_t, const util::Buf& wire) {
      ++stats_.retransmits;
      net_.send({.src = self_, .dst = peer, .payload = wire});
    });
    arm_timer(peer, st);
  });
}

void FifoChannel::send_ack(const Address& peer, std::uint32_t epoch,
                           std::uint64_t cumulative) {
  net_.send({.src = self_, .dst = peer,
             .payload = util::encode(
                 FifoAck{.epoch = epoch, .cumulative = cumulative})});
}

bool FifoChannel::observe_epoch(PeerState& state, std::uint32_t epoch) {
  if (epoch < state.remote_epoch) {
    // Frame of a dead incarnation still in flight: never regress.
    ++stats_.stale;
    return false;
  }
  if (epoch > state.remote_epoch) {
    // The peer's stream was renumbered from 1: reset the receive cursor.
    // (remote_epoch == 0 means first contact — count that silently.)
    if (state.remote_epoch != 0) ++stats_.resyncs;
    state.remote_epoch = epoch;
    state.holdback.reset(1);
    state.holdback_far.clear();
  }
  return true;
}

void FifoChannel::resync_send(const Address& peer, PeerState& state) {
  // The peer restarted and lost its receive cursor: renumber the whole
  // outstanding backlog from 1 under a fresh epoch (so stragglers of the
  // old numbering are recognizably stale) and retransmit immediately.
  // The backlog is dense, so renumbering keeps every frame in its slot
  // and re-encodes it from the payload in its old wire bytes.
  ++state.send_epoch;
  state.unacked.rebase(1);
  state.next_send_seq = 1 + state.unacked.size();
  state.retries = 0;
  state.unacked.for_each([&](std::uint64_t seq, util::Buf& slot) {
    ++stats_.retransmits;
    util::Buf wire = util::encode(FifoData{
        .epoch = state.send_epoch, .seq = seq, .payload = frame_payload(slot)});
    net_.send({.src = self_, .dst = peer, .payload = wire});
    slot = std::move(wire);
  });
  if (state.timer != sim::kInvalidEvent) {
    net_.simulator().cancel(state.timer);
    state.timer = sim::kInvalidEvent;
  }
  if (!state.unacked.empty() || state.hello_pending) arm_timer(peer, state);
}

void FifoChannel::on_message(const Message& msg) {
  FifoMsg type{};
  if (!util::decode(msg.payload, type)) return;

  if (type == FifoMsg::kAck) {
    FifoAck ack;
    if (!util::decode(msg.payload, ack)) return;
    PeerState* found = find_peer(msg.src);
    if (found == nullptr) return;
    PeerState& state = *found;
    if (ack.epoch != state.send_epoch) {
      ++stats_.stale;  // ack for a renumbered-away stream
      return;
    }
    // An ack echoing our current epoch proves the peer has reset to it.
    state.hello_pending = false;
    // Pops only what is in the backlog, whatever cum claims.
    const std::size_t before = state.unacked.size();
    while (!state.unacked.empty() && state.unacked.base() <= ack.cumulative) {
      state.unacked.pop_front();
    }
    if (state.unacked.size() < before) {
      state.retries = 0;
      state.unreachable_reported = false;  // episode over: progress made
    }
    if (state.unacked.empty() && !state.hello_pending &&
        state.timer != sim::kInvalidEvent) {
      net_.simulator().cancel(state.timer);
      state.timer = sim::kInvalidEvent;
    }
    return;
  }

  if (type == FifoMsg::kHello) {
    FifoHello hello;
    if (!util::decode(msg.payload, hello)) return;
    PeerState& state = peer_state(msg.src);
    const std::uint32_t previous = state.remote_epoch;
    if (!observe_epoch(state, hello.epoch)) return;
    // A hello (unlike a mere data-frame epoch bump) asserts the peer is a
    // fresh incarnation with no receive state: our old sequence numbers
    // mean nothing to it, so renumber the outstanding backlog.  Guarded
    // to actual bumps so duplicate hellos are idempotent.
    if (hello.epoch > previous) resync_send(msg.src, state);
    send_ack(msg.src, state.remote_epoch, state.holdback.base() - 1);
    return;
  }
  FifoData data;
  if (!util::decode(msg.payload, data)) return;
  PeerState& state = peer_state(msg.src);
  if (!observe_epoch(state, data.epoch)) return;

  const std::uint64_t next_expected = state.holdback.base();
  if (data.seq < next_expected) {
    ++stats_.duplicates;
    send_ack(msg.src, state.remote_epoch,
             next_expected - 1);  // re-ack: ack was lost
    return;
  }
  if (data.seq > next_expected) {
    hold_back(state, data.seq, msg.payload);
    send_ack(msg.src, state.remote_epoch, next_expected - 1);
    return;
  }
  // In-order: deliver, then drain the hold-back run.  Each held frame is
  // popped before its callback, so its payload view stays valid even if
  // the callback re-enters the channel.
  state.holdback.pop_front();  // the arriving frame's own, vacant slot
  deliver(msg.src, state, data.payload);
  while (state.holdback.find(state.holdback.base()) != nullptr) {
    const util::Buf frame = state.holdback.pop_front();
    deliver(msg.src, state, frame_payload(frame));
  }
  send_ack(msg.src, state.remote_epoch, state.holdback.base() - 1);
}

void FifoChannel::hold_back(PeerState& state, std::uint64_t seq,
                            const util::Buf& frame) {
  if (seq - state.holdback.base() < config_.max_unacked) {
    state.holdback.insert(seq, frame);
  } else {
    state.holdback_far.try_emplace(seq, frame);
  }
}

void FifoChannel::deliver(const Address& peer, PeerState& state,
                          std::string_view payload) {
  ++stats_.delivered;
  // The window slid by one: a far arrival it now covers joins the ring.
  auto far = state.holdback_far.begin();
  if (far != state.holdback_far.end() &&
      far->first - state.holdback.base() < config_.max_unacked) {
    state.holdback.insert(far->first, std::move(far->second));
    state.holdback_far.erase(far);
  }
  if (receive_) receive_(peer, payload);
}

std::size_t FifoChannel::unacked(const Address& peer) const {
  const std::uint32_t at = peer_index_.find(address_key(peer));
  return at == PeerIndex::kNone ? 0 : peers_[at].unacked.size();
}

}  // namespace coop::net
