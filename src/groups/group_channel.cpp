#include "groups/group_channel.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace coop::groups {

namespace {

/// Pending-table key: per-sender sequence numbers are unique, so the pair
/// (sender slot, seq) identifies any message in the group.
std::uint64_t pending_key(std::size_t sender, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(sender) << 40) | seq;
}

}  // namespace

GroupChannel::GroupChannel(net::Network& net, net::Address self,
                           net::McastId group, ChannelConfig config)
    : net_(net), self_(self), group_(group), config_(config) {
  net_.attach(self_, *this);
  net_.mcast_join(group_, self_);
  // stats_ stays the hot storage; the registry polls it through views.
  metric_prefix_ = "groups.channel." + std::to_string(self_.node) + ":" +
                   std::to_string(self_.port) + ".";
  auto& m = net_.obs().metrics;
  m.expose(metric_prefix_ + "broadcasts",
           [this] { return static_cast<double>(stats_.broadcasts); });
  m.expose(metric_prefix_ + "delivered",
           [this] { return static_cast<double>(stats_.delivered); });
  m.expose(metric_prefix_ + "duplicates",
           [this] { return static_cast<double>(stats_.duplicates); });
  m.expose(metric_prefix_ + "retransmits",
           [this] { return static_cast<double>(stats_.retransmits); });
  m.expose(metric_prefix_ + "gave_up",
           [this] { return static_cast<double>(stats_.gave_up); });
  m.expose(metric_prefix_ + "held_back_max",
           [this] { return static_cast<double>(stats_.held_back_max); });
  m.expose(metric_prefix_ + "expired_drops",
           [this] { return static_cast<double>(stats_.expired_drops); });
  m.expose(metric_prefix_ + "failover_replayed",
           [this] { return static_cast<double>(stats_.failover_replayed); });
  m.expose(metric_prefix_ + "phantom_commits",
           [this] { return static_cast<double>(stats_.phantom_commits); });
  ts_delivered_ = net_.obs().series.series("group.delivered");
  prof_deliver_ = net_.obs().profiler.site("group.deliver",
                                           obs::Category::kGroup);
}

GroupChannel::~GroupChannel() {
  for (auto& [key, p] : pending_) {
    if (p.timer != sim::kInvalidEvent) net_.simulator().cancel(p.timer);
  }
  if (recover_timer_ != sim::kInvalidEvent)
    net_.simulator().cancel(recover_timer_);
  net_.obs().metrics.retire_polled(metric_prefix_);
  net_.mcast_leave(group_, self_);
  net_.detach(self_);
}

void GroupChannel::set_members(const std::vector<net::Address>& members) {
  members_ = members;
  alive_.assign(members_.size(), true);
  next_expected_.assign(members_.size(), 1);
  seen_.assign(members_.size(), {});
  next_req_.assign(members_.size(), 1);
  stashed_reqs_.assign(members_.size(), {});
  vclock_ = logical::VectorClock(members_.size());
  auto it = std::find(members_.begin(), members_.end(), self_);
  assert(it != members_.end() && "self must be a group member");
  self_index_ = static_cast<std::size_t>(it - members_.begin());
}

bool GroupChannel::is_sequencer() const noexcept {
  // The lowest-numbered live slot sequences; failure promotes the next.
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i]) return i == self_index_;
  }
  return false;
}

std::size_t GroupChannel::sequencer_slot() const {
  std::size_t slot = 0;
  while (slot < alive_.size() && !alive_[slot]) ++slot;
  return slot;
}

void GroupChannel::take_over_sequencing() {
  // Resume from what we have delivered ourselves: the contiguous prefix
  // of each sender's seen set.  The resync mask lets each sender's first
  // request jump over messages lost with the old sequencer.
  resync_ = {};
  next_total_seq_ = 1;
  for (std::size_t s = 0; s < seen_.size(); ++s) {
    resync_.insert(s);
    std::uint64_t next = next_req_[s];
    while (seen_[s].count(next) != 0) ++next;
    next_req_[s] = next;
  }
  begin_recovery();
}

void GroupChannel::tail_push(std::uint32_t sender, std::uint64_t seq,
                             std::uint32_t epoch, std::uint64_t total,
                             sim::TimePoint sent_at,
                             std::string_view payload) {
  if (config_.ordering != Ordering::kTotal) return;
  TailEntry* e = nullptr;
  if (delivered_tail_.size() < kRecoveryTail) {
    e = &delivered_tail_.emplace_back();
  } else {
    e = &delivered_tail_[tail_next_];
    tail_next_ = (tail_next_ + 1) % delivered_tail_.size();
  }
  e->sender = sender;
  e->seq = seq;
  e->epoch = epoch;
  e->total = total;
  e->sent_at = sent_at;
  e->payload.assign(payload);
}

void GroupChannel::begin_recovery() {
  recovering_ = true;
  recovered_.clear();
  relay_replays_.clear();
  recover_await_.clear();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != self_index_ && alive_[i]) recover_await_.insert(i);
  }
  // Our own un-relayed broadcasts join the replay pool exactly like a
  // solicited member's would.
  for (const auto& [seq, rw] : relay_wait_) {
    relay_replays_.try_emplace(
        pending_key(self_index_, seq),
        ReplayReq{static_cast<std::uint32_t>(self_index_), seq, rw.sent_at,
                  rw.deadline, rw.payload.str()});
  }
  recover_min_pos_ = {epoch_, next_expected_total_ - 1};
  recover_started_ = net_.simulator().now();
  net_.obs().tracer.event(
      recover_started_, obs::Category::kGroup, "failover_solicit",
      {{"slot", static_cast<double>(self_index_)},
       {"await", static_cast<double>(recover_await_.size())}});
  if (recover_await_.empty()) {
    finish_recovery();
    return;
  }
  send_solicits();
}

void GroupChannel::send_solicits() {
  const util::Buf frame = util::encode(
      SolicitMsg{.epoch = epoch_, .total = next_expected_total_ - 1});
  for (std::size_t slot : recover_await_) {
    net_.send({.src = self_, .dst = members_[slot], .payload = frame,
               .priority = config_.priority});
  }
  recover_timer_ = net_.simulator().schedule_after(
      config_.retransmit_timeout, [this] {
        recover_timer_ = sim::kInvalidEvent;
        if (!recovering_) return;
        if (net_.simulator().now() - recover_started_ >= kRecoveryTimeout) {
          // Some solicited member never answered (it likely died without
          // a view change reaching us yet): recover from what we have.
          net_.obs().tracer.event(
              net_.simulator().now(), obs::Category::kGroup,
              "failover_recovery_timeout",
              {{"unanswered", static_cast<double>(recover_await_.size())}});
          finish_recovery();
          return;
        }
        send_solicits();
      });
}

void GroupChannel::handle_solicit(const net::Message& msg) {
  SolicitMsg solicit;
  if (config_.ordering != Ordering::kTotal ||
      !util::decode(msg.payload, solicit))
    return;
  // Answer with our delivered position, every tail entry the solicitor has
  // not itself delivered, and every own broadcast not yet relayed back to
  // us.  Responding is read-only: authority stays with the solicitor.
  RecoverMsg m{.responder = static_cast<std::uint32_t>(self_index_),
                     .epoch = epoch_,
                     .total = next_expected_total_ - 1};
  for_each_tail([&](const TailEntry& e) {
    if (std::pair(e.epoch, e.total) > std::pair(solicit.epoch, solicit.total))
      m.tail.push_back(e);
  });
  for (const auto& [seq, rw] : relay_wait_) {
    m.relays.push_back({m.responder, seq, rw.sent_at, rw.deadline,
                        rw.payload.str()});
  }
  net_.send({.src = self_, .dst = msg.src, .payload = util::encode(m),
             .priority = config_.priority});
}

void GroupChannel::handle_recover(const net::Message& msg) {
  if (!recovering_) return;  // late/duplicate summary
  // The whole summary is decoded before any of it is adopted: a truncated
  // or malformed one is dropped outright, so it can neither seed the
  // replay nor stand in for the responder's real answer.
  RecoverMsg m;
  if (!util::decode(msg.payload, m) || m.responder >= members_.size()) return;
  for (const TailEntry& e : m.tail) {
    if (e.sender >= members_.size()) return;
  }
  for (const TailEntry& e : m.tail) adopt_recovered(e);
  for (ReplayReq& rep : m.relays) {
    rep.sender = m.responder;
    relay_replays_.try_emplace(pending_key(rep.sender, rep.seq),
                               std::move(rep));
  }
  if (recover_await_.erase(m.responder) == 0) return;  // duplicate summary
  recover_min_pos_ = std::min(recover_min_pos_, std::pair(m.epoch, m.total));
  if (recover_await_.empty()) finish_recovery();
}

void GroupChannel::adopt_recovered(const TailEntry& e) {
  // Keep the highest-position copy: after chained failovers the latest
  // epoch's slot is the binding one.
  auto [it, inserted] = recovered_.try_emplace(pending_key(e.sender, e.seq), e);
  if (!inserted && std::pair(e.epoch, e.total) >
                       std::pair(it->second.epoch, it->second.total)) {
    it->second = e;
  }
}

void GroupChannel::finish_recovery() {
  recovering_ = false;
  if (recover_timer_ != sim::kInvalidEvent) {
    net_.simulator().cancel(recover_timer_);
    recover_timer_ = sim::kInvalidEvent;
  }
  // Our own tail is a summary like any other (merged late so deliveries
  // that landed during the solicit round are included).
  for_each_tail([this](const TailEntry& e) { adopt_recovered(e); });
  // Phase 1: re-sequence the recovered suffix — everything some survivor
  // delivered beyond the *minimum* live prefix — in the old global order,
  // so the new epoch's order extends every survivor's delivered prefix.
  std::vector<const TailEntry*> suffix;
  for (const auto& [key, e] : recovered_) {
    if (std::pair(e.epoch, e.total) > recover_min_pos_)
      suffix.push_back(&e);
  }
  std::sort(suffix.begin(), suffix.end(),
            [](const TailEntry* a, const TailEntry* b) {
              return std::pair(a->epoch, a->total) <
                     std::pair(b->epoch, b->total);
            });
  std::uint64_t resequenced = 0;
  for (const TailEntry* e : suffix) {
    resequence(e->sender, e->seq, e->sent_at, e->payload);
    ++resequenced;
  }
  // Phase 2: replay acked-but-unrelayed requests (the loss window) in
  // deterministic (sender, seq) order — map order already is that.
  std::uint64_t replayed = 0;
  for (auto& [key, rep] : relay_replays_) {
    if (recovered_.count(key) != 0) continue;       // relayed after all
    if (seen_[rep.sender].count(rep.seq) != 0) continue;  // already placed
    if (rep.deadline > 0 && net_.simulator().now() >= rep.deadline) {
      ++stats_.expired_drops;
      seen_[rep.sender].insert(rep.seq);
      next_req_[rep.sender] = std::max(next_req_[rep.sender], rep.seq + 1);
      continue;
    }
    resequence(rep.sender, rep.seq, rep.sent_at, std::move(rep.payload));
    ++stats_.failover_replayed;
    ++replayed;
  }
  recovered_.clear();
  relay_replays_.clear();
  net_.obs().tracer.event(
      net_.simulator().now(), obs::Category::kGroup, "failover_recovered",
      {{"slot", static_cast<double>(self_index_)},
       {"resequenced", static_cast<double>(resequenced)},
       {"replayed", static_cast<double>(replayed)}});
  // Phase 3: fresh requests that arrived (and were stashed) during the
  // round.  Anything the replay already placed is pruned first so the
  // stash cannot re-sequence it.
  for (std::size_t s = 0; s < members_.size(); ++s) {
    auto& stash = stashed_reqs_[s];
    for (auto it = stash.begin();
         it != stash.end() && it->first < next_req_[s];) {
      it = stash.erase(it);
    }
    sequence_ready_reqs(s);
  }
}

void GroupChannel::resequence(std::uint32_t sender, std::uint64_t seq,
                              sim::TimePoint sent_at, std::string payload) {
  next_req_[sender] = std::max(next_req_[sender], seq + 1);
  const bool already_delivered_here = seen_[sender].count(seq) != 0;
  seen_[sender].insert(seq);
  const std::uint64_t total_seq = next_total_seq_++;
  const util::Buf frame =
      encode_data(sender, seq, total_seq, sent_at, {}, payload);
  send_data(pending_key(sender, seq), frame, obs::CausalContext{}, 0);
  epoch_ = static_cast<std::uint32_t>(self_index_);
  next_expected_total_ = total_seq + 1;
  tail_push(sender, seq, epoch_, total_seq, sent_at, payload);
  if (already_delivered_here) {
    ++stats_.phantom_commits;  // slot committed; app already saw it
    return;
  }
  deliver_now({.sender = sender,
               .sender_addr = members_[sender],
               .seq = seq,
               .total_seq = total_seq,
               .payload = std::move(payload),
               .sent_at = sent_at,
               .ctx = {}});
}

util::Buf GroupChannel::encode_data(std::size_t sender, std::uint64_t seq,
                                    std::uint64_t total_seq,
                                    sim::TimePoint sent_at,
                                    util::ArrayView<std::uint64_t> clock,
                                    std::string_view payload) const {
  return util::encode(
      DataMsg{.sender = static_cast<std::uint32_t>(sender),
                    .seq = seq,
                    .total_seq = total_seq,
                    .epoch = static_cast<std::uint32_t>(self_index_),
                    .sent_at = sent_at,
                    .clock = clock,
                    .payload = payload});
}

std::uint64_t GroupChannel::broadcast(std::string payload,
                                      const obs::CausalContext& parent) {
  assert(!members_.empty() && "set_members before broadcast");
  const std::uint64_t seq = next_seq_++;
  ++stats_.broadcasts;
  const sim::TimePoint now = net_.simulator().now();
  obs::Tracer& tracer = net_.obs().tracer;
  // The broadcast is the causal root of every member's delivery (or a
  // child of the caller's context when the broadcast continues a trace).
  const obs::CausalContext bctx = parent.valid()
                                      ? parent.child(tracer.mint_id())
                                      : tracer.begin_trace();
  tracer.event(now, obs::Category::kGroup, "broadcast", bctx,
               {{"sender", static_cast<double>(self_index_)},
                {"seq", static_cast<double>(seq)}});
  // Deadline propagation: stamped into the wire header so the sequencer
  // can drop the request once expired, and onto Pending so retransmission
  // stops when the work is pointless.
  const sim::TimePoint deadline =
      config_.broadcast_deadline > 0 ? now + config_.broadcast_deadline : 0;

  // A recovering sequencer routes its own broadcasts through the ordinary
  // request path (to itself) so they stash and sequence after the replayed
  // suffix, not before it.
  if (config_.ordering == Ordering::kTotal &&
      (!is_sequencer() || recovering_)) {
    // Ship an ordering request to the sequencer; our message comes back to
    // us (and everyone) inside the sequencer's totally ordered stream.
    // Retain the payload until we deliver it ourselves: if the sequencer
    // dies after acking but before relaying, the promoted sequencer
    // replays it from this buffer.
    relay_wait_[seq] = {now, deadline, util::Buf(payload), bctx};
    const util::Buf frame = util::encode(
        TotalReqMsg{.sender = static_cast<std::uint32_t>(self_index_),
                          .seq = seq,
                          .sent_at = now,
                          .payload = payload});

    const std::size_t seq_slot = sequencer_slot();
    Pending p;
    p.wire = frame;
    p.awaiting.insert(seq_slot);
    p.is_total_req = true;
    p.deadline = deadline;
    p.ctx = bctx;
    pending_[pending_key(self_index_, seq)] = std::move(p);
    net_.send({.src = self_, .dst = members_[seq_slot], .payload = frame,
               .deadline = deadline, .priority = config_.priority,
               .ctx = bctx});
    arm_retransmit(pending_key(self_index_, seq));
    return seq;
  }

  std::uint64_t total_seq = 0;
  if (config_.ordering == Ordering::kCausal) vclock_.tick(self_index_);
  if (config_.ordering == Ordering::kTotal) total_seq = next_total_seq_++;

  const util::Buf frame = encode_data(self_index_, seq, total_seq, now,
                                     vclock_.values(), payload);
  send_data(pending_key(self_index_, seq), frame, bctx, deadline);

  // Local delivery.  kTotal delivers at sequencing time (which, for the
  // sequencer itself, is right now); others echo immediately.
  if (config_.ordering == Ordering::kTotal) {
    seen_[self_index_].insert(seq);
    epoch_ = static_cast<std::uint32_t>(self_index_);
    next_expected_total_ = total_seq + 1;
    tail_push(static_cast<std::uint32_t>(self_index_), seq, epoch_, total_seq,
              now, payload);
    deliver_now({.sender = self_index_,
                 .sender_addr = self_,
                 .seq = seq,
                 .total_seq = total_seq,
                 .payload = std::move(payload),
                 .sent_at = now,
                 .ctx = bctx.child(tracer.mint_id())});
  } else {
    seen_[self_index_].insert(seq);
    if (config_.ordering == Ordering::kFifo)
      next_expected_[self_index_] = seq + 1;
    deliver_now({.sender = self_index_,
                 .sender_addr = self_,
                 .seq = seq,
                 .total_seq = 0,
                 .payload = std::move(payload),
                 .sent_at = now,
                 .ctx = bctx.child(tracer.mint_id())});
  }
  return seq;
}

void GroupChannel::send_data(std::uint64_t key, const util::Buf& wire,
                             const obs::CausalContext& ctx,
                             sim::TimePoint deadline) {
  Pending p;
  p.wire = wire;
  p.deadline = deadline;
  p.ctx = ctx;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != self_index_ && alive_[i]) p.awaiting.insert(i);
  }
  if (p.awaiting.empty()) return;  // singleton group: nothing on the wire
  pending_[key] = std::move(p);
  // One context for the whole multicast; the network mints a per-copy hop
  // child, so each member's delivery still has a distinct span.
  net_.multicast(group_, {.src = self_, .dst = {}, .payload = wire,
                          .deadline = deadline,
                          .priority = config_.priority, .ctx = ctx});
  arm_retransmit(key);
}

void GroupChannel::arm_retransmit(std::uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  it->second.timer = net_.simulator().schedule_after(
      config_.retransmit_timeout, [this, key] {
        auto pit = pending_.find(key);
        if (pit == pending_.end()) return;
        Pending& p = pit->second;
        p.timer = sim::kInvalidEvent;
        obs::Tracer& tracer = net_.obs().tracer;
        // Retries never extend past the deadline: once the work is
        // pointless, stop paying for it (members that missed the frame
        // would only have dropped it expired anyway).
        if (p.deadline > 0 && net_.simulator().now() >= p.deadline) {
          ++stats_.expired_abandoned;
          tracer.event(net_.simulator().now(), obs::Category::kGroup,
                       "expired",
                       p.ctx.valid() ? p.ctx.child(tracer.mint_id())
                                     : obs::CausalContext{},
                       {{"key", static_cast<double>(key)}});
          if (p.is_total_req)
            relay_wait_.erase(key & ((std::uint64_t{1} << 40) - 1));
          pending_.erase(pit);
          return;
        }
        if (++p.retries > config_.max_retransmits) {
          ++stats_.gave_up;
          tracer.event(net_.simulator().now(), obs::Category::kGroup,
                       "give_up",
                       p.ctx.valid() ? p.ctx.child(tracer.mint_id())
                                     : obs::CausalContext{},
                       {{"key", static_cast<double>(key)}});
          if (p.is_total_req)
            relay_wait_.erase(key & ((std::uint64_t{1} << 40) - 1));
          pending_.erase(pit);
          return;
        }
        // Unicast retransmission to just the members still missing.  Each
        // resend is a child of the broadcast span; `waited` is the ack
        // timeout that lapsed first — the critical-path "retry" bucket.
        p.awaiting.for_each([&](std::size_t slot) {
          if (!alive_[slot]) return;
          ++stats_.retransmits;
          const obs::CausalContext rctx =
              p.ctx.valid() ? p.ctx.child(tracer.mint_id())
                            : obs::CausalContext{};
          tracer.event(
              net_.simulator().now(), obs::Category::kGroup, "retransmit",
              rctx,
              {{"key", static_cast<double>(key)},
               {"to", static_cast<double>(slot)},
               {"waited",
                static_cast<double>(config_.retransmit_timeout)}});
          net_.send({.src = self_, .dst = members_[slot], .payload = p.wire,
                     .deadline = p.deadline, .priority = config_.priority,
                     .ctx = rctx});
        });
        arm_retransmit(key);
      });
}

void GroupChannel::mark_failed(const net::Address& member) {
  auto it = std::find(members_.begin(), members_.end(), member);
  if (it == members_.end()) return;
  const auto slot = static_cast<std::size_t>(it - members_.begin());
  if (!alive_[slot]) return;
  const bool was_sequencer = slot == sequencer_slot();
  alive_[slot] = false;
  const std::size_t new_seq_slot = sequencer_slot();

  for (auto pit = pending_.begin(); pit != pending_.end();) {
    Pending& p = pit->second;
    if (p.is_total_req && p.awaiting.contains(slot) && was_sequencer) {
      // Re-route the ordering request to the promoted sequencer.
      p.awaiting.erase(slot);
      if (new_seq_slot < members_.size() && new_seq_slot != self_index_) {
        p.awaiting.insert(new_seq_slot);
        net_.send({.src = self_, .dst = members_[new_seq_slot],
                   .payload = p.wire, .ctx = p.ctx});
        ++pit;
        continue;
      }
    } else {
      p.awaiting.erase(slot);
    }
    if (p.awaiting.empty()) {
      if (p.timer != sim::kInvalidEvent)
        net_.simulator().cancel(p.timer);
      pit = pending_.erase(pit);
    } else {
      ++pit;
    }
  }

  // A member dying mid-recovery will never answer the solicit.
  if (recovering_ && recover_await_.erase(slot) > 0 &&
      recover_await_.empty()) {
    finish_recovery();
    return;
  }

  if (config_.ordering == Ordering::kTotal && was_sequencer &&
      is_sequencer()) {
    take_over_sequencing();
    // Requests that reached us before the promotion may be stashed
    // already.  The recovery round sequences them when it finishes; if it
    // finished at once (no survivor to solicit), sequence them here.
    if (!recovering_) {
      for (std::size_t s = 0; s < members_.size(); ++s)
        sequence_ready_reqs(s);
    }
  }
}

void GroupChannel::on_message(const net::Message& msg) {
  ChannelMsg type{};
  if (!util::decode(msg.payload, type)) return;
  switch (type) {
    case ChannelMsg::kData:
      handle_data(msg);
      break;
    case ChannelMsg::kAck:
      handle_ack(msg);
      break;
    case ChannelMsg::kTotalReq:
      handle_total_req(msg);
      break;
    case ChannelMsg::kSolicit:
      handle_solicit(msg);
      break;
    case ChannelMsg::kRecover:
      handle_recover(msg);
      break;
  }
}

void GroupChannel::send_ack(const net::Message& msg, std::uint32_t sender,
                            std::uint64_t seq) {
  const AckMsg ack{.sender = sender,
                         .seq = seq,
                         .acker = static_cast<std::uint32_t>(self_index_)};
  net_.send({.src = self_, .dst = msg.src, .payload = util::encode(ack),
             .ctx = msg.ctx});
}

void GroupChannel::handle_ack(const net::Message& msg) {
  AckMsg ack;
  if (!util::decode(msg.payload, ack)) return;
  auto it = pending_.find(pending_key(ack.sender, ack.seq));
  if (it == pending_.end()) return;
  net_.obs().tracer.event(net_.simulator().now(), obs::Category::kGroup,
                          "ack", msg.ctx,
                          {{"seq", static_cast<double>(ack.seq)},
                           {"from", static_cast<double>(ack.acker)}});
  it->second.awaiting.erase(ack.acker);
  if (it->second.awaiting.empty()) {
    if (it->second.timer != sim::kInvalidEvent)
      net_.simulator().cancel(it->second.timer);
    pending_.erase(it);
  }
}

void GroupChannel::handle_total_req(const net::Message& msg) {
  TotalReqMsg req;
  if (!util::decode(msg.payload, req) || req.sender >= members_.size())
    return;
  // A request that reaches a non-sequencer (the slot demoted, or the
  // sender's sequencer view is ahead of ours) is dropped *unacked*: an
  // ack from a node that will never sequence the message converts the
  // sender's retransmission — its only recovery path — into silence.
  if (!is_sequencer()) {
    net_.obs().tracer.event(net_.simulator().now(), obs::Category::kGroup,
                            "req_wrong_sequencer", msg.ctx,
                            {{"sender", static_cast<double>(req.sender)},
                             {"seq", static_cast<double>(req.seq)}});
    return;
  }

  const bool fresh = req.seq >= next_req_[req.sender] &&
                     stashed_reqs_[req.sender].count(req.seq) == 0;
  // Ack the request so the originator stops retransmitting.  The ack rides
  // the request's context so it links back to the attempt that arrived.
  send_ack(msg, req.sender, req.seq);

  if (!fresh) {
    ++stats_.duplicates;  // retransmitted request already sequenced/stashed
    return;
  }
  // Stash, then sequence the sender's requests strictly in seq order so
  // total order preserves each sender's FIFO order even if the network
  // delivered the requests out of order.  The header deadline travels
  // with the stash so expiry is judged at sequencing time.  A recovering
  // sequencer only stashes: fresh requests sequence after the replayed
  // suffix, when the recovery round closes.
  auto& stash = stashed_reqs_[req.sender];
  if (!recovering_ && stash.empty() && req.seq == next_req_[req.sender]) {
    // The steady state: the request is next in line, so stashing it only
    // to dequeue it at once would change nothing but cost an allocation.
    ++next_req_[req.sender];
    StashedReq next{req.sent_at, std::exchange(req_spare_, {}), msg.deadline,
                    msg.ctx};
    next.payload.assign(req.payload);
    sequence_req(req.sender, req.seq, next);
    req_spare_ = std::move(next.payload);
    return;
  }
  stash[req.seq] = {req.sent_at, std::string(req.payload), msg.deadline,
                    msg.ctx};
  if (!recovering_) sequence_ready_reqs(req.sender);
}

void GroupChannel::sequence_ready_reqs(std::size_t sender) {
  if (recovering_) return;  // replay first; fresh requests wait in the stash
  auto& stash = stashed_reqs_[sender];
  // Post-failover resync: the first request from a sender may jump over
  // messages lost with the old sequencer (one jump per sender).
  if (resync_.contains(sender) && !stash.empty() &&
      stash.begin()->first > next_req_[sender]) {
    next_req_[sender] = stash.begin()->first;
  }
  for (auto it = stash.find(next_req_[sender]); it != stash.end();
       it = stash.find(next_req_[sender])) {
    const std::uint64_t seq = it->first;
    StashedReq req = std::move(it->second);
    stash.erase(it);
    ++next_req_[sender];
    sequence_req(sender, seq, req);
  }
}

void GroupChannel::sequence_req(std::size_t sender, std::uint64_t seq,
                                StashedReq& req) {
  obs::Tracer& tracer = net_.obs().tracer;
  resync_.erase(sender);  // later gaps are real: wait for retransmission
  seen_[sender].insert(seq);
  // Expired on dequeue: the deadline passed while the request was in
  // flight or sat in the stash, so sequencing it would multicast work
  // every member will only throw away.  The request was already acked and
  // is recorded seen with the cursor advanced past it, so skipping assigns
  // it no slot in the total order and stalls nobody (receivers track
  // total_seq contiguity, not per-sender seq).
  if (req.deadline > 0 && net_.simulator().now() >= req.deadline) {
    ++stats_.expired_drops;
    net_.obs().metrics.counter("rpc.expired_drops").inc();
    tracer.event(net_.simulator().now(), obs::Category::kGroup, "expired",
                 req.ctx.valid() ? req.ctx.child(tracer.mint_id())
                                 : obs::CausalContext{},
                 {{"sender", static_cast<double>(sender)},
                  {"seq", static_cast<double>(seq)}});
    return;
  }
  const std::uint64_t total_seq = next_total_seq_++;
  // The sequencer's relay continues the originator's trace: the
  // sequencing decision is a child of the arriving request, and the
  // re-multicast + local delivery are children of the decision.
  const obs::CausalContext sctx =
      req.ctx.valid() ? req.ctx.child(tracer.mint_id())
                      : obs::CausalContext{};
  tracer.event(net_.simulator().now(), obs::Category::kGroup, "sequence",
               sctx,
               {{"sender", static_cast<double>(sender)},
                {"seq", static_cast<double>(seq)},
                {"total", static_cast<double>(total_seq)}});
  const util::Buf frame =
      encode_data(sender, seq, total_seq, req.sent_at, {}, req.payload);
  send_data(pending_key(sender, seq), frame, sctx, req.deadline);
  // The sequencer's own delivery happens at sequencing time, keeping it
  // consistent with the global order it just defined.
  epoch_ = static_cast<std::uint32_t>(self_index_);
  next_expected_total_ = total_seq + 1;
  tail_push(static_cast<std::uint32_t>(sender), seq, epoch_, total_seq,
            req.sent_at, req.payload);
  Delivery d{.sender = sender,
             .sender_addr = members_[sender],
             .seq = seq,
             .total_seq = total_seq,
             .payload = std::move(req.payload),
             .sent_at = req.sent_at,
             .ctx = sctx.valid() ? sctx.child(tracer.mint_id())
                                 : obs::CausalContext{}};
  deliver_now(d);
  req.payload = std::move(d.payload);  // the caller may recycle it
}

void GroupChannel::handle_data(const net::Message& msg) {
  DataMsg m;
  if (!util::decode(msg.payload, m) || m.sender >= members_.size()) return;
  const bool causal = config_.ordering == Ordering::kCausal;
  // A clock wider than the group would be merged into vclock_ for good and
  // widen every later frame, so it is refused before any ack or dedupe.
  if (causal && m.clock.size() > members_.size()) return;
  // Only the sequencer of the epoch it names relays a kTotal frame; one from
  // anyone else could open that epoch here and shadow the real sequencer.
  if (config_.ordering == Ordering::kTotal &&
      (m.epoch >= members_.size() || msg.src != members_[m.epoch]))
    return;

  // The payload is copied in only once the message is accepted (see
  // try_deliver), so the dedupe paths below never touch it.
  HeldBack hb;
  hb.delivery = {.sender = m.sender,
                 .sender_addr = members_[m.sender],
                 .seq = m.seq,
                 .total_seq = m.total_seq,
                 .sent_at = m.sent_at,
                 // Even if delivery is deferred in the hold-back queue, the
                 // chain stays anchored to the network arrival.
                 .ctx = msg.ctx.valid()
                            ? msg.ctx.child(net_.obs().tracer.mint_id())
                            : obs::CausalContext{}};
  // Only causal order reads the clock; the others step over its bytes.
  if (causal) hb.vclock = logical::VectorClock(m.clock);
  hb.epoch = m.epoch;

  // Always ack — the original ack may have been the lost datagram.  The
  // ack goes to whoever (re)transmitted this copy: originator or sequencer.
  send_ack(msg, m.sender, m.seq);

  if (config_.ordering == Ordering::kTotal) {
    // Total order dedupes on *delivery position*, not receipt: a
    // resequenced copy of a message this member already delivered must
    // still occupy its new slot in the total order (so later messages can
    // flush) without reaching the application twice — it commits as a
    // phantom.  Any copy at a position we committed past is a duplicate.
    if (std::pair(m.epoch, m.total_seq) <
        std::pair(epoch_, next_expected_total_)) {
      ++stats_.duplicates;
      return;
    }
    hb.phantom = seen_[m.sender].count(m.seq) != 0;
    // One queued copy per message: a newer-epoch copy supersedes a held
    // stale-epoch one; an equal-position copy is a retransmission.
    for (auto it = holdback_.begin(); it != holdback_.end(); ++it) {
      if (it->delivery.sender != hb.delivery.sender ||
          it->delivery.seq != hb.delivery.seq)
        continue;
      if (std::pair(it->epoch, it->delivery.total_seq) >=
          std::pair(hb.epoch, hb.delivery.total_seq)) {
        ++stats_.duplicates;
        return;
      }
      holdback_.erase(it);
      break;
    }
    try_deliver(std::move(hb), m.payload);
    return;
  }

  if (!seen_[m.sender].insert(m.seq)) {
    ++stats_.duplicates;
    return;
  }
  try_deliver(std::move(hb), m.payload);
}

bool GroupChannel::deliverable_now(const HeldBack& hb) const {
  const std::size_t s = hb.delivery.sender;
  switch (config_.ordering) {
    case Ordering::kUnordered:
      return true;
    case Ordering::kFifo:
      return hb.delivery.seq == next_expected_[s];
    case Ordering::kCausal:
      return vclock_.deliverable_from(hb.vclock, s);
    case Ordering::kTotal:
      return (hb.epoch == epoch_ &&
              hb.delivery.total_seq == next_expected_total_) ||
             (hb.epoch > epoch_ && hb.delivery.total_seq == 1);
  }
  return false;
}

void GroupChannel::commit_order(const HeldBack& hb) {
  switch (config_.ordering) {
    case Ordering::kFifo:
      next_expected_[hb.delivery.sender] = hb.delivery.seq + 1;
      break;
    case Ordering::kCausal:
      vclock_.merge(hb.vclock);
      break;
    case Ordering::kTotal:
      if (hb.epoch != epoch_) {
        // Epoch transition: copies sequenced in superseded epochs can
        // never be delivered consistently any more.
        std::erase_if(holdback_, [&](const HeldBack& h) {
          return h.epoch < hb.epoch;
        });
      }
      epoch_ = hb.epoch;
      next_expected_total_ = hb.delivery.total_seq + 1;
      break;
    case Ordering::kUnordered:
      break;
  }
}

void GroupChannel::try_deliver(HeldBack hb, std::string_view payload) {
  hb.delivery.payload = std::exchange(rx_spare_, {});
  hb.delivery.payload.assign(payload);
  if (!deliverable_now(hb)) {
    holdback_.push_back(std::move(hb));
    stats_.held_back_max =
        std::max<std::uint64_t>(stats_.held_back_max, holdback_.size());
    return;
  }
  // Commit the ordering state, deliver, then drain anything unblocked.
  commit_order(hb);
  tail_push(static_cast<std::uint32_t>(hb.delivery.sender), hb.delivery.seq,
            hb.epoch, hb.delivery.total_seq, hb.delivery.sent_at,
            hb.delivery.payload);
  if (hb.phantom) {
    ++stats_.phantom_commits;
  } else {
    deliver_now(hb.delivery);
  }
  rx_spare_ = std::move(hb.delivery.payload);
  flush_holdback();
}

void GroupChannel::flush_holdback() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = holdback_.begin(); it != holdback_.end(); ++it) {
      if (!deliverable_now(*it)) continue;
      HeldBack hb = std::move(*it);
      holdback_.erase(it);
      commit_order(hb);
      tail_push(static_cast<std::uint32_t>(hb.delivery.sender),
                hb.delivery.seq, hb.epoch, hb.delivery.total_seq,
                hb.delivery.sent_at, hb.delivery.payload);
      if (hb.phantom) {
        ++stats_.phantom_commits;
      } else {
        deliver_now(hb.delivery);
      }
      rx_spare_ = std::move(hb.delivery.payload);
      progress = true;
      break;  // iterator invalidated; rescan
    }
  }
}

void GroupChannel::deliver_now(const Delivery& d) {
  if (config_.ordering == Ordering::kTotal) {
    // Our own broadcast came back around the sequencer: the relay is
    // complete and the retained payload can go.
    if (d.sender == self_index_) relay_wait_.erase(d.seq);
    // Messages are marked seen at *delivery* so a resequenced copy is
    // recognizable as a phantom rather than silently deduped.
    seen_[d.sender].insert(d.seq);
  }
  ++stats_.delivered;
  net_.obs().series.count(ts_delivered_, net_.simulator().now());
  // Span covering broadcast -> application delivery, i.e. the end-to-end
  // ordering+reliability latency the experiments measure.
  net_.obs().tracer.span(d.sent_at, net_.simulator().now(),
                         obs::Category::kGroup, "deliver", d.ctx,
                         {{"sender", static_cast<double>(d.sender)},
                          {"seq", static_cast<double>(d.seq)}});
  if (deliver_) {
    obs::ProfScope prof(net_.obs().profiler, prof_deliver_);
    deliver_(d);
  }
}

}  // namespace coop::groups
