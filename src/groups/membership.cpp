#include "groups/membership.hpp"

#include <algorithm>
#include <utility>

namespace coop::groups {

namespace {

using enum MemberMsg;

std::string coord_key(const net::Address& self, const char* leaf) {
  return "groups.membership." + std::to_string(self.node) + ":" +
         std::to_string(self.port) + "." + leaf;
}

}  // namespace

// ---------------------------------------------------------------- coordinator

MembershipCoordinator::MembershipCoordinator(net::Network& net,
                                             net::Address self,
                                             MembershipConfig config)
    : net_(net),
      self_(self),
      config_(config),
      joins_(&net.obs().metrics.counter(coord_key(self, "joins"))),
      leaves_(&net.obs().metrics.counter(coord_key(self, "leaves"))),
      failures_(&net.obs().metrics.counter(coord_key(self, "failures"))),
      evictions_(&net.obs().metrics.counter(coord_key(self, "evictions"))),
      views_(&net.obs().metrics.counter(coord_key(self, "views"))),
      suspensions_(&net.obs().metrics.counter(coord_key(self, "suspensions"))),
      standdowns_(&net.obs().metrics.counter(coord_key(self, "standdowns"))),
      activations_(&net.obs().metrics.counter(coord_key(self, "activations"))),
      sweeper_(net.simulator(), kSweepPeriod, [this] { sweep(); }) {
  net_.attach(self_, *this);
  if (config_.timer_jitter > 0.0)
    sweeper_.set_jitter(config_.timer_jitter, &net_.simulator().rng());
  if (config_.enable_failover && config_.recover_on_start) {
    role_ = Role::kRecovering;
    recovery_started_ = net_.simulator().now();
    net_.obs().tracer.event(net_.simulator().now(), obs::Category::kGroup,
                            "coord_recovering",
                            {{"node", static_cast<double>(self_.node)}});
  }
  sweeper_.start();
}

MembershipCoordinator::MembershipCoordinator(net::Network& net,
                                             net::Address self,
                                             MembershipConfig config,
                                             TakeoverState takeover)
    : MembershipCoordinator(net, self, config) {
  // A promoted coordinator is active by construction, whatever the
  // member's config said about restart recovery.
  role_ = Role::kActive;
  const sim::TimePoint now = net_.simulator().now();
  banned_ = {takeover.baseline.banned.begin(), takeover.baseline.banned.end()};
  view_.id = takeover.id_floor;  // bump_view publishes id_floor + 1
  for (const auto& a : takeover.rejoined) {
    if (banned_.count(a) == 0) admit(a, now);
  }
  activations_->inc();
  net_.obs().tracer.event(
      now, obs::Category::kGroup, "coord_activated",
      {{"node", static_cast<double>(self_.node)},
       {"id_floor", static_cast<double>(takeover.id_floor)},
       {"members", static_cast<double>(states_.size())}});
  bump_view();
}

MembershipCoordinator::~MembershipCoordinator() {
  sweeper_.stop();
  net_.detach(self_);
}

void MembershipCoordinator::retire() {
  if (role_ == Role::kRetired) return;
  role_ = Role::kRetired;
  standdowns_->inc();
  net_.obs().tracer.event(net_.simulator().now(), obs::Category::kGroup,
                          "coord_standdown",
                          {{"node", static_cast<double>(self_.node)}});
  sweeper_.stop();
}

void MembershipCoordinator::bump_view() {
  ++view_.id;
  ++view_changes_;
  view_.members.clear();
  view_.members.reserve(states_.size());
  for (const MemberState& m : states_) view_.members.push_back(m.addr);
  view_.banned.assign(banned_.begin(), banned_.end());
  views_->inc();
  net_.obs().tracer.event(
      net_.simulator().now(), obs::Category::kGroup, "view",
      {{"id", static_cast<double>(view_.id)},
       {"members", static_cast<double>(view_.members.size())}});
  if (observer_) observer_(view_);
  const util::Buf frame = util::encode(ViewMsg{kView, view_});
  for (const MemberState& m : states_)
    net_.send({.src = self_, .dst = m.addr, .payload = frame});
}

std::pair<MembershipCoordinator::MemberState*, bool>
MembershipCoordinator::admit(const net::Address& addr, sim::TimePoint now) {
  auto it = slot(addr);
  if (it != states_.end() && it->addr == addr) return {&*it, false};
  return {&*states_.insert(it, {addr, now, 0}), true};
}

bool MembershipCoordinator::drop_member(const net::Address& addr) {
  auto it = slot(addr);
  if (it == states_.end() || it->addr != addr) return false;
  states_.erase(it);
  return true;
}

void MembershipCoordinator::send_view(const net::Address& to) {
  net_.send({.src = self_, .dst = to,
             .payload = util::encode(ViewMsg{kView, view_})});
}

void MembershipCoordinator::evict(const net::Address& member) {
  banned_.insert(member);
  if (drop_member(member)) {
    evictions_->inc();
    net_.obs().tracer.event(net_.simulator().now(), obs::Category::kGroup,
                            "evict",
                            {{"node", static_cast<double>(member.node)}});
    bump_view();
  }
}

std::size_t MembershipCoordinator::fresh_member_count(
    sim::TimePoint now) const {
  std::size_t fresh = 0;
  for (const MemberState& m : states_) {
    if (now - m.last_heartbeat <= config_.failure_timeout) ++fresh;
  }
  return fresh;
}

void MembershipCoordinator::sweep() {
  const sim::TimePoint now = net_.simulator().now();
  if (role_ == Role::kRetired) return;
  if (role_ == Role::kRecovering) {
    // The full-rejoin grace (below) may have lapsed with no new summary
    // arriving to trigger the check: re-evaluate on the sweep cadence.
    maybe_activate_from_rejoins();
    return;
  }

  if (config_.enable_failover) {
    // Primary-partition rule, coordinator side: an active coordinator in
    // contact with fewer than a majority of its own last view must assume
    // *it* is the partitioned minority.  It suspends — no evictions, no
    // view bumps, no lease renewals — instead of shrinking the view, so a
    // majority-side successor never has a divergent history to merge with.
    const std::size_t majority =
        view_.members.empty() ? 0 : view_.members.size() / 2 + 1;
    const std::size_t fresh = fresh_member_count(now);
    if (role_ == Role::kSuspended) {
      if (majority > 0 && fresh >= majority &&
          now - suspended_since_ + 2 * kHeartbeatPeriod <
              kCoordLeaseTimeout) {
        // Contact returned before any member lease could have expired, so
        // no successor can have been elected: safe to resume.
        role_ = Role::kActive;
        net_.obs().tracer.event(now, obs::Category::kGroup, "coord_resume",
                                {{"node", static_cast<double>(self_.node)}});
      } else if (now - suspended_since_ >= kCoordLeaseTimeout) {
        // Member leases are gone; survivors may have elected a successor.
        // Never act again rather than risk two active coordinators.
        retire();
        return;
      } else {
        return;
      }
    }
    if (majority > 0 && fresh < majority) {
      role_ = Role::kSuspended;
      suspended_since_ = now;
      suspensions_->inc();
      net_.obs().tracer.event(now, obs::Category::kGroup, "coord_suspend",
                              {{"node", static_cast<double>(self_.node)},
                               {"fresh", static_cast<double>(fresh)},
                               {"majority", static_cast<double>(majority)}});
      return;
    }
  }

  std::vector<net::Address> removed;
  std::erase_if(states_, [&](const MemberState& m) {
    if (now - m.last_heartbeat <= config_.failure_timeout) return false;
    removed.push_back(m.addr);
    return true;
  });
  if (!removed.empty()) {
    failures_->inc(removed.size());
    for (const auto& addr : removed)
      net_.obs().tracer.event(now, obs::Category::kGroup, "member_failed",
                              {{"node", static_cast<double>(addr.node)}});
    bump_view();
    // Tell the suspects they are out: if the suspicion was a lossy-link
    // false positive, the still-live member sees a view without itself
    // and re-joins.  (Administrative evict() deliberately skips this.)
    for (const auto& addr : removed) send_view(addr);
    return;  // bump_view already (re)sent the view to the members
  }
  // Re-send the current view to any member that has not acked it (repairs
  // lost VIEW datagrams).
  for (const MemberState& m : states_) {
    if (m.acked_view < view_.id) send_view(m.addr);
  }
}

void MembershipCoordinator::maybe_activate_from_rejoins() {
  if (role_ != Role::kRecovering) return;
  const View* base = nullptr;
  std::uint64_t floor = view_.id;
  for (const auto& [addr, v] : rejoins_) {
    floor = std::max(floor, v.id);
    if (base == nullptr || v.id > base->id) base = &v;
  }
  if (base == nullptr || base->members.empty()) return;
  std::size_t pledged = 0;
  for (const auto& [addr, v] : rejoins_) {
    if (base->contains(addr)) ++pledged;
  }
  if (pledged < base->members.size() / 2 + 1) return;
  if (pledged < base->members.size() &&
      net_.simulator().now() - recovery_started_ <
          2 * kHeartbeatPeriod) {
    // Majority reached, but live laggards may still be a heartbeat away.
    // Activating now would publish a view that transiently excludes them,
    // which downstream consumers (e.g. a group channel) rightly treat as
    // a failure — so grant the stragglers one more beat.  The grace is
    // far below the member lease: recovery still wins the race against
    // any successor election.
    return;
  }

  // Majority of the last reported view re-joined: this incarnation is the
  // primary partition.  Re-derive bans from the summary, readmit the
  // pledgers, and resume ids strictly above anything a survivor installed.
  const sim::TimePoint now = net_.simulator().now();
  role_ = Role::kActive;
  banned_ = {base->banned.begin(), base->banned.end()};
  view_.id = floor;
  states_.clear();
  for (const auto& [addr, v] : rejoins_) {
    if (banned_.count(addr) == 0) admit(addr, now);
  }
  rejoins_.clear();
  activations_->inc();
  net_.obs().tracer.event(now, obs::Category::kGroup, "coord_activated",
                          {{"node", static_cast<double>(self_.node)},
                           {"id_floor", static_cast<double>(floor)},
                           {"members", static_cast<double>(states_.size())}});
  bump_view();
}

void MembershipCoordinator::on_message(const net::Message& msg) {
  MemberMsg type{};
  if (!util::decode(msg.payload, type) || role_ == Role::kRetired) return;
  if (role_ == Role::kRecovering && (type == kJoin || type == kHeartbeat)) {
    // We lost all state: ask for the member's summary instead of admitting
    // blind.
    net_.send({.src = self_, .dst = msg.src,
               .payload = util::encode(kRejoinReq)});
    return;
  }
  const sim::TimePoint now = net_.simulator().now();
  switch (type) {
    case kJoin:
    case kRejoin: {
      if (role_ == Role::kRecovering) {
        ViewMsg m;
        if (!util::decode(msg.payload, m)) break;
        rejoins_[msg.src] = std::move(m.view);
        maybe_activate_from_rejoins();
        break;
      }
      if (role_ != Role::kActive) break;  // suspended: cannot admit
      if (banned_.count(msg.src) != 0) {
        send_view(msg.src);  // show the banned member it is out
        break;
      }
      auto [member, inserted] = admit(msg.src, now);
      member->last_heartbeat = now;
      if (inserted) {
        joins_->inc();
        net_.obs().tracer.event(now, obs::Category::kGroup, "join",
                                {{"node", static_cast<double>(msg.src.node)}});
        bump_view();
      } else {
        send_view(msg.src);  // duplicate join: re-sync the member
      }
      break;
    }
    case kLeave:
      if (role_ == Role::kActive && drop_member(msg.src)) {
        leaves_->inc();
        bump_view();
      }
      break;
    case kHeartbeat: {
      MemberState* member = find_member(msg.src);
      if (role_ == Role::kSuspended) {
        // Track liveness so a short blip can resume, but renew no lease:
        // if the suspension outlasts the leases, members must be free to
        // elect a successor.
        if (member != nullptr) member->last_heartbeat = now;
        break;
      }
      if (member != nullptr) {
        member->last_heartbeat = now;
        if (config_.enable_failover) {
          net_.send({.src = self_, .dst = msg.src,
                     .payload = util::encode(
                         ViewIdMsg{kHeartbeatAck, view_.id})});
        }
      } else {
        // Heartbeat from a member we evicted (e.g. while it was
        // disconnected): show it the current view so it notices it is
        // out.  A non-banned member re-joins via its retry timer; a
        // banned one sees itself on the view's ban list and goes quiet
        // instead of claiming the coordinatorship forever.
        send_view(msg.src);
      }
      break;
    }
    case kViewAck: {
      if (role_ != Role::kActive) break;
      ViewIdMsg ack;
      MemberState* member = find_member(msg.src);
      if (member != nullptr && util::decode(msg.payload, ack))
        member->acked_view = std::max(member->acked_view, ack.view_id);
      break;
    }
    case kCoordAlive:
      // A member told this recovering incarnation the group already has a
      // live coordinator: stand down for good.
      if (role_ == Role::kRecovering) retire();
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------- member

MembershipMember::MembershipMember(net::Network& net, net::Address self,
                                   net::Address coordinator,
                                   MembershipConfig config)
    : net_(net),
      self_(self),
      coordinator_(coordinator),
      config_(config),
      lease_expiries_(
          &net.obs().metrics.counter(coord_key(self, "lease_expiries"))),
      claims_(&net.obs().metrics.counter(coord_key(self, "claims"))),
      takeovers_(&net.obs().metrics.counter(coord_key(self, "takeovers"))),
      heartbeat_(net.simulator(), kHeartbeatPeriod,
                 [this] {
                   // Once the lease is gone, stop feeding the old
                   // coordinator: a suspended coordinator must not see a
                   // fresh majority after member leases expired, and the
                   // claim machinery has taken over liveness.
                   if (lease_expired(net_.simulator().now())) return;
                   if (view_ && view_->bans(self_)) return;  // evicted: quiet
                   send_simple(kHeartbeat);
                 }),
      join_retry_(net.simulator(), config.join_retry_period,
                  [this] {
                    if (view_ && view_->bans(self_)) return;  // evicted
                    if (joined_ && !candidate_ &&
                        (!view_ || !view_->contains(self_)))
                      send_simple(kJoin);
                  }),
      lease_check_(net.simulator(), kHeartbeatPeriod,
                   [this] { check_lease(); }),
      claim_retry_(net.simulator(), kClaimRetryPeriod, [this] {
        if (!candidate_) {
          claim_retry_.stop();
          return;
        }
        claims_->inc();
        send_claims();
        maybe_promote();  // the grace may have lapsed with no new pledge
      }) {
  net_.attach(self_, *this);
  if (config_.timer_jitter > 0.0) {
    sim::Rng* rng = &net_.simulator().rng();
    heartbeat_.set_jitter(config_.timer_jitter, rng);
    join_retry_.set_jitter(config_.timer_jitter, rng);
    lease_check_.set_jitter(config_.timer_jitter, rng);
    claim_retry_.set_jitter(config_.timer_jitter, rng);
  }
}

MembershipMember::~MembershipMember() {
  heartbeat_.stop();
  join_retry_.stop();
  lease_check_.stop();
  claim_retry_.stop();
  net_.detach(self_);
}

void MembershipMember::send_simple(MemberMsg type) {
  net_.send({.src = self_, .dst = coordinator_, .payload = util::encode(type)});
}

void MembershipMember::send_coord_alive(const net::Address& to) {
  const CoordAliveMsg alive{.coordinator = coordinator_,
                            .view_id = view_ ? view_->id : 0};
  net_.send({.src = self_, .dst = to, .payload = util::encode(alive)});
}

void MembershipMember::join() {
  joined_ = true;
  send_simple(kJoin);
  heartbeat_.start();
  join_retry_.start();
  if (config_.enable_failover) {
    last_coord_contact_ = net_.simulator().now();  // grace until first view
    lease_check_.start();
  }
}

void MembershipMember::leave() {
  if (!joined_) return;
  joined_ = false;
  heartbeat_.stop();
  join_retry_.stop();
  lease_check_.stop();
  cancel_candidacy();
  send_simple(kLeave);
}

void MembershipMember::set_coordinator(const net::Address& addr) {
  coordinator_ = addr;
  last_coord_contact_ = net_.simulator().now();
  cancel_candidacy();
  if (joined_) send_simple(kJoin);
}

bool MembershipMember::lease_expired(sim::TimePoint now) const {
  return config_.enable_failover && joined_ &&
         now - last_coord_contact_ > kCoordLeaseTimeout;
}

std::size_t MembershipMember::view_rank() const {
  if (!view_) return 0;
  for (std::size_t i = 0; i < view_->members.size(); ++i) {
    if (view_->members[i] == self_) return i;
  }
  return view_->members.size();
}

bool MembershipMember::claim_beats(std::uint64_t id_a, std::size_t rank_a,
                                   const net::Address& a, std::uint64_t id_b,
                                   std::size_t rank_b, const net::Address& b) {
  if (id_a != id_b) return id_a > id_b;  // most recent view wins
  if (rank_a != rank_b) return rank_a < rank_b;
  return a < b;
}

void MembershipMember::cancel_candidacy() {
  candidate_ = false;
  claim_retry_.stop();
  pledges_.clear();
  have_best_claim_ = false;
}

void MembershipMember::send_claims() {
  if (!view_) return;
  const util::Buf frame = util::encode(ClaimMsg{
      .view_id = view_->id, .rank = static_cast<std::uint32_t>(view_rank())});
  for (const auto& m : view_->members) {
    if (m == self_) continue;
    net_.send({.src = self_, .dst = m, .payload = frame});
  }
}

void MembershipMember::send_rejoin(const net::Address& to) {
  net_.send({.src = self_, .dst = to,
             .payload = util::encode(
                 ViewMsg{kRejoin, view_.value_or(View{})})});
}

void MembershipMember::check_lease() {
  if (!config_.enable_failover || !joined_ || candidate_) return;
  const sim::TimePoint now = net_.simulator().now();
  if (hosted_ && hosted_->active()) {
    last_coord_contact_ = now;  // we are the coordinator's host
    return;
  }
  if (!view_ || view_->bans(self_)) return;  // nothing (legitimate) to claim
  const std::size_t rank = view_rank();
  const sim::TimePoint claim_at =
      last_coord_contact_ + kCoordLeaseTimeout +
      static_cast<sim::Duration>(rank) * kTakeoverStagger;
  if (now < claim_at) return;

  // Lease gone and every lower rank's stagger window has passed without a
  // new view reaching us: claim the coordinatorship.
  candidate_ = true;
  candidacy_started_ = now;
  lease_expiries_->inc();
  claims_->inc();
  net_.obs().tracer.event(now, obs::Category::kGroup, "coord_lease_expired",
                          {{"node", static_cast<double>(self_.node)},
                           {"rank", static_cast<double>(rank)}});
  pledges_.clear();
  pledges_[self_] = *view_;  // our own summary counts toward the majority
  have_best_claim_ = true;
  best_claim_addr_ = self_;
  best_claim_id_ = view_->id;
  best_claim_rank_ = rank;
  send_claims();
  claim_retry_.start();
  maybe_promote();  // a 1-member view is its own majority
}

void MembershipMember::maybe_promote() {
  if (!candidate_) return;
  const View* base = nullptr;
  std::uint64_t floor = 0;
  for (const auto& [addr, v] : pledges_) {
    floor = std::max(floor, v.id);
    if (base == nullptr || v.id > base->id) base = &v;
  }
  if (base == nullptr || base->members.empty()) return;
  std::size_t pledged = 0;
  for (const auto& [addr, v] : pledges_) {
    if (base->contains(addr)) ++pledged;
  }
  if (pledged < base->members.size() / 2 + 1) return;
  if (pledged < base->members.size() &&
      net_.simulator().now() - candidacy_started_ <
          2 * kHeartbeatPeriod) {
    // Majority pledged, but live laggards may still answer the next claim
    // round.  Promoting now would publish a view that transiently excludes
    // them — which downstream consumers treat as a failure — so hold the
    // takeover for one more beat.  The grace is far below the lease: this
    // candidate still wins the race against higher-ranked challengers.
    return;
  }

  // Majority of the last view pledged: activate as the primary partition's
  // coordinator, hosted on our own node at a well-known port offset.
  MembershipCoordinator::TakeoverState ts;
  ts.baseline = *base;
  ts.id_floor = floor;
  ts.rejoined.reserve(pledges_.size());
  for (const auto& [addr, v] : pledges_) ts.rejoined.push_back(addr);
  const net::Address host{
      self_.node,
      static_cast<net::PortId>(self_.port + config_.coordinator_port_offset)};
  takeovers_->inc();
  net_.obs().tracer.event(net_.simulator().now(), obs::Category::kGroup,
                          "coord_takeover",
                          {{"node", static_cast<double>(self_.node)},
                           {"id_floor", static_cast<double>(floor)},
                           {"pledged", static_cast<double>(pledged)}});
  cancel_candidacy();
  hosted_ =
      std::make_unique<MembershipCoordinator>(net_, host, config_, std::move(ts));
  coordinator_ = host;
  last_coord_contact_ = net_.simulator().now();
}

void MembershipMember::on_message(const net::Message& msg) {
  MemberMsg type{};
  if (!util::decode(msg.payload, type)) return;
  const sim::TimePoint now = net_.simulator().now();
  switch (type) {
    case kView: {
      ViewMsg m;
      if (!util::decode(msg.payload, m)) return;
      // Without failover only the coordinator publishes views.
      if (!config_.enable_failover && msg.src != coordinator_) return;
      View& v = m.view;

      // Ack regardless of novelty; the coordinator tracks our progress.
      net_.send({.src = self_, .dst = msg.src,
                 .payload = util::encode(ViewIdMsg{kViewAck, v.id})});

      if (msg.src == coordinator_) last_coord_contact_ = now;
      // Install strictly newer views.  With failover, an equal-id view
      // from a lower address also wins — the deterministic tie-break that
      // collapses the (rare) two-claimants-activated race.
      const bool newer =
          !view_ || v.id > view_->id ||
          (config_.enable_failover && v.id == view_->id &&
           msg.src != coordinator_ && msg.src < coordinator_);
      if (newer) {
        if (config_.enable_failover) {
          // Adopt whoever publishes the newest view as the coordinator.
          if (hosted_ && msg.src != coordinator_) hosted_->retire();
          coordinator_ = msg.src;
          last_coord_contact_ = now;
          cancel_candidacy();
        }
        view_ = std::move(v);
        if (on_view_) on_view_(*view_);
      }
      break;
    }
    case kHeartbeatAck:
      if (config_.enable_failover && msg.src == coordinator_)
        last_coord_contact_ = now;
      break;
    case kCoordClaim: {
      ClaimMsg claim;
      if (!config_.enable_failover || !util::decode(msg.payload, claim)) break;
      if (view_ && view_->bans(msg.src)) break;  // banned members can't claim
      if (hosted_ && hosted_->active()) {
        send_coord_alive(msg.src);
        break;
      }
      if (now - last_coord_contact_ + kTakeoverStagger <
          kCoordLeaseTimeout) {
        // Our coordinator is alive as far as we know — with a margin: a
        // lease within one stagger of expiry is no grounds to refuse.
        // When the coordinator dies, leases expire within a heartbeat of
        // each other, and a member whose check fires marginally late must
        // pledge rather than refresh the claimant with a stale refusal
        // (near-simultaneous expiry would otherwise livelock on mutual
        // refusals).  Refuse the claim and point the claimant at it.
        send_coord_alive(msg.src);
        break;
      }
      if (candidate_) {
        if (claim_beats(claim.view_id, claim.rank, msg.src,
                        view_ ? view_->id : 0, view_rank(), self_)) {
          cancel_candidacy();  // defer to the better claimant below
        } else {
          break;  // our claim is better; the peer stands down on hearing it
        }
      }
      // Pledge to the best claimant seen since our lease expired.  Only
      // ever pledging to one claimant at a time keeps two candidates from
      // both counting us toward a majority.
      if (!have_best_claim_ ||
          claim_beats(claim.view_id, claim.rank, msg.src, best_claim_id_,
                      best_claim_rank_, best_claim_addr_)) {
        have_best_claim_ = true;
        best_claim_addr_ = msg.src;
        best_claim_id_ = claim.view_id;
        best_claim_rank_ = claim.rank;
      }
      if (msg.src == best_claim_addr_) send_rejoin(msg.src);
      break;
    }
    case kRejoin: {
      ViewMsg m;
      if (!candidate_ || !util::decode(msg.payload, m)) break;
      pledges_[msg.src] = std::move(m.view);
      maybe_promote();
      break;
    }
    case kCoordAlive: {
      CoordAliveMsg m;
      if (!config_.enable_failover || !util::decode(msg.payload, m)) break;
      const net::Address alive = m.coordinator;
      if (hosted_ && hosted_->active()) break;  // resolved via view ids
      cancel_candidacy();
      coordinator_ = alive;
      if (alive.node == msg.src.node) {
        last_coord_contact_ = now;  // firsthand: the host vouches for itself
      } else {
        // Secondhand refusal: grant only a probe lease — long enough to
        // heartbeat the named coordinator and hear a real ack (which then
        // grants the full lease), short enough that a refusal based on a
        // near-expired lease cannot keep a dead coordinator "alive"
        // forever by round-robin refresh.
        last_coord_contact_ =
            std::max(last_coord_contact_,
                     now - kCoordLeaseTimeout +
                         2 * kHeartbeatPeriod);
      }
      if (joined_) send_simple(kJoin);
      break;
    }
    case kRejoinReq:
      // A recovering coordinator solicits our summary.  Deliberately does
      // not renew the lease: information is free, authority is not — it
      // only returns once the recovering side re-activates with a
      // majority and publishes a view.
      if (config_.enable_failover) send_rejoin(msg.src);
      break;
    default:
      break;
  }
}

}  // namespace coop::groups
