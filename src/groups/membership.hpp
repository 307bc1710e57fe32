// Group membership with heartbeat failure detection, view changes, and
// (opt-in) coordinator failover.
//
// CSCW sessions are long-lived and people join, leave, crash and roam
// (§3.1's seamless transitions; §4.2.2's disconnection).  The membership
// service tracks who is currently in a session and publishes *views* —
// numbered membership snapshots — to every member.
//
// Architecture: a coordinator endpoint (typically co-located with the
// session's server object) accepts JOIN/LEAVE, expects periodic HEARTBEATs,
// and sweeps for members whose heartbeats stopped.  Views are disseminated
// reliably: each member acks the view id it has installed, and the sweep
// re-sends the current view to anyone behind — so a lost VIEW datagram only
// delays, never loses, a membership change.
//
// Failover (MembershipConfig::enable_failover): the coordinator is no
// longer a single point of failure.  Members *lease* the coordinator —
// every heartbeat is answered with a HEARTBEAT_ACK that renews the lease —
// and when a member's lease expires it claims the coordinatorship, rank-
// staggered by its position in the last installed view so the lowest
// surviving member deterministically claims first.  A claimant collects
// REJOIN summaries (each member's last installed view, bans included) and
// only activates once a majority of that view has pledged — the
// *primary-partition rule*: a minority fragment can never install views, so
// a healed partition never has to merge two divergent view histories.  The
// promoted coordinator resumes view ids strictly above the highest id any
// survivor reported, keeping ids monotone across any number of failovers.
// Symmetrically, an active coordinator that loses contact with a majority
// of its own view *suspends* (no evictions, no view bumps, no lease
// renewals) instead of shrinking the view — it resumes only if contact
// returns before member leases ran out, and permanently retires otherwise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"

namespace coop::groups {

/// A numbered membership snapshot.  The ban list travels with the view so
/// a member promoted to coordinator re-derives access-control state from
/// the survivors' summaries instead of losing it with the old coordinator.
struct View {
  std::uint64_t id = 0;
  std::vector<net::Address> members;
  std::vector<net::Address> banned;
  COOP_FIELDS(id, members, banned)

  [[nodiscard]] bool contains(const net::Address& a) const {
    for (const auto& m : members)
      if (m == a) return true;
    return false;
  }

  [[nodiscard]] bool bans(const net::Address& a) const {
    for (const auto& b : banned)
      if (b == a) return true;
    return false;
  }
};

/// Membership wire formats: every frame starts with its MemberMsg byte;
/// kJoin, kLeave, kHeartbeat and kRejoinReq are that byte alone.
enum class MemberMsg : std::uint8_t {
  kJoin = 1,
  kLeave = 2,
  kHeartbeat = 3,
  kView = 4,
  kViewAck = 5,
  kHeartbeatAck = 6,  ///< coordinator -> member: lease renewal
  kCoordClaim = 7,    ///< candidate -> last-view members: takeover claim
  kRejoin = 8,        ///< member -> claimant/recovering coordinator: summary
  kCoordAlive = 9,    ///< member -> claimant: "my lease is fresh, go there"
  kRejoinReq = 10,    ///< recovering coordinator -> member: solicit summary
};
COOP_ENUM_RANGE(MemberMsg, kJoin, kRejoinReq)

/// kView (coordinator -> member) and kRejoin (member's last view).
struct ViewMsg {
  MemberMsg type = MemberMsg::kView;
  View view;
  COOP_FIELDS(type, view)
};

/// kViewAck (the installed view id) and kHeartbeatAck (the current one).
struct ViewIdMsg {
  MemberMsg type = MemberMsg::kViewAck;
  std::uint64_t view_id = 0;
  COOP_FIELDS(type, view_id)
};

struct ClaimMsg {
  MemberMsg type = MemberMsg::kCoordClaim;
  std::uint64_t view_id = 0;  ///< the claimant's last installed view
  std::uint32_t rank = 0;     ///< the claimant's rank in that view
  COOP_FIELDS(type, view_id, rank)
};

struct CoordAliveMsg {
  MemberMsg type = MemberMsg::kCoordAlive;
  net::Address coordinator;  ///< the coordinator the sender holds a lease on
  std::uint64_t view_id = 0;
  COOP_FIELDS(type, coordinator, view_id)
};

/// Member heartbeat cadence (also the member's lease-check cadence).
inline constexpr sim::Duration kHeartbeatPeriod = sim::msec(100);
/// Coordinator sweep cadence (failure checks + view re-send).
inline constexpr sim::Duration kSweepPeriod = sim::msec(100);
/// Coordinator failover, member side: with no coordinator contact (view
/// or heartbeat-ack) for this long the lease is expired — the member stops
/// heartbeating the old coordinator and starts claiming.  Must comfortably
/// exceed MembershipConfig::failure_timeout so an active coordinator
/// always notices a lost majority (and suspends) before any member lease
/// runs out.
inline constexpr sim::Duration kCoordLeaseTimeout = sim::msec(700);
/// Claim stagger per rank in the last installed view: rank r claims at
/// lease expiry + r * this, so the lowest surviving rank wins
/// deterministically without an election round.
inline constexpr sim::Duration kTakeoverStagger = sim::msec(150);
/// A candidate re-sends its claim at this cadence until it activates,
/// adopts another coordinator, or stands down to a better claimant.
inline constexpr sim::Duration kClaimRetryPeriod = sim::msec(150);
/// Member re-sends JOIN at this cadence until a view containing it
/// arrives (repairs a lost JOIN, re-admits a wrongly evicted member).
inline constexpr sim::Duration kJoinRetryPeriod = sim::msec(200);
/// A promoted member hosts its coordinator at {node, port + this}.
inline constexpr net::PortId kCoordinatorPortOffset = 1000;

/// Tuning for both sides of the membership protocol.
struct MembershipConfig {
  /// A member is suspected failed after this long without a heartbeat.
  sim::Duration failure_timeout = sim::msec(350);

  // --- coordinator failover (opt-in) ---------------------------------------

  /// Enables lease-based coordinator failure detection and member-driven
  /// takeover (kCoordLeaseTimeout, kTakeoverStagger, kClaimRetryPeriod).
  /// Off by default: a fixed coordinator stays authoritative, and
  /// kCoordinatorPortOffset and recover_on_start do not apply.
  bool enable_failover = false;
  /// Coordinator restart semantics: start in a recovering role that lost
  /// all state — it solicits REJOIN summaries from whoever still talks to
  /// it and only re-activates with a majority of the reported last view
  /// (same primary-partition rule as a takeover).  If the group has moved
  /// to a successor meanwhile, it learns so and retires.
  bool recover_on_start = false;
  /// Deterministic multiplicative jitter applied to the heartbeat, sweep,
  /// join-retry and claim timers (drawn from the simulator's seeded rng),
  /// so a fleet of members does not fire in lockstep at the default
  /// msec(100) cadence.  0 = lockstep (legacy behavior).
  double timer_jitter = 0.0;
};

/// Coordinator side: owns the authoritative view.
class MembershipCoordinator : public net::Endpoint {
 public:
  /// Lifecycle role.  Only an active coordinator mutates or disseminates
  /// views; every other role is inert with respect to membership, which is
  /// what makes "at most one active coordinator per primary partition"
  /// hold.
  enum class Role : std::uint8_t {
    kActive,      ///< authoritative: admits, evicts, bumps views
    kRecovering,  ///< restarted with no state; collecting REJOIN summaries
    kSuspended,   ///< lost a majority of its view; parked, may resume
    kRetired,     ///< permanently stood down (successor took over)
  };

  /// State a takeover claimant recovered from survivor summaries, used to
  /// seed a promoted coordinator.
  struct TakeoverState {
    View baseline;                       ///< highest-id view any survivor had
    std::uint64_t id_floor = 0;          ///< max view id reported anywhere
    std::vector<net::Address> rejoined;  ///< members that pledged (incl. self)
  };

  MembershipCoordinator(net::Network& net, net::Address self,
                        MembershipConfig config = {});
  /// Promotion constructor: starts active with the recovered view state
  /// installed — the first view it disseminates has id id_floor + 1, the
  /// pledged members as its membership, and the baseline's ban list.
  MembershipCoordinator(net::Network& net, net::Address self,
                        MembershipConfig config, TakeoverState takeover);
  ~MembershipCoordinator() override;

  MembershipCoordinator(const MembershipCoordinator&) = delete;
  MembershipCoordinator& operator=(const MembershipCoordinator&) = delete;

  [[nodiscard]] const View& view() const noexcept { return view_; }

  /// Observer invoked on every view change (for session logic co-located
  /// with the coordinator).
  void on_view_change(std::function<void(const View&)> fn) {
    observer_ = std::move(fn);
  }

  /// Administratively evicts a member (e.g. access-control revocation).
  /// The member is also banned: its join/heartbeat traffic is ignored
  /// until readmit() lifts the ban.
  void evict(const net::Address& member);

  /// Lifts an administrative ban; the member may join again.
  void readmit(const net::Address& member) { banned_.erase(member); }

  /// Permanently stands this coordinator down (e.g. its host learned a
  /// successor installed a higher view).
  void retire();

  void on_message(const net::Message& msg) override;

  /// Number of view changes this coordinator has published.  Distinct from
  /// view().id: after a failover the promoted coordinator resumes ids above
  /// the survivor max, so the id and the change count diverge.
  [[nodiscard]] std::uint64_t view_changes() const noexcept {
    return view_changes_;
  }

  [[nodiscard]] Role role() const noexcept { return role_; }
  [[nodiscard]] bool active() const noexcept { return role_ == Role::kActive; }

 private:
  struct MemberState {
    net::Address addr;
    sim::TimePoint last_heartbeat = 0;
    std::uint64_t acked_view = 0;
  };

  /// @p addr's entry in states_, or where it would go.
  std::vector<MemberState>::iterator slot(const net::Address& addr) {
    return std::ranges::lower_bound(states_, addr, {}, &MemberState::addr);
  }
  [[nodiscard]] MemberState* find_member(const net::Address& addr) {
    auto it = slot(addr);
    return it != states_.end() && it->addr == addr ? &*it : nullptr;
  }
  /// @p addr's entry, inserted fresh at @p now if absent; the flag says
  /// whether it was inserted.
  std::pair<MemberState*, bool> admit(const net::Address& addr,
                                      sim::TimePoint now);
  /// Removes @p addr's entry; false if there was none.
  bool drop_member(const net::Address& addr);

  void bump_view();
  void send_view(const net::Address& to);
  void sweep();
  void maybe_activate_from_rejoins();
  [[nodiscard]] std::size_t fresh_member_count(sim::TimePoint now) const;

  net::Network& net_;
  net::Address self_;
  MembershipConfig config_;
  Role role_ = Role::kActive;
  View view_;
  /// Members in ascending address order: the order views list them in.
  std::vector<MemberState> states_;
  std::set<net::Address> banned_;
  std::function<void(const View&)> observer_;
  std::uint64_t view_changes_ = 0;
  // Recovery (recover_on_start): last-view summaries collected so far.
  std::map<net::Address, View> rejoins_;
  sim::TimePoint recovery_started_ = 0;
  sim::TimePoint suspended_since_ = 0;
  // Registry-owned ("groups.membership.<node>:<port>.*").
  util::Counter* joins_;
  util::Counter* leaves_;
  util::Counter* failures_;
  util::Counter* evictions_;
  util::Counter* views_;
  util::Counter* suspensions_;
  util::Counter* standdowns_;
  util::Counter* activations_;
  sim::PeriodicTimer sweeper_;
};

/// Member side: joins, heartbeats, installs views — and, with failover
/// enabled, leases the coordinator and claims the role when the lease
/// expires.
class MembershipMember : public net::Endpoint {
 public:
  MembershipMember(net::Network& net, net::Address self,
                   net::Address coordinator, MembershipConfig config = {});
  ~MembershipMember() override;

  MembershipMember(const MembershipMember&) = delete;
  MembershipMember& operator=(const MembershipMember&) = delete;

  /// Announces this member and starts heartbeating.
  void join();

  /// Gracefully departs (stops heartbeating; coordinator removes us).
  void leave();

  /// Callback invoked whenever a new view is installed.
  void on_view(std::function<void(const View&)> fn) {
    on_view_ = std::move(fn);
  }

  /// Most recently installed view, if any.
  [[nodiscard]] const std::optional<View>& view() const noexcept {
    return view_;
  }

  [[nodiscard]] bool joined() const noexcept { return joined_; }

  /// Address this member currently believes is the coordinator (moves on
  /// failover).
  [[nodiscard]] const net::Address& coordinator() const noexcept {
    return coordinator_;
  }

  /// Points the member at a (new) coordinator address — out-of-band
  /// discovery for a member that restarts after its configured seed
  /// coordinator died and the group moved on.
  void set_coordinator(const net::Address& addr);

  /// Non-null while this member hosts the promoted coordinator.
  [[nodiscard]] MembershipCoordinator* hosted_coordinator() const noexcept {
    return hosted_.get();
  }

  void on_message(const net::Message& msg) override;

 private:
  void send_simple(MemberMsg type);
  void send_coord_alive(const net::Address& to);
  void send_rejoin(const net::Address& to);
  void send_claims();
  void check_lease();
  void cancel_candidacy();
  void maybe_promote();
  [[nodiscard]] std::size_t view_rank() const;
  [[nodiscard]] bool lease_expired(sim::TimePoint now) const;
  /// Deterministic claimant precedence: higher last-view id wins, then
  /// lower rank, then lower address.
  [[nodiscard]] static bool claim_beats(std::uint64_t id_a, std::size_t rank_a,
                                        const net::Address& a,
                                        std::uint64_t id_b, std::size_t rank_b,
                                        const net::Address& b);

  net::Network& net_;
  net::Address self_;
  net::Address coordinator_;
  MembershipConfig config_;
  bool joined_ = false;
  std::optional<View> view_;
  std::function<void(const View&)> on_view_;
  // Failover state.
  sim::TimePoint last_coord_contact_ = 0;
  bool candidate_ = false;
  sim::TimePoint candidacy_started_ = 0;
  std::map<net::Address, View> pledges_;  ///< candidate: collected rejoins
  bool have_best_claim_ = false;
  net::Address best_claim_addr_{};
  std::uint64_t best_claim_id_ = 0;
  std::size_t best_claim_rank_ = 0;
  std::unique_ptr<MembershipCoordinator> hosted_;
  // Registry-owned ("groups.membership.<node>:<port>.*").
  util::Counter* lease_expiries_;
  util::Counter* claims_;
  util::Counter* takeovers_;
  sim::PeriodicTimer heartbeat_;
  sim::PeriodicTimer join_retry_;
  sim::PeriodicTimer lease_check_;
  sim::PeriodicTimer claim_retry_;
};

}  // namespace coop::groups
