// Session classification on Johansen's space-time matrix (Figure 1 of the
// paper) and the infrastructure defaults each quadrant implies.
//
//                    Same Time            Different Time
//   Same Place       face-to-face         asynchronous interaction
//   Different Places synchronous distrib. asynchronous distributed
//
// The paper stresses that real work "switches rapidly between
// asynchronous and synchronous interactions" and needs seamless
// transitions — so the classification is a live property of a Session,
// not a static type: reclassify() moves a session between quadrants and
// the recommended infrastructure parameters move with it (experiment F1
// measures all four corners).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "groups/group_channel.hpp"
#include "groups/membership.hpp"
#include "net/link.hpp"
#include "sim/time.hpp"

namespace coop::groupware {

/// Geographic dimension (logical accessibility, not strict geometry).
enum class Place : std::uint8_t { kSame, kDifferent };

/// Temporal dimension.
enum class Tempo : std::uint8_t { kSame, kDifferent };

/// A cell of the matrix.
struct SpaceTimeClass {
  Place place = Place::kSame;
  Tempo tempo = Tempo::kSame;

  [[nodiscard]] const char* quadrant() const noexcept {
    if (place == Place::kSame && tempo == Tempo::kSame)
      return "face-to-face interaction";
    if (place == Place::kSame) return "asynchronous interaction";
    if (tempo == Tempo::kSame) return "synchronous distributed interaction";
    return "asynchronous distributed interaction";
  }

  /// The link regime connecting participants in this quadrant.
  [[nodiscard]] net::LinkModel recommended_link() const {
    return place == Place::kSame ? net::LinkModel::lan()
                                 : net::LinkModel::wan();
  }

  /// Synchronous quadrants want total order (everyone sees one
  /// interleaving as it happens); asynchronous ones get by with causal
  /// order (history coherence without a sequencer round-trip).
  [[nodiscard]] groups::Ordering recommended_ordering() const {
    return tempo == Tempo::kSame ? groups::Ordering::kTotal
                                 : groups::Ordering::kCausal;
  }

  /// Awareness digest cadence: tight for synchronous work, relaxed for
  /// asynchronous catch-up.
  [[nodiscard]] sim::Duration recommended_digest_period() const {
    return tempo == Tempo::kSame ? sim::msec(500) : sim::sec(30);
  }

  bool operator==(const SpaceTimeClass&) const = default;
};

/// A named cooperative session carrying its (mutable) classification.
class Session {
 public:
  Session(std::string name, SpaceTimeClass klass)
      : name_(std::move(name)), class_(klass) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const SpaceTimeClass& classification() const noexcept {
    return class_;
  }

  /// Seamless transition between quadrants (e.g. a co-authoring session
  /// going synchronous for a review meeting).  Returns true if the
  /// quadrant actually changed.
  bool reclassify(SpaceTimeClass next) {
    if (next == class_) return false;
    class_ = next;
    ++transitions_;
    return true;
  }

  [[nodiscard]] std::uint64_t transitions() const noexcept {
    return transitions_;
  }

 private:
  std::string name_;
  SpaceTimeClass class_;
  std::uint64_t transitions_ = 0;
};

/// One participant's binding of the membership plane to a group channel.
///
/// The two planes were previously wired by hand in every harness: the
/// membership failure detector noticed a crash, and *some* glue had to
/// call GroupChannel::mark_failed so the ack quorum shrank and — for
/// kTotal — sequencer failover ran.  SessionGroup owns that glue: every
/// installed view is diffed against the set of nodes ever seen in a view,
/// and a node that disappears is marked failed on the channel exactly
/// once.  Because MembershipMember itself follows a moving coordinator
/// (lease expiry → claim → takeover), the pair survives coordinator *and*
/// sequencer failover with no harness involvement.
///
/// Channel slots are append-only, so the full roster (identical order at
/// every participant) is fixed at construction; membership controls which
/// of those slots count, not which exist.
/// Well-known ports a participant node uses for each plane. (Namespace
/// scope so it is complete when used as a default constructor argument.)
struct SessionPorts {
  net::PortId membership = 1;
  net::PortId channel = 10;
};

class SessionGroup {
 public:
  using Ports = SessionPorts;

  SessionGroup(net::Network& net, net::NodeId node,
               std::vector<net::NodeId> roster, net::Address coordinator,
               net::McastId group, Ports ports = Ports(),
               groups::MembershipConfig membership_config = {},
               groups::ChannelConfig channel_config = {})
      : node_(node),
        roster_(std::move(roster)),
        ports_(ports),
        member_(net, {node, ports.membership}, coordinator,
                membership_config),
        channel_(net, {node, ports.channel}, group, channel_config) {
    std::vector<net::Address> slots;
    slots.reserve(roster_.size());
    for (const net::NodeId n : roster_) slots.push_back({n, ports_.channel});
    channel_.set_members(slots);
    channel_.on_deliver([this](const groups::Delivery& d) {
      if (excluded_) return;  // not in the current view: stay silent
      if (deliver_) deliver_(d);
    });
    member_.on_view([this](const groups::View& v) { handle_view(v); });
  }

  void join() { member_.join(); }
  void leave() { member_.leave(); }

  [[nodiscard]] std::uint64_t broadcast(std::string payload,
                                        const obs::CausalContext& parent = {}) {
    return channel_.broadcast(std::move(payload), parent);
  }

  void on_deliver(groups::GroupChannel::DeliverFn fn) {
    deliver_ = std::move(fn);
  }
  void on_view(std::function<void(const groups::View&)> fn) {
    on_view_ = std::move(fn);
  }

  [[nodiscard]] groups::MembershipMember& member() noexcept { return member_; }
  [[nodiscard]] groups::GroupChannel& channel() noexcept { return channel_; }
  /// True while this participant was dropped from the installed view
  /// (evicted, or partitioned away): deliveries are suppressed so the
  /// application never acts on traffic the group no longer means for it.
  [[nodiscard]] bool excluded() const noexcept { return excluded_; }

 private:
  void handle_view(const groups::View& v) {
    std::set<net::NodeId> present;
    for (const auto& a : v.members) present.insert(a.node);
    for (const net::NodeId n : present) ever_present_.insert(n);
    excluded_ = ever_present_.count(node_) != 0 && present.count(node_) == 0;
    for (const net::NodeId n : ever_present_) {
      if (n == node_ || present.count(n) != 0) continue;
      // First disappearance only: slots stay dead once failed, and a
      // flapping member re-admitted by membership keeps broadcasting on
      // its (still attached) channel endpoint — it just stops counting
      // toward ack quorums.
      if (failed_.insert(n).second) channel_.mark_failed({n, ports_.channel});
    }
    if (on_view_) on_view_(v);
  }

  net::NodeId node_;
  std::vector<net::NodeId> roster_;
  Ports ports_;
  groups::MembershipMember member_;
  groups::GroupChannel channel_;
  groups::GroupChannel::DeliverFn deliver_;
  std::function<void(const groups::View&)> on_view_;
  std::set<net::NodeId> ever_present_;
  std::set<net::NodeId> failed_;
  bool excluded_ = false;
};

}  // namespace coop::groupware
