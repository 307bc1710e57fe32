// Media spaces — §3.3.2: "a range of multimedia systems ... with the
// intent of forming distributed shared *media spaces* across a user
// community", with the room/door metaphor of virtual-office systems and
// the asynchronous Portholes mode.
//
// A MediaSpace is a community of offices.  Each office has a *door state*
// governing connection attempts (the social-accessibility control of
// Cruiser/RAVE):
//
//   kOpen   — glances and connections succeed immediately;
//   kKnock  — a connection attempt notifies the occupant, who must accept
//             (or the attempt expires);
//   kClosed — attempts are refused outright (glances too).
//
// Two interaction styles:
//   * glance(a, b): a few-second one-way look — the lightweight social
//     browsing Cruiser pioneered; produces an awareness event.
//   * connect(a, b): a sustained two-way A/V link, modelled as a pair of
//     media streams bound through the network with a QoS contract.
//   * Portholes mode: each office periodically multicasts a low-rate
//     snapshot frame to every subscriber — background awareness across
//     the community without connections.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "awareness/engine.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "streams/stream.hpp"

namespace coop::groupware {

using ClientId = ccontrol::ClientId;

/// Social accessibility of an office.
enum class DoorState : std::uint8_t { kOpen, kKnock, kClosed };

/// Outcome of a glance or connection attempt.
enum class AttemptResult : std::uint8_t {
  kAccepted,
  kAwaitingAnswer,  ///< knock pending; occupant must answer
  kRefused,         ///< closed door (or explicit refusal)
};

struct MediaSpaceConfig {
  /// Unanswered knocks expire (and refuse) after this long.
  sim::Duration knock_timeout = sim::sec(15);
  /// Portholes snapshot cadence per publishing office.
  sim::Duration snapshot_period = sim::sec(60);
  /// Snapshot wire size (tiny digitized image, as in Portholes).
  std::size_t snapshot_bytes = 6000;
};

/// The community media space.  One instance per site cluster; the
/// network carries snapshots and the streams carry live connections.
class MediaSpace {
 public:
  MediaSpace(sim::Simulator& sim, net::Network& net,
             awareness::AwarenessEngine* engine = nullptr,
             MediaSpaceConfig config = {});
  ~MediaSpace();

  MediaSpace(const MediaSpace&) = delete;
  MediaSpace& operator=(const MediaSpace&) = delete;

  // --- offices ---------------------------------------------------------------

  /// Adds an office for @p who, hosted on @p node, initially kOpen.
  void add_office(ClientId who, net::NodeId node);
  void remove_office(ClientId who);
  void set_door(ClientId who, DoorState state);
  [[nodiscard]] std::optional<DoorState> door(ClientId who) const;

  // --- glances ---------------------------------------------------------------

  /// One-way look into @p target's office.  Succeeds through open doors;
  /// knocking doors treat a glance like a knock; closed doors refuse.
  AttemptResult glance(ClientId who, ClientId target);

  // --- connections ------------------------------------------------------------

  /// Attempts a sustained A/V connection.  On kAwaitingAnswer the
  /// occupant must call answer(); on acceptance both parties appear in
  /// each other's connection lists and a stream pair is established.
  AttemptResult connect(ClientId who, ClientId target);

  /// The occupant answers the (single) pending knock from @p from.
  void answer(ClientId occupant, ClientId from, bool accept);

  /// Tears down an established connection (either side may hang up).
  void disconnect(ClientId a, ClientId b);

  [[nodiscard]] bool connected(ClientId a, ClientId b) const;
  [[nodiscard]] std::vector<ClientId> connections_of(ClientId who) const;

  /// Fired when a knock lands at the occupant (their UI rings).
  void on_knock(std::function<void(ClientId occupant, ClientId from)> fn) {
    on_knock_ = std::move(fn);
  }

  // --- Portholes --------------------------------------------------------------

  /// Subscribes @p who to everyone's periodic snapshots.
  void subscribe_portholes(ClientId who);

  /// Snapshot delivery hook: (viewer, office pictured, capture time).
  void on_snapshot(
      std::function<void(ClientId viewer, ClientId office,
                         sim::TimePoint captured)>
          fn) {
    on_snapshot_ = std::move(fn);
  }

  /// Starts/stops the snapshot clock (off by default).
  void start_portholes();
  void stop_portholes();

  struct Stats {
    std::uint64_t glances = 0;
    std::uint64_t glances_refused = 0;
    std::uint64_t knocks = 0;
    std::uint64_t knock_timeouts = 0;
    std::uint64_t connections = 0;
    std::uint64_t refusals = 0;
    std::uint64_t snapshots_delivered = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Office {
    net::NodeId node = 0;
    DoorState door = DoorState::kOpen;
    /// Pending knocks: knocker -> (expiry event, wants_connection).
    std::map<ClientId, std::pair<sim::EventId, bool>> knocks;
  };

  void publish_activity(ClientId actor, const std::string& object,
                        const std::string& verb);
  AttemptResult attempt(ClientId who, ClientId target, bool connection);
  void establish(ClientId a, ClientId b);
  void snapshot_tick();

  sim::Simulator& sim_;
  net::Network& net_;
  awareness::AwarenessEngine* engine_;
  MediaSpaceConfig config_;
  std::map<ClientId, Office> offices_;
  std::set<std::pair<ClientId, ClientId>> connections_;  // normalized a<b
  std::set<ClientId> portholes_subscribers_;
  std::function<void(ClientId, ClientId)> on_knock_;
  std::function<void(ClientId, ClientId, sim::TimePoint)> on_snapshot_;
  sim::PeriodicTimer snapshot_timer_;
  Stats stats_;
};

}  // namespace coop::groupware
