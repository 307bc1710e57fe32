// Floor control — reservation-style concurrency control for conferencing
// (§4.2.1): "Conferencing systems often use a floor passing approach to
// reservation.  Other systems, such as Colab, use an approach based on
// more informal negotiation."
//
// Four policies over one controller so experiments can compare them:
//
//   kExplicitRelease — the classic baton: requests queue FIFO; the floor
//                      moves only when the holder releases it.
//   kPreemptive      — a request takes the floor immediately (turn-taking
//                      by social convention, the MMConf default).
//   kRoundRobin      — the floor rotates on a timer among everyone whose
//                      request is outstanding.
//   kNegotiation     — Colab-style: a request asks the current holder; the
//                      holder may grant or refuse, and silence for the
//                      negotiation timeout counts as consent.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "ccontrol/locks.hpp"  // ClientId
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace coop::ccontrol {

enum class FloorPolicy : std::uint8_t {
  kExplicitRelease,
  kPreemptive,
  kRoundRobin,
  kNegotiation,
};

struct FloorConfig {
  FloorPolicy policy = FloorPolicy::kExplicitRelease;
  /// kRoundRobin: how long each speaker keeps the floor.
  sim::Duration rotation_period = sim::sec(5);
  /// kNegotiation: silence from the holder for this long = consent.
  sim::Duration negotiation_timeout = sim::sec(3);
};

struct FloorStats {
  std::uint64_t grants = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t refusals = 0;
  std::uint64_t auto_grants = 0;  ///< negotiation timeouts (implicit consent)
  util::Histogram wait_time{0.0, 1e7, 64};  ///< request -> grant, µs
};

/// The session's floor arbiter.
class FloorControl {
 public:
  using GrantFn = std::function<void(bool granted)>;

  FloorControl(sim::Simulator& sim, FloorConfig config = {});
  ~FloorControl();

  FloorControl(const FloorControl&) = delete;
  FloorControl& operator=(const FloorControl&) = delete;

  /// Asks for the floor.  @p done fires once: true when the floor is
  /// granted, false if the holder refused (kNegotiation only).
  void request(ClientId who, GrantFn done);

  /// Gives the floor up; the next queued requester (if any) gets it.
  void release(ClientId who);

  /// kNegotiation: the holder answers an outstanding request.
  void respond(ClientId holder, bool grant);

  /// Tailors the floor policy mid-session (§3.2.2: the sharing policy of
  /// a conference should be visible and changeable, not baked in).
  /// Queued requests keep waiting under the new regime; switching TO
  /// round-robin arms the rotation, switching away disarms it.
  void set_policy(FloorPolicy policy);

  [[nodiscard]] FloorPolicy policy() const noexcept {
    return config_.policy;
  }

  /// Fired when the floor changes hands: (previous holder or nullopt,
  /// new holder or nullopt).
  void on_floor_change(
      std::function<void(std::optional<ClientId>, std::optional<ClientId>)>
          fn) {
    on_change_ = std::move(fn);
  }

  /// kNegotiation: fired at the holder when someone asks for the floor.
  void on_negotiate(std::function<void(ClientId holder, ClientId asker)> fn) {
    on_negotiate_ = std::move(fn);
  }

  [[nodiscard]] std::optional<ClientId> holder() const noexcept {
    return holder_;
  }
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] const FloorStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    ClientId who;
    GrantFn done;
    sim::TimePoint since;
    sim::EventId negotiation_timer = sim::kInvalidEvent;
  };

  void give_floor(ClientId who, GrantFn done, sim::TimePoint since);
  void next_from_queue();
  void arm_rotation();

  sim::Simulator& sim_;
  FloorConfig config_;
  std::optional<ClientId> holder_;
  std::deque<Pending> queue_;
  std::function<void(std::optional<ClientId>, std::optional<ClientId>)>
      on_change_;
  std::function<void(ClientId, ClientId)> on_negotiate_;
  sim::EventId rotation_timer_ = sim::kInvalidEvent;
  FloorStats stats_;
};

}  // namespace coop::ccontrol
