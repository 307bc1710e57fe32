#include "groupware/mediaspace.hpp"

#include <algorithm>
#include <utility>

namespace coop::groupware {

namespace {

std::pair<ClientId, ClientId> norm(ClientId a, ClientId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

MediaSpace::MediaSpace(sim::Simulator& sim, net::Network& net,
                       awareness::AwarenessEngine* engine,
                       MediaSpaceConfig config)
    : sim_(sim),
      net_(net),
      engine_(engine),
      config_(config),
      snapshot_timer_(sim, config.snapshot_period,
                      [this] { snapshot_tick(); }) {}

MediaSpace::~MediaSpace() { snapshot_timer_.stop(); }

void MediaSpace::add_office(ClientId who, net::NodeId node) {
  offices_[who] = Office{node, DoorState::kOpen, {}};
}

void MediaSpace::remove_office(ClientId who) {
  // Hang up every connection involving the departing office.
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->first == who || it->second == who) {
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
  auto oit = offices_.find(who);
  if (oit != offices_.end()) {
    for (auto& [knocker, pending] : oit->second.knocks)
      sim_.cancel(pending.first);
    offices_.erase(oit);
  }
  // Retract the departing user's outstanding knocks at other doors.
  for (auto& [owner, office] : offices_) {
    auto kit = office.knocks.find(who);
    if (kit != office.knocks.end()) {
      sim_.cancel(kit->second.first);
      office.knocks.erase(kit);
    }
  }
  portholes_subscribers_.erase(who);
}

void MediaSpace::set_door(ClientId who, DoorState state) {
  auto it = offices_.find(who);
  if (it != offices_.end()) it->second.door = state;
}

std::optional<DoorState> MediaSpace::door(ClientId who) const {
  auto it = offices_.find(who);
  if (it == offices_.end()) return std::nullopt;
  return it->second.door;
}

void MediaSpace::publish_activity(ClientId actor, const std::string& object,
                                  const std::string& verb) {
  if (engine_) engine_->publish({actor, object, verb, sim_.now()});
}

AttemptResult MediaSpace::attempt(ClientId who, ClientId target,
                                  bool connection) {
  auto it = offices_.find(target);
  if (it == offices_.end() || offices_.find(who) == offices_.end())
    return AttemptResult::kRefused;
  Office& office = it->second;
  switch (office.door) {
    case DoorState::kClosed:
      ++stats_.refusals;
      return AttemptResult::kRefused;
    case DoorState::kOpen:
      if (connection) {
        establish(who, target);
      } else {
        ++stats_.glances;
        publish_activity(who, "office/" + std::to_string(target),
                         "glances into");
      }
      return AttemptResult::kAccepted;
    case DoorState::kKnock: {
      // A knock rings the occupant and expires if unanswered.
      ++stats_.knocks;
      if (office.knocks.count(who) != 0)
        return AttemptResult::kAwaitingAnswer;  // already knocking
      const sim::EventId expiry = sim_.schedule_after(
          config_.knock_timeout, [this, who, target] {
            auto oit = offices_.find(target);
            if (oit == offices_.end()) return;
            if (oit->second.knocks.erase(who) > 0) ++stats_.knock_timeouts;
          });
      office.knocks[who] = {expiry, connection};
      if (on_knock_) on_knock_(target, who);
      publish_activity(who, "office/" + std::to_string(target),
                       "knocks at");
      return AttemptResult::kAwaitingAnswer;
    }
  }
  return AttemptResult::kRefused;
}

AttemptResult MediaSpace::glance(ClientId who, ClientId target) {
  const AttemptResult r = attempt(who, target, /*connection=*/false);
  if (r == AttemptResult::kRefused) ++stats_.glances_refused;
  return r;
}

AttemptResult MediaSpace::connect(ClientId who, ClientId target) {
  return attempt(who, target, /*connection=*/true);
}

void MediaSpace::answer(ClientId occupant, ClientId from, bool accept) {
  auto oit = offices_.find(occupant);
  if (oit == offices_.end()) return;
  auto kit = oit->second.knocks.find(from);
  if (kit == oit->second.knocks.end()) return;
  sim_.cancel(kit->second.first);
  const bool wanted_connection = kit->second.second;
  oit->second.knocks.erase(kit);
  if (!accept) {
    ++stats_.refusals;
    return;
  }
  if (wanted_connection) {
    establish(from, occupant);
  } else {
    ++stats_.glances;
    publish_activity(from, "office/" + std::to_string(occupant),
                     "glances into");
  }
}

void MediaSpace::establish(ClientId a, ClientId b) {
  if (!connections_.insert(norm(a, b)).second) return;  // already linked
  ++stats_.connections;
  publish_activity(a, "office/" + std::to_string(b), "connects to");
}

void MediaSpace::disconnect(ClientId a, ClientId b) {
  connections_.erase(norm(a, b));
}

bool MediaSpace::connected(ClientId a, ClientId b) const {
  return connections_.count(norm(a, b)) != 0;
}

std::vector<ClientId> MediaSpace::connections_of(ClientId who) const {
  std::vector<ClientId> out;
  for (const auto& [a, b] : connections_) {
    if (a == who) out.push_back(b);
    if (b == who) out.push_back(a);
  }
  return out;
}

void MediaSpace::subscribe_portholes(ClientId who) {
  portholes_subscribers_.insert(who);
}

void MediaSpace::start_portholes() { snapshot_timer_.start(); }
void MediaSpace::stop_portholes() { snapshot_timer_.stop(); }

void MediaSpace::snapshot_tick() {
  // Every open or knocking office publishes one snapshot to every
  // subscriber (closed doors publish nothing: the camera is covered).
  const sim::TimePoint captured = sim_.now();
  for (const auto& [office_owner, office] : offices_) {
    if (office.door == DoorState::kClosed) continue;
    for (ClientId viewer : portholes_subscribers_) {
      if (viewer == office_owner) continue;
      // Charge the network for the snapshot bytes between the two hosts.
      auto vit = offices_.find(viewer);
      if (vit == offices_.end()) continue;
      net::Message msg{.src = {office.node, 777},
                       .dst = {vit->second.node, 778},
                       .payload = {}};
      msg.wire_size = config_.snapshot_bytes;
      net_.send(std::move(msg));
      ++stats_.snapshots_delivered;
      if (on_snapshot_) on_snapshot_(viewer, office_owner, captured);
    }
  }
}

}  // namespace coop::groupware
