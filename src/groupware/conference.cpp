#include "groupware/conference.hpp"

#include <utility>

#include "util/codec.hpp"

namespace coop::groupware {

namespace {

enum WireType : std::uint8_t {
  kJoin = 1,       // client -> server {client_id}
  kInput = 2,      // client -> server {client_id, text}
  kFloorReq = 3,   // client -> server {client_id}
  kFloorRel = 4,   // client -> server {client_id}
  kDisplay = 5,    // server -> client {content}
  kFloor = 6,      // server -> client {holder (0 = none)}
};

}  // namespace

// --------------------------------------------------------- ConferenceServer

ConferenceServer::ConferenceServer(net::Network& net, net::Address self,
                                   std::unique_ptr<SharedApp> app,
                                   ccontrol::FloorConfig floor_config,
                                   sim::Duration refresh_period)
    : net_(net),
      channel_(net, self),
      app_(std::move(app)),
      floor_(net.simulator(), floor_config),
      refresh_(net.simulator(), refresh_period, [this] {
        // Soft-state refresh: a member whose channel is still catching
        // up converges on the latest floor state.
        broadcast_floor();
      }) {
  channel_.on_receive([this](const net::Address& from,
                             std::string_view payload) {
    handle(from, payload);
  });
  floor_.on_floor_change([this](std::optional<ClientId>,
                                std::optional<ClientId>) {
    broadcast_floor();
  });
  refresh_.start();
}

ConferenceServer::~ConferenceServer() { refresh_.stop(); }

void ConferenceServer::broadcast_display() {
  ++stats_.display_updates;
  util::Writer w;
  w.put(kDisplay).put_string(app_->display());
  const util::Buf wire = w.take_buf();
  for (const auto& [id, addr] : members_) channel_.send(addr, wire);
}

void ConferenceServer::broadcast_floor() {
  util::Writer w;
  w.put(kFloor).put(floor_.holder().value_or(0));
  const util::Buf wire = w.take_buf();
  for (const auto& [id, addr] : members_) channel_.send(addr, wire);
}

void ConferenceServer::handle(const net::Address& from,
                              std::string_view payload) {
  util::Reader r(payload);
  const auto type = r.get<std::uint8_t>();
  const auto client = r.get<ClientId>();
  if (r.failed()) return;
  switch (type) {
    case kJoin: {
      members_[client] = from;
      // Late joiners get the current state immediately.
      util::Writer w;
      w.put(kDisplay).put_string(app_->display());
      channel_.send(from, w.take_buf());
      util::Writer wf;
      wf.put(kFloor).put(floor_.holder().value_or(0));
      channel_.send(from, wf.take_buf());
      break;
    }
    case kInput: {
      const std::string text = r.get_string();
      if (r.failed()) return;
      // The multidrop filter: only the floor holder's input reaches the
      // application, preserving its single-user illusion.
      if (floor_.holder() != client) {
        ++stats_.inputs_rejected;
        return;
      }
      ++stats_.inputs_accepted;
      app_->process(text);
      broadcast_display();
      break;
    }
    case kFloorReq:
      floor_.request(client, nullptr);
      break;
    case kFloorRel:
      floor_.release(client);
      break;
    default:
      break;
  }
}

// --------------------------------------------------------- ConferenceClient

ConferenceClient::ConferenceClient(net::Network& net, net::Address self,
                                   net::Address server, ClientId id)
    : channel_(net, self), server_(server), id_(id) {
  channel_.on_receive([this](const net::Address&,
                             std::string_view payload) {
    handle(payload);
  });
}

void ConferenceClient::send_simple(std::uint8_t type) {
  util::Writer w;
  w.put(type).put(id_);
  channel_.send(server_, w.take_buf());
}

void ConferenceClient::join() { send_simple(kJoin); }

void ConferenceClient::send_input(const std::string& input) {
  util::Writer w;
  w.put(static_cast<std::uint8_t>(kInput)).put(id_).put_string(input);
  channel_.send(server_, w.take_buf());
}

void ConferenceClient::request_floor() { send_simple(kFloorReq); }
void ConferenceClient::release_floor() { send_simple(kFloorRel); }

void ConferenceClient::handle(std::string_view payload) {
  util::Reader r(payload);
  const auto type = r.get<std::uint8_t>();
  if (r.failed()) return;
  if (type == kDisplay) {
    display_ = r.get_string();
    if (!r.failed() && on_display_) on_display_(display_);
  } else if (type == kFloor) {
    const auto holder = r.get<ClientId>();
    if (r.failed()) return;
    if (holder == 0) {
      floor_holder_.reset();
    } else {
      floor_holder_ = holder;
    }
  }
}

}  // namespace coop::groupware
