#include "groupware/conference.hpp"

#include <utility>

#include "util/codec.hpp"

namespace coop::groupware {

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

util::Buf ConferenceServer::display_frame() const {
  return util::encode(DisplayMsg{.content = app_->display()});
}

util::Buf ConferenceServer::floor_frame() const {
  return util::encode(FloorMsg{.holder = floor_.holder().value_or(0)});
}

void ConferenceServer::broadcast_display() {
  ++stats_.display_updates;
  const util::Buf wire = display_frame();
  for (const auto& [id, addr] : members_) channel_.send(addr, wire);
}

void ConferenceServer::broadcast_floor() {
  const util::Buf wire = floor_frame();
  for (const auto& [id, addr] : members_) channel_.send(addr, wire);
}

void ConferenceServer::handle(const net::Address& from,
                              std::string_view payload) {
  ClientMsg m;
  if (!util::decode(payload, m)) return;
  // A client id is bound to the address that joined with it; a frame
  // naming an id from any other address is dropped.
  if (m.type == ConferenceMsg::kJoin) {
    const auto [bound, fresh] = members_.try_emplace(m.client, from);
    if (!fresh && bound->second != from) return;
  } else {
    const auto member = members_.find(m.client);
    if (member == members_.end() || member->second != from) return;
  }
  switch (m.type) {
    case ConferenceMsg::kJoin:
      // Late joiners get the current state immediately.
      channel_.send(from, display_frame());
      channel_.send(from, floor_frame());
      break;
    case ConferenceMsg::kInput: {
      InputMsg input;
      if (!util::decode(payload, input)) return;
      // The multidrop filter: only the floor holder's input reaches the
      // application, preserving its single-user illusion.
      if (floor_.holder() != m.client) {
        ++stats_.inputs_rejected;
        return;
      }
      ++stats_.inputs_accepted;
      app_->process(std::string(input.text));
      broadcast_display();
      break;
    }
    case ConferenceMsg::kFloorReq:
      floor_.request(m.client, nullptr);
      break;
    case ConferenceMsg::kFloorRel:
      floor_.release(m.client);
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

void ConferenceClient::send_simple(ConferenceMsg type) {
  channel_.send(server_, util::encode(ClientMsg{type, id_}));
}

void ConferenceClient::join() { send_simple(ConferenceMsg::kJoin); }

void ConferenceClient::send_input(const std::string& input) {
  channel_.send(server_,
                util::encode(InputMsg{.client = id_, .text = input}));
}

void ConferenceClient::request_floor() {
  send_simple(ConferenceMsg::kFloorReq);
}
void ConferenceClient::release_floor() {
  send_simple(ConferenceMsg::kFloorRel);
}

void ConferenceClient::handle(std::string_view payload) {
  ConferenceMsg type{};
  if (!util::decode(payload, type)) return;
  if (type == ConferenceMsg::kDisplay) {
    DisplayMsg d;
    if (!util::decode(payload, d)) return;
    display_ = d.content;
    if (on_display_) on_display_(display_);
  } else if (type == ConferenceMsg::kFloor) {
    FloorMsg f;
    if (!util::decode(payload, f)) return;
    if (f.holder == 0) {
      floor_holder_.reset();
    } else {
      floor_holder_ = f.holder;
    }
  }
}

}  // namespace coop::groupware
