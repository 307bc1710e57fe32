#include "groupware/editor.hpp"

#include <utility>

#include "util/codec.hpp"

namespace coop::groupware {

// ------------------------------------------------------------ EditorServer

EditorServer::EditorServer(net::Network& net, net::Address self,
                           std::string initial)
    : net_(net), channel_(net, self), ot_(std::move(initial)) {
  channel_.on_receive([this](const net::Address& from,
                             std::string_view payload) {
    handle(from, payload);
  });
}

void EditorServer::handle(const net::Address& from,
                          std::string_view payload) {
  EditorMsg type{};
  if (!util::decode(payload, type)) return;
  if (type == EditorMsg::kRegister) {
    RegisterMsg reg;
    if (!util::decode(payload, reg)) return;
    // A site stays bound to the address that registered it first: a
    // register from anyone else would take over that site's relays.
    const auto [bound, fresh] = client_addrs_.try_emplace(reg.site, from);
    if (!fresh && bound->second != from) return;
    ot_.add_client(reg.site);
    // Late-join state transfer: the client adopts the server's current
    // document; every op relayed after this point (same FIFO channel, so
    // ordered after the snapshot) applies on top of it.
    channel_.send(from, util::encode(SnapshotMsg{.doc = ot_.doc()}));
    return;
  }
  OpMsg op;
  if (type != EditorMsg::kOp || !util::decode(payload, op)) return;
  // Only the site's own address may speak for it.
  const auto site = client_addrs_.find(op.site);
  if (site == client_addrs_.end() || site->second != from) return;

  ot_.receive(op.site, op.link, fanout_);
  for (auto& o : fanout_) {
    auto addr = client_addrs_.find(o.to);
    if (addr == client_addrs_.end()) continue;
    // Relay with the ORIGINAL timestamp so receivers measure end-to-end
    // notification time, not just the server->client hop.
    channel_.send(addr->second,
                  util::encode(OpMsg{.site = op.site,
                                     .originated_at = op.originated_at,
                                     .link = std::move(o.message)}));
  }
}

// ------------------------------------------------------------ EditorClient

EditorClient::EditorClient(net::Network& net, net::Address self,
                           net::Address server, ccontrol::SiteId site,
                           std::string initial)
    : net_(net),
      server_(server),
      channel_(net, self),
      ot_(site, std::move(initial)) {
  channel_.on_receive([this](const net::Address& from,
                             std::string_view payload) {
    handle(from, payload);
  });
}

void EditorClient::connect() {
  channel_.send(server_, util::encode(RegisterMsg{.site = ot_.site()}));
}

void EditorClient::ship(ccontrol::OtLink::Message msg) {
  channel_.send(server_,
                util::encode(OpMsg{.site = ot_.site(),
                                   .originated_at = net_.simulator().now(),
                                   .link = std::move(msg)}));
}

void EditorClient::insert(std::size_t pos, std::string text) {
  ship(ot_.local_insert(pos, std::move(text)));
}

void EditorClient::erase(std::size_t pos, std::size_t len) {
  // The wire format is single-character deletes: deleting at the same
  // position len times removes the range, and each op ships as it is made.
  for (std::size_t i = 0; i < len; ++i) ship(ot_.local_delete(pos));
}

void EditorClient::handle(const net::Address& from,
                          std::string_view payload) {
  (void)from;
  EditorMsg type{};
  if (!util::decode(payload, type)) return;
  if (type == EditorMsg::kSnapshot) {
    SnapshotMsg snap;
    // Adopt the server state only while we have no concurrent local
    // edits in flight — otherwise the snapshot would clobber them (the
    // normal case: connect() completes before editing starts).
    if (util::decode(payload, snap) && ot_.in_flight() == 0) {
      ot_ = ccontrol::OtClient(ot_.site(), std::string(snap.doc));
      connected_ = true;
    }
    return;
  }
  OpMsg op;
  if (type != EditorMsg::kOp || !util::decode(payload, op)) return;
  ot_.receive(op.link);
  if (on_remote_)
    on_remote_(op.link.op, net_.simulator().now() - op.originated_at);
}

}  // namespace coop::groupware
