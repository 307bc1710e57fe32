#include "groupware/editor.hpp"

#include <utility>

#include "util/codec.hpp"

namespace coop::groupware {

namespace {

enum WireType : std::uint8_t { kRegister = 1, kOp = 2, kSnapshot = 3 };

void encode_op(util::Writer& w, const ccontrol::TextOp& op) {
  w.put(op.kind)
      .put(static_cast<std::uint64_t>(op.pos))
      .put_string(op.text)
      .put(op.site);
}

ccontrol::TextOp decode_op(util::Reader& r) {
  ccontrol::TextOp op;
  op.kind = r.get<ccontrol::TextOp::Kind>();
  op.pos = static_cast<std::size_t>(r.get<std::uint64_t>());
  op.text = r.get_string();
  op.site = r.get<ccontrol::SiteId>();
  return op;
}

util::Buf encode_op_message(const ccontrol::OtLink::Message& msg,
                            ccontrol::SiteId site,
                            sim::TimePoint originated_at) {
  util::Writer w;
  w.put(kOp).put(site).put(originated_at);
  w.put(msg.sender_generated).put(msg.sender_received);
  encode_op(w, msg.op);
  return w.take_buf();
}

}  // namespace

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
  util::Reader r(payload);
  const auto type = r.get<std::uint8_t>();
  if (r.failed()) return;
  if (type == kRegister) {
    const auto site = r.get<ccontrol::SiteId>();
    if (r.failed()) return;
    client_addrs_[site] = from;
    ot_.add_client(site);
    // Late-join state transfer: the client adopts the server's current
    // document; every op relayed after this point (same FIFO channel, so
    // ordered after the snapshot) applies on top of it.
    util::Writer w;
    w.put(kSnapshot).put_string(ot_.doc());
    channel_.send(from, w.take_buf());
    return;
  }
  if (type != kOp) return;
  const auto site = r.get<ccontrol::SiteId>();
  const auto originated_at = r.get<sim::TimePoint>();
  ccontrol::OtLink::Message msg;
  msg.sender_generated = r.get<std::uint64_t>();
  msg.sender_received = r.get<std::uint64_t>();
  msg.op = decode_op(r);
  if (r.failed()) return;

  ot_.receive(site, msg, fanout_);
  for (const auto& o : fanout_) {
    auto addr = client_addrs_.find(o.to);
    if (addr == client_addrs_.end()) continue;
    // Relay with the ORIGINAL timestamp so receivers measure end-to-end
    // notification time, not just the server->client hop.
    channel_.send(addr->second,
                  encode_op_message(o.message, site, originated_at));
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
  util::Writer w;
  w.put(kRegister).put(ot_.site());
  channel_.send(server_, w.take_buf());
}

void EditorClient::ship(const ccontrol::OtLink::Message& msg) {
  channel_.send(server_, encode_op_message(msg, ot_.site(),
                                           net_.simulator().now()));
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
  util::Reader r(payload);
  const auto type = r.get<std::uint8_t>();
  if (type == kSnapshot) {
    std::string doc = r.get_string();
    // Adopt the server state only while we have no concurrent local
    // edits in flight — otherwise the snapshot would clobber them (the
    // normal case: connect() completes before editing starts).
    if (!r.failed() && ot_.in_flight() == 0) {
      ot_ = ccontrol::OtClient(ot_.site(), std::move(doc));
      connected_ = true;
      if (on_connected_) on_connected_();
    }
    return;
  }
  if (type != kOp) return;
  r.get<ccontrol::SiteId>();  // originating site (informational)
  const auto originated_at = r.get<sim::TimePoint>();
  ccontrol::OtLink::Message msg;
  msg.sender_generated = r.get<std::uint64_t>();
  msg.sender_received = r.get<std::uint64_t>();
  msg.op = decode_op(r);
  if (r.failed()) return;
  ot_.receive(msg);
  const sim::Duration notif = net_.simulator().now() - originated_at;
  notification_.add(static_cast<double>(notif));
  if (on_remote_) on_remote_(msg.op, notif);
}

}  // namespace coop::groupware
