// The shared text editor: GROVE-style real-time group editing, wired
// end-to-end — OT engine (ccontrol/ot.hpp) over reliable FIFO channels on
// the simulated network.
//
// Local edits apply immediately (response time ≈ 0, the OT selling point
// of §4.2.1); remote edits arrive transformed and carry the originating
// timestamp so notification time is measured directly (Ellis's second
// real-time requirement).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ccontrol/ot.hpp"
#include "net/fifo_channel.hpp"
#include "net/network.hpp"
#include "util/codec.hpp"
#include "util/stats.hpp"

namespace coop::groupware {

/// Editor wire formats, carried over FIFO channels: every frame starts
/// with its EditorMsg byte.
enum class EditorMsg : std::uint8_t { kRegister = 1, kOp = 2, kSnapshot = 3 };
COOP_ENUM_RANGE(EditorMsg, kRegister, kSnapshot)

/// Client -> server: announces the client's site.
struct RegisterMsg {
  EditorMsg type = EditorMsg::kRegister;
  ccontrol::SiteId site = 0;
  COOP_FIELDS(type, site)
};

/// An operation on one Jupiter link, both ways.
struct OpMsg {
  EditorMsg type = EditorMsg::kOp;
  ccontrol::SiteId site = 0;           ///< originating site
  sim::TimePoint originated_at = 0;    ///< the originating site's send time
  ccontrol::OtLink::Message link;
  COOP_FIELDS(type, site, originated_at, link)
};

/// Server -> client, in answer to kRegister: the current document.
struct SnapshotMsg {
  EditorMsg type = EditorMsg::kSnapshot;
  std::string_view doc;
  COOP_FIELDS(type, doc)
};

/// Hosts the authoritative OT replica and relays transformed operations.
class EditorServer {
 public:
  EditorServer(net::Network& net, net::Address self,
               std::string initial = {});

  /// Server's view of the document (converged state).
  [[nodiscard]] const std::string& doc() const { return ot_.doc(); }
  [[nodiscard]] net::Address address() const { return channel_.self(); }
  [[nodiscard]] std::size_t client_count() const {
    return ot_.client_count();
  }

 private:
  void handle(const net::Address& from, std::string_view payload);

  net::Network& net_;
  net::FifoChannel channel_;
  ccontrol::OtServer ot_;
  std::map<ccontrol::SiteId, net::Address> client_addrs_;
  std::vector<ccontrol::OtServer::Outgoing> fanout_;  ///< reused per op
};

/// A participant's replica.
class EditorClient {
 public:
  EditorClient(net::Network& net, net::Address self, net::Address server,
               ccontrol::SiteId site, std::string initial = {});

  /// Announces this client to the server (must precede edits).  The
  /// server answers with a state snapshot; editing before connected()
  /// turns true risks losing remote operations that predate the
  /// registration.
  void connect();

  /// True once the server's join snapshot has been installed.
  [[nodiscard]] bool connected() const noexcept { return connected_; }

  /// Local edits: applied instantly, shipped asynchronously.
  void insert(std::size_t pos, std::string text);
  void erase(std::size_t pos, std::size_t len = 1);

  [[nodiscard]] const std::string& doc() const { return ot_.doc(); }
  [[nodiscard]] ccontrol::SiteId site() const { return ot_.site(); }

  /// Fired when a remote operation lands, with the notification time
  /// (originating site's send time -> local apply, virtual µs).
  void on_remote_change(
      std::function<void(const ccontrol::TextOp&, sim::Duration)> fn) {
    on_remote_ = std::move(fn);
  }

  /// Notification-time distribution across all remote ops received.
  [[nodiscard]] const util::Summary& notification_time() const {
    return notification_;
  }

 private:
  void handle(const net::Address& from, std::string_view payload);
  void ship(ccontrol::OtLink::Message msg);

  net::Network& net_;
  net::Address server_;
  net::FifoChannel channel_;
  ccontrol::OtClient ot_;
  bool connected_ = false;
  std::function<void(const ccontrol::TextOp&, sim::Duration)> on_remote_;
  util::Summary notification_;
};

}  // namespace coop::groupware
