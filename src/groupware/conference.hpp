// Collaboration-transparent desktop conferencing (§3.2.2): an unmodified
// single-user application shared by a group.
//
// "As the application is unaware of the presence of more than one user,
// it is necessary to multicast display output and multidrop user input so
// that the application deals with a single stream of output and input
// events.  To avoid confusion, users must take turns in interacting with
// the application; this is achieved by adopting an appropriate floor
// control policy."  (Rapport / SharedX / MMConf.)
//
// The ConferenceServer hosts the SharedApp and the floor; clients send
// input (accepted only from the floor holder — the multidrop filter) and
// receive display updates.  Any ccontrol::FloorPolicy can arbitrate.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "ccontrol/floor.hpp"
#include "net/fifo_channel.hpp"
#include "net/network.hpp"

namespace coop::groupware {

using ClientId = ccontrol::ClientId;

/// The single-user application being shared; it knows nothing about the
/// conference (collaboration transparency).
class SharedApp {
 public:
  virtual ~SharedApp() = default;
  /// Processes one input event; returns the new display content.
  virtual std::string process(const std::string& input) = 0;
  [[nodiscard]] virtual const std::string& display() const = 0;
};

/// A trivial terminal-like app for tests and examples: inputs append
/// lines to the display.
class TerminalApp final : public SharedApp {
 public:
  std::string process(const std::string& input) override {
    if (!display_.empty()) display_ += '\n';
    display_ += input;
    return display_;
  }
  [[nodiscard]] const std::string& display() const override {
    return display_;
  }

 private:
  std::string display_;
};

struct ConferenceStats {
  std::uint64_t inputs_accepted = 0;
  std::uint64_t inputs_rejected = 0;  ///< sent without holding the floor
  std::uint64_t display_updates = 0;
};

/// Hosts the shared application and the floor.
///
/// Transport: all conference traffic rides reliable FIFO channels, so a
/// lost join/request/release datagram delays (never wedges) the session.
/// Display and floor state are additionally *soft state*: the server
/// re-broadcasts them at @p refresh_period, so even a member whose
/// channel is catching up converges.  NOTE: the refresh timer runs for
/// the server's lifetime — drive simulations containing a conference
/// with run_until(), not run().
class ConferenceServer {
 public:
  ConferenceServer(net::Network& net, net::Address self,
                   std::unique_ptr<SharedApp> app,
                   ccontrol::FloorConfig floor_config = {},
                   sim::Duration refresh_period = sim::sec(1));
  ~ConferenceServer();

  ConferenceServer(const ConferenceServer&) = delete;
  ConferenceServer& operator=(const ConferenceServer&) = delete;

  [[nodiscard]] const SharedApp& app() const { return *app_; }
  [[nodiscard]] ccontrol::FloorControl& floor() { return floor_; }
  [[nodiscard]] const ConferenceStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }

 private:
  void handle(const net::Address& from, std::string_view payload);
  void broadcast_display();
  void broadcast_floor();

  net::Network& net_;
  net::FifoChannel channel_;
  std::unique_ptr<SharedApp> app_;
  ccontrol::FloorControl floor_;
  std::map<ClientId, net::Address> members_;
  sim::PeriodicTimer refresh_;
  ConferenceStats stats_;
};

/// One participant.
class ConferenceClient {
 public:
  ConferenceClient(net::Network& net, net::Address self,
                   net::Address server, ClientId id);

  ConferenceClient(const ConferenceClient&) = delete;
  ConferenceClient& operator=(const ConferenceClient&) = delete;

  void join();
  /// Sends an input event; silently dropped by the server unless this
  /// client holds the floor.
  void send_input(const std::string& input);
  void request_floor();
  void release_floor();

  [[nodiscard]] const std::string& display() const { return display_; }
  [[nodiscard]] bool has_floor() const { return floor_holder_ == id_; }
  [[nodiscard]] std::optional<ClientId> floor_holder() const {
    return floor_holder_;
  }

  void on_display(std::function<void(const std::string&)> fn) {
    on_display_ = std::move(fn);
  }

 private:
  void handle(std::string_view payload);
  void send_simple(std::uint8_t type);

  net::FifoChannel channel_;
  net::Address server_;
  ClientId id_;
  std::string display_;
  std::optional<ClientId> floor_holder_;
  std::function<void(const std::string&)> on_display_;
};

}  // namespace coop::groupware
