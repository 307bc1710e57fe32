// ODP trading function: service export / import by type and properties.
//
// The trader is the ODP name service through which objects discover each
// other — a session server exports "session.whiteboard" with properties
// like {"room": "ops"}, and a joining member imports by type (optionally
// constrained on properties) to obtain provider addresses.  Built on the
// coop RPC layer, so discovery traffic shares the simulated network with
// everything else.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rpc/rpc.hpp"
#include "util/codec.hpp"

namespace coop::rpc {

/// One exported service offer (the "export" request body; the "import"
/// reply is a vector of them).
struct Offer {
  std::string service_type;
  net::Address provider;
  std::map<std::string, std::string> properties;
  COOP_FIELDS(service_type, provider, properties)

  [[nodiscard]] bool matches(
      const std::map<std::string, std::string>& constraints) const {
    for (const auto& [k, v] : constraints) {
      auto it = properties.find(k);
      if (it == properties.end() || it->second != v) return false;
    }
    return true;
  }
};

/// The "import" request body.
struct ImportQuery {
  std::string service_type;
  std::map<std::string, std::string> constraints;
  COOP_FIELDS(service_type, constraints)
};

/// Server half: hosts the offer database.  Methods: "export", "withdraw",
/// "import".
class Trader {
 public:
  Trader(net::Network& net, net::Address self);

  [[nodiscard]] net::Address address() const noexcept {
    return server_.address();
  }
  [[nodiscard]] std::size_t offer_count() const noexcept {
    return offers_.size();
  }

 private:
  HandlerResult handle_export(const std::string& body);
  HandlerResult handle_withdraw(const std::string& body);
  HandlerResult handle_import(const std::string& body);

  RpcServer server_;
  std::vector<Offer> offers_;
  std::uint64_t next_offer_id_ = 1;
  std::map<std::uint64_t, std::size_t> offer_index_;  // id -> offers_ slot
};

/// Client half: typed wrappers over the trader's RPC methods.
class TraderClient {
 public:
  TraderClient(RpcClient& rpc, net::Address trader)
      : rpc_(rpc), trader_(trader) {}

  /// Exports an offer; @p done receives the offer id (0 on failure).
  void export_offer(const Offer& offer,
                    std::function<void(std::uint64_t)> done);

  /// Withdraws a previously exported offer.
  void withdraw(std::uint64_t offer_id, std::function<void(bool)> done);

  /// Imports all offers of @p service_type matching @p constraints.
  void import(const std::string& service_type,
              const std::map<std::string, std::string>& constraints,
              std::function<void(std::vector<Offer>)> done);

 private:
  RpcClient& rpc_;
  net::Address trader_;
};

}  // namespace coop::rpc
