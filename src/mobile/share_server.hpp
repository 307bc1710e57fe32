// The fixed-network side of disconnected operation: a versioned shared
// store exported over RPC, with hoard (batch fetch) and bulk-reintegration
// (batch conditional write) operations.
//
// §4.2.2 mobility: "new techniques will be required, for example, to cache
// significant portions of the data on the mobile computer.  Care must also
// be taken to maintain consistency if data is shared across several
// mobiles" and "services will take advantage of higher levels of
// connection to perform bulk updates, e.g. of cached data."
//
// Methods, with the wire bodies declared below:
//   read  (key)         -> KeyState
//   write (WriteReq)    -> version
//   hoard ([key])       -> [HoardEntry]
//   bulk  ([BulkWrite]) -> [BulkResult]
//
// A bulk entry applies only if its base version still matches the server's
// current version for the key (first-writer-wins conflict detection, as in
// Coda's reintegration).
#pragma once

#include <cstdint>
#include <string>

#include "ccontrol/store.hpp"
#include "rpc/rpc.hpp"
#include "util/codec.hpp"

namespace coop::mobile {

/// A key's state at the server, as a host also caches it.
struct KeyState {
  bool present = false;  ///< the server had the key
  std::string value;
  std::uint64_t version = 0;
  COOP_FIELDS(present, value, version)
};

struct HoardEntry {
  std::string key;
  KeyState state;
  COOP_FIELDS(key, state)
};

struct WriteReq {
  std::string key;
  std::string value;
  COOP_FIELDS(key, value)
};

/// A write logged while disconnected.
struct BulkWrite {
  std::string key;
  std::string value;
  std::uint64_t base_version = 0;
  COOP_FIELDS(key, value, base_version)
};

/// The result of one reintegration entry.
struct BulkResult {
  std::string key;
  bool applied = false;
  std::uint64_t version = 0;    ///< new version if applied, else current
  std::string server_value;     ///< present on conflict (for resolution)
  COOP_FIELDS(key, applied, version, server_value)
};

/// Hosts the store and its RPC surface.
class ShareServer {
 public:
  ShareServer(net::Network& net, net::Address self);

  [[nodiscard]] net::Address address() const noexcept {
    return server_.address();
  }
  [[nodiscard]] ccontrol::ObjectStore& store() noexcept { return store_; }
  [[nodiscard]] const ccontrol::ObjectStore& store() const noexcept {
    return store_;
  }

  [[nodiscard]] std::uint64_t bulk_conflicts() const noexcept {
    return bulk_conflicts_;
  }

 private:
  [[nodiscard]] KeyState state(const std::string& key) const;
  rpc::HandlerResult handle_read(const std::string& body);
  rpc::HandlerResult handle_write(const std::string& body);
  rpc::HandlerResult handle_hoard(const std::string& body);
  rpc::HandlerResult handle_bulk(const std::string& body);

  rpc::RpcServer server_;
  ccontrol::ObjectStore store_;
  std::uint64_t bulk_conflicts_ = 0;
};

}  // namespace coop::mobile
