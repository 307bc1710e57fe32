// The mobile host: Coda-style disconnected operation over the coop share
// server (§3.3.3, §4.2.2).
//
// Connected   — reads/writes go to the server; reads refresh the cache.
// Partial     — same protocol over the radio link (the network model
//               applies radio bandwidth/loss); the host may prefer the
//               cache for reads to save bandwidth (configurable).
// Disconnected— reads are served from the hoarded cache (miss = failure);
//               writes append to the operation log with the cached base
//               version.
//
// On reconnection, reintegrate() ships the whole log in one *bulk* RPC
// (the paper's "bulk updates" on regaining connectivity).  Entries whose
// base version no longer matches the server are conflicts, surfaced
// through the resolution policy: server-wins discards the local change,
// client-wins force-writes it, manual hands it to a callback.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mobile/share_server.hpp"
#include "net/network.hpp"
#include "rpc/rpc.hpp"
#include "util/stats.hpp"

namespace coop::mobile {

/// How reintegration conflicts are resolved.
enum class ConflictPolicy : std::uint8_t {
  kServerWins,  ///< drop the local change, adopt the server value
  kClientWins,  ///< force-write the local value over the server's
  kManual,      ///< surface to on_conflict; cache keeps the server value
};

/// A surfaced conflict (kManual, and informational for the others).
struct Conflict {
  std::string key;
  std::string local_value;
  std::string server_value;
};

struct MobileStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;      ///< disconnected reads that failed
  std::uint64_t remote_reads = 0;
  std::uint64_t remote_writes = 0;
  std::uint64_t logged_writes = 0;     ///< writes deferred while away
  std::uint64_t reintegrated = 0;      ///< log entries applied at server
  std::uint64_t conflicts = 0;
  std::uint64_t hoarded = 0;           ///< keys fetched by hoard walks
};

/// The mobile client node.
class MobileHost {
 public:
  MobileHost(net::Network& net, net::Address self, net::Address server,
             ConflictPolicy policy = ConflictPolicy::kServerWins);

  MobileHost(const MobileHost&) = delete;
  MobileHost& operator=(const MobileHost&) = delete;

  // --- connectivity ---------------------------------------------------------

  /// Changes this host's connectivity level; also updates the network
  /// model so in-flight traffic behaves accordingly.
  void set_connectivity(net::Connectivity level);

  /// RPC budget for server interactions.  Radio links need far larger
  /// timeouts than the defaults — a bulk reintegration of a long log can
  /// take seconds of serialization alone at 19.2 kbps.
  void set_call_options(const rpc::CallOptions& opts) { call_opts_ = opts; }
  [[nodiscard]] net::Connectivity connectivity() const noexcept {
    return level_;
  }

  // --- hoarding --------------------------------------------------------------

  /// Declares keys worth caching for disconnected use (the hoard
  /// profile), then fetches them.  @p done fires with the number fetched.
  void hoard(const std::vector<std::string>& keys,
             std::function<void(std::size_t)> done);

  // --- data operations --------------------------------------------------------

  using ReadFn = std::function<void(bool ok, std::optional<std::string>)>;
  using WriteFn = std::function<void(bool ok)>;

  /// Reads @p key: from the server when connected (refreshing the
  /// cache), from the cache when disconnected.
  void read(const std::string& key, ReadFn done);

  /// Writes @p key: to the server when connected, to the log otherwise.
  /// A logged write also updates the local cache so later local reads
  /// see it (read-your-writes while disconnected).
  void write(const std::string& key, std::string value, WriteFn done);

  // --- reintegration -----------------------------------------------------------

  /// Ships the operation log as one bulk RPC.  @p done receives the
  /// number of applied entries and the conflicts encountered.
  void reintegrate(
      std::function<void(std::size_t applied,
                         const std::vector<Conflict>& conflicts)>
          done);

  /// kManual conflicts land here as they are discovered.
  void on_conflict(std::function<void(const Conflict&)> fn) {
    on_conflict_ = std::move(fn);
  }

  [[nodiscard]] std::size_t log_size() const noexcept { return log_.size(); }
  [[nodiscard]] std::size_t cache_size() const noexcept {
    return cache_.size();
  }
  [[nodiscard]] const MobileStats& stats() const noexcept { return stats_; }

 private:
  void force_write(const std::string& key, const std::string& value);

  net::Network& net_;
  net::Address self_;
  net::Address server_;
  ConflictPolicy policy_;
  net::Connectivity level_ = net::Connectivity::kFull;
  rpc::CallOptions call_opts_ = {.timeout = sim::sec(2), .retries = 4,
                                 .backoff = 2.0};
  rpc::RpcClient rpc_;
  std::map<std::string, KeyState> cache_;
  std::vector<BulkWrite> log_;  ///< writes made while disconnected
  std::function<void(const Conflict&)> on_conflict_;
  MobileStats stats_;
};

}  // namespace coop::mobile
