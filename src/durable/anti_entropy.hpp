// Anti-entropy catch-up between DurableStore replicas.
//
// A replica that sat out a partition (or lost its unsynced tail to a
// crash) converges by *pulling*: it sends a compact summary of its known
// per-key versions — the version vector of its live items and tombstones —
// and the responder answers with exactly the entries that dominate it
// (last-writer-wins on the absolute per-key version).  No full state
// transfer: the reply is proportional to the divergence, not to the store.
//
// Deletions travel as tombstone entries, so "deleted at version v"
// propagates and a stale peer cannot resurrect an erased key — the reason
// ObjectStore::erase leaves tombstones at all.  Adopted entries are
// written through the requester's WAL (apply_remote_*), making caught-up
// state exactly as durable as locally-originated writes.
//
// Topology: each replica runs one AntiEntropy puller per peer on a
// periodic timer (background priority — catch-up traffic must never
// starve core operations), and serves "ae.pull" via serve().  Pull-based
// symmetry means bidirectional convergence needs no coordination: each
// side independently fetches what it is missing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "durable/store.hpp"
#include "rpc/rpc.hpp"

namespace coop::durable {

/// A summary (the request of "ae.pull") is a std::vector of these: every
/// live, then every tombstoned key, with its known version.
struct AeSummaryEntry {
  std::string_view key;
  std::uint64_t version = 0;
  COOP_FIELDS(key, version)
};

/// A pull reply is a std::vector of these: each entry that dominates the
/// summary, a put or (with an empty value) an erase.
struct AeEntry {
  WalRecord::Type type = WalRecord::kPut;
  std::string_view key;
  std::string value;
  std::uint64_t version = 0;
  std::uint64_t stamp = 0;
  COOP_FIELDS(type, key, value, version, stamp)
};

struct AeConfig {
  std::string name = "store";  ///< metrics key component: durable.<name>.*
  sim::Duration period = sim::msec(250);  ///< pull interval (0 = manual)
  /// Per-pull call options.  Background priority by default: under
  /// admission control, catch-up is the first traffic to shed.
  rpc::CallOptions call{sim::msec(100), 1, 2.0, 0, net::Priority::kBackground};
};

/// One replica's periodic puller toward one peer.
class AntiEntropy {
 public:
  /// Registers the "ae.pull" responder for @p store on @p server.  The
  /// handler's lifetime is the server's; tear both down together at crash.
  static void serve(rpc::RpcServer& server, DurableStore& store);

  /// @p self is this puller's client address; @p peer the replica served
  /// by serve().  A positive cfg.period starts the periodic pull loop
  /// immediately; pull_now() works either way.
  AntiEntropy(net::Network& net, net::Address self, net::Address peer,
              DurableStore& store, AeConfig cfg);
  ~AntiEntropy();

  AntiEntropy(const AntiEntropy&) = delete;
  AntiEntropy& operator=(const AntiEntropy&) = delete;

  /// Issues one pull round unless one is already in flight.
  void pull_now();

  /// Stops the periodic loop (the in-flight round, if any, completes).
  void stop();

  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t keys_pulled() const noexcept {
    return keys_pulled_;
  }

  // --- wire codecs (shared by serve() and the unit tests) ------------------

  /// Version-vector summary of @p store: every live and tombstoned key
  /// with its known version.
  static std::string encode_summary(const DurableStore& store);

  /// Entries of @p store that dominate @p summary (absent key = version 0).
  static std::string make_reply(const DurableStore& store,
                                const std::string& summary);

  /// Adopts @p reply entries into @p store via apply_remote_*; returns
  /// how many were adopted (LWW may reject entries that raced with newer
  /// local writes).
  static std::uint64_t apply_reply(DurableStore& store,
                                   const std::string& reply);

 private:
  void arm_timer();
  void on_reply(const rpc::RpcResult& result);

  sim::Simulator& sim_;
  obs::Obs& obs_;
  DurableStore& store_;
  AeConfig cfg_;
  net::Address peer_;
  rpc::RpcClient client_;
  sim::EventId timer_ = sim::kInvalidEvent;
  bool in_flight_ = false;
  bool stopped_ = false;
  std::uint64_t rounds_ = 0;
  std::uint64_t keys_pulled_ = 0;
  // Registry-owned "durable.<name>.*" counters.
  util::Counter* rounds_metric_;
  util::Counter* pulled_metric_;
};

}  // namespace coop::durable
