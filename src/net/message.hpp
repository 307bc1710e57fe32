// Wire-level message and addressing types for the simulated network.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "obs/causal.hpp"
#include "sim/time.hpp"
#include "util/buf.hpp"
#include "util/codec.hpp"

namespace coop::net {

/// Identifies a simulated host.
using NodeId = std::uint32_t;

/// Identifies a service endpoint within a host (like a UDP port).
using PortId = std::uint16_t;

/// A multicast group address (distinct namespace from unicast nodes).
using McastId = std::uint32_t;

/// Three-level message priority for the overload control plane.  Under
/// saturation the platform sheds lowest-priority-first: awareness and
/// media traffic is "supporting" load that must yield to the cooperative
/// operations a session cannot function without (floor changes, shared-
/// document updates) — the graceful-degradation stance of §4.2.2.
enum class Priority : std::uint8_t {
  kCore = 0,        ///< shared-document updates, floor-critical RPCs
  kControl = 1,     ///< floor control, membership, negotiations
  kBackground = 2,  ///< awareness events, media frames, snapshots
};

inline constexpr std::size_t kPriorityCount = 3;

/// Stable short name used in metrics/traces ("core", "control",
/// "background").
[[nodiscard]] constexpr const char* priority_name(Priority p) noexcept {
  switch (p) {
    case Priority::kCore:
      return "core";
    case Priority::kControl:
      return "control";
    case Priority::kBackground:
      return "background";
  }
  return "?";
}

/// Full endpoint address: host + port.
struct Address {
  NodeId node = 0;
  PortId port = 0;
  COOP_FIELDS(node, port)

  bool operator==(const Address&) const = default;
  auto operator<=>(const Address&) const = default;
};

/// All 48 address bits in one integer: the key util::FlatIndex tables
/// find endpoints and peers by.
[[nodiscard]] constexpr std::uint64_t address_key(const Address& a) noexcept {
  return (static_cast<std::uint64_t>(a.node) << 16) | a.port;
}

/// Frame checksum over a payload, one 8-byte word per step: a 64-bit
/// state seeded with the length, `h = (h ^ word) * odd` for each
/// little-endian word, the tail zero-padded to a last word.  With the word
/// fixed a step is a bijection in h (odd multipliers are invertible mod
/// 2^64), and with h fixed it is a bijection in the word, so a corruption
/// confined to one word — every single-byte flip the fault plane injects
/// among them — always changes the result.  The length seed separates
/// payloads that differ only by trailing zero bytes.  Deterministic and
/// platform-stable; an integrity check, not cryptography.  Never persisted
/// (the WAL keeps util::fnv1a32), so it may change between versions.
[[nodiscard]] inline std::uint64_t frame_checksum(
    std::string_view payload) noexcept {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;  // odd
  const char* p = payload.data();
  std::size_t n = payload.size();
  std::uint64_t h = n;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    if constexpr (std::endian::native == std::endian::big)
      w = __builtin_bswap64(w);
    h = (h ^ w) * kMul;
  }
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < n; ++i)
    tail |= std::uint64_t{static_cast<std::uint8_t>(p[i])} << (8 * i);
  return (h ^ tail) * kMul;
}

/// One datagram in flight.  `payload` carries the application encoding
/// (util::Writer output); `wire_size` is what the link-bandwidth model
/// charges, normally payload size plus a fixed header.
///
/// The payload is a ref-counted immutable util::Buf: copying a Message
/// (multicast fan-out, retransmit backlogs, replay caches) shares one
/// payload allocation instead of deep-copying the bytes.  Buf converts
/// implicitly from std::string/string_view and to string_view, so
/// existing encode/decode call sites read the same.
struct Message {
  Address src;
  Address dst;
  util::Buf payload;
  std::size_t wire_size = 0;
  std::uint64_t id = 0;              ///< unique per network, for tracing
  sim::TimePoint sent_at = 0;        ///< stamped by Network::send
  bool multicast = false;            ///< delivered via a multicast group
  McastId group = 0;                 ///< valid when multicast
  /// Frame checksum stamped by Network::send/multicast before any fault
  /// injection can touch the payload, and verified at arrival: a frame
  /// whose payload no longer matches is counted in `net.dropped_corrupt`
  /// and dropped — corrupt bytes never reach an Endpoint (and so are
  /// never parsed by util::Reader).  Part of the simulated 32-byte
  /// header, not charged separately to wire_size.
  std::uint64_t checksum = 0;
  /// Absolute deadline (virtual time) after which this work is worthless,
  /// 0 = none.  Stamped by the sending protocol layer next to the causal
  /// context and carried as part of the simulated header: servers and the
  /// total-order sequencer drop already-expired work on dequeue instead of
  /// burning service time on it (counted in `rpc.expired_drops`).
  sim::TimePoint deadline = 0;
  /// Scheduling class of this datagram's work (see Priority).  Admission
  /// control sheds lowest-priority-first at its watermarks.
  Priority priority = Priority::kCore;
  /// Causal-trace header (simulated; not charged to wire_size).  Set by
  /// the sending protocol layer; the network derives per-hop children, so
  /// the context an Endpoint sees identifies the *delivery*, with the
  /// sender's span as its ancestor.
  obs::CausalContext ctx{};

  /// Simulated UDP/IP-style header overhead charged per datagram.
  static constexpr std::size_t kHeaderBytes = 32;
};

/// Receives datagrams delivered by the network.  Implemented by every
/// protocol entity (RPC endpoints, group members, stream sinks...).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Called at the simulated arrival time of the message.
  virtual void on_message(const Message& msg) = 0;
};

}  // namespace coop::net
