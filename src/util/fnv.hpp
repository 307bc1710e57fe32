// util::fnv1a32 — the 32-bit FNV-1a hash, for persisted and pinned values.
//
// The write-ahead log's record header and the checkpoint seal store this
// hash on the medium, and the T1 outcome hash folds it in, so its values
// are a format: they must never change.  It is byte-serial and so slower
// than the NIC's frame checksum (net::frame_checksum), which is free to
// change because it never leaves a simulated header.
#pragma once

#include <cstdint>
#include <string_view>

namespace coop::util {

/// FNV-1a, 32-bit (offset basis 0x811c9dc5, prime 0x01000193).
/// Deterministic and platform-stable; an integrity check, not
/// cryptography.  Each step is a bijection in the state, so any single
/// changed byte always changes the result.
[[nodiscard]] constexpr std::uint32_t fnv1a32(
    std::string_view bytes) noexcept {
  std::uint32_t h = 0x811c9dc5u;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x01000193u;
  }
  return h;
}

}  // namespace coop::util
