// awareness::IdIndex — ClientId -> dense vector index, open addressing.
//
// The awareness engine keeps its observers in one dense vector and finds
// them through this table.  A slot is an (id, index) pair; slots sit in a
// power-of-two array probed linearly from the top bits of a
// multiplicative hash of the full 32-bit id, so a lookup usually reads
// one cache line where a node-based hash map read a bucket and then a
// node.  Erase shifts the rest of the probe run back over the hole (no
// tombstones), so probe lengths depend only on the live ids.  The table
// doubles above 1/2 load and halves below 1/8.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "ccontrol/locks.hpp"  // ClientId

namespace coop::awareness {

class IdIndex {
 public:
  using ClientId = ccontrol::ClientId;

  /// find()'s answer for an absent id; never a stored index.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// Fibonacci hashing: an id's home slot is the top log2(capacity) bits.
  [[nodiscard]] static constexpr std::uint32_t hash(ClientId id) noexcept {
    return id * 0x9E3779B9u;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

  /// The index stored for @p id, or kNone.
  [[nodiscard]] std::uint32_t find(ClientId id) const noexcept {
    return slots_.empty() ? kNone : slots_[probe(id)].index;
  }

  /// Maps @p id, which must be absent, to @p index.
  void insert(ClientId id, std::uint32_t index) {
    if ((size_ + 1) * 2 > slots_.size())
      rehash(std::max(kMinCapacity, slots_.size() * 2));
    slots_[probe(id)] = Slot{id, index};
    ++size_;
  }

  /// Points @p id, which must be present, at @p index.
  void reassign(ClientId id, std::uint32_t index) noexcept {
    slots_[locate(id)].index = index;
  }

  /// Removes @p id, which must be present.
  void erase(ClientId id) {
    std::size_t hole = locate(id);
    // Backward shift: an entry further along the run moves into the hole
    // unless the hole lies before its home slot (cyclically).
    for (std::size_t i = next(hole); slots_[i].index != kNone; i = next(i)) {
      const std::size_t from_home = (i - home(slots_[i].id)) & mask();
      if (from_home >= ((i - hole) & mask())) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].index = kNone;
    --size_;
    if (size_ * 8 < slots_.size() && slots_.size() > kMinCapacity)
      rehash(slots_.size() / 2);
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    ClientId id = 0;
    std::uint32_t index = kNone;
  };

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & mask();
  }
  [[nodiscard]] std::size_t home(ClientId id) const noexcept {
    return hash(id) >> shift_;
  }

  /// The slot holding @p id, or the empty slot that ends its probe run.
  /// Always terminates: the load stays at or below 1/2.
  [[nodiscard]] std::size_t probe(ClientId id) const noexcept {
    std::size_t i = home(id);
    while (slots_[i].index != kNone && slots_[i].id != id) i = next(i);
    return i;
  }

  /// The slot holding @p id, which must be present.
  [[nodiscard]] std::size_t locate(ClientId id) const noexcept {
    assert(!slots_.empty());
    const std::size_t i = probe(id);
    assert(slots_[i].index != kNone);
    return i;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    shift_ = 32 - std::countr_zero(capacity);
    for (const Slot& s : old)
      if (s.index != kNone) slots_[probe(s.id)] = s;
  }

  std::vector<Slot> slots_;
  int shift_ = 32;
  std::size_t size_ = 0;
};

}  // namespace coop::awareness
