// util::FlatIndex — integer key -> dense vector index, open addressing.
//
// Hot lookups (the awareness engine's observers, the network's endpoints
// and routes, a FIFO channel's peers) keep their records in one dense
// vector and find them through this table.  A slot is a (key, index)
// pair; slots sit in a power-of-two array probed linearly from the top
// bits of a multiplicative (Fibonacci) hash of the full key, so a lookup
// usually reads one cache line where a node-based map read a bucket and
// then a node.  Erase shifts the rest of the probe run back over the hole
// (no tombstones), so probe lengths depend only on the live keys.  The
// table doubles above 1/2 load and halves below 1/8.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace coop::util {

template <std::unsigned_integral Key>
  requires(sizeof(Key) == 4 || sizeof(Key) == 8)
class FlatIndex {
 public:
  /// find()'s answer for an absent key; never a stored index.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// Fibonacci hashing: a key's home slot is the top log2(capacity) bits.
  [[nodiscard]] static constexpr Key hash(Key key) noexcept {
    if constexpr (sizeof(Key) == 8)
      return key * 0x9E3779B97F4A7C15ull;
    else
      return key * 0x9E3779B9u;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

  /// The index stored for @p key, or kNone.
  [[nodiscard]] std::uint32_t find(Key key) const noexcept {
    return slots_.empty() ? kNone : slots_[probe(key)].index;
  }

  /// Maps @p key, which must be absent, to @p index.
  void insert(Key key, std::uint32_t index) {
    if ((size_ + 1) * 2 > slots_.size())
      rehash(std::max(kMinCapacity, slots_.size() * 2));
    slots_[probe(key)] = Slot{key, index};
    ++size_;
  }

  /// Points @p key, which must be present, at @p index.
  void reassign(Key key, std::uint32_t index) noexcept {
    slots_[locate(key)].index = index;
  }

  /// Removes @p key, which must be present.
  void erase(Key key) {
    std::size_t hole = locate(key);
    // Backward shift: an entry further along the run moves into the hole
    // unless the hole lies before its home slot (cyclically).
    for (std::size_t i = next(hole); slots_[i].index != kNone; i = next(i)) {
      const std::size_t from_home = (i - home(slots_[i].key)) & mask();
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
  static constexpr int kBits = static_cast<int>(sizeof(Key)) * 8;

  struct Slot {
    Key key = 0;
    std::uint32_t index = kNone;
  };

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & mask();
  }
  [[nodiscard]] std::size_t home(Key key) const noexcept {
    return static_cast<std::size_t>(hash(key) >> shift_);
  }

  /// The slot holding @p key, or the empty slot that ends its probe run.
  /// Always terminates: the load stays at or below 1/2.
  [[nodiscard]] std::size_t probe(Key key) const noexcept {
    std::size_t i = home(key);
    while (slots_[i].index != kNone && slots_[i].key != key) i = next(i);
    return i;
  }

  /// The slot holding @p key, which must be present.
  [[nodiscard]] std::size_t locate(Key key) const noexcept {
    assert(!slots_.empty());
    const std::size_t i = probe(key);
    assert(slots_[i].index != kNone);
    return i;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    shift_ = kBits - std::countr_zero(capacity);
    for (const Slot& s : old)
      if (s.index != kNone) slots_[probe(s.key)] = s;
  }

  std::vector<Slot> slots_;
  int shift_ = kBits;
  std::size_t size_ = 0;
};

}  // namespace coop::util
