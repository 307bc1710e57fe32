// util::SeqRing — payload buffers indexed by sequence number, stored in a
// power-of-two circular array at offset `seq - base()`.
//
// Reliable streams keep two tables keyed by sequence number: the sender's
// unacknowledged frames and the receiver's out-of-order hold-back.  Both
// only ever hold numbers in a short window just above a cursor (the oldest
// unacked frame, the next expected delivery), and both only ever advance
// that cursor from the front.  A std::map spent one heap node per entry on
// that; SeqRing keeps the window in a flat array that grows to the widest
// window seen and is then reused, so steady-state traffic touches no heap.
//
// A slot holds a util::Buf by reference count; an empty Buf marks a vacant
// slot, so only non-empty buffers may be stored.  The ring grows to cover
// any offset it is asked to store — callers bound the window (FifoChannel
// sends arrivals beyond it to a sparse map instead).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/buf.hpp"

namespace coop::util {

class SeqRing {
 public:
  /// Sequence number of the front slot.
  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  /// Number of occupied slots.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// One past the offset of the last occupied slot (0 when empty).
  [[nodiscard]] std::size_t span() const noexcept { return span_; }

  /// Stores @p b at @p seq (which must be >= base()), growing the ring to
  /// cover it.  Returns false, storing nothing, if the slot is occupied.
  bool insert(std::uint64_t seq, Buf b) {
    assert(seq >= base_ && !b.empty());
    const std::uint64_t offset = seq - base_;
    if (offset >= slots_.size()) grow(offset);
    Buf& slot = at(static_cast<std::size_t>(offset));
    if (!slot.empty()) return false;
    slot = std::move(b);
    ++size_;
    span_ = std::max(span_, static_cast<std::size_t>(offset) + 1);
    return true;
  }

  /// The buffer stored at @p seq, or nullptr if that slot is vacant or
  /// outside the ring.
  [[nodiscard]] Buf* find(std::uint64_t seq) noexcept {
    if (seq < base_ || seq - base_ >= span_) return nullptr;
    Buf& slot = at(static_cast<std::size_t>(seq - base_));
    return slot.empty() ? nullptr : &slot;
  }

  /// Removes the front slot and advances base() by one; returns what the
  /// slot held (an empty Buf if it was vacant).
  Buf pop_front() {
    ++base_;
    if (span_ == 0) return {};
    Buf out = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --span_;
    if (!out.empty()) --size_;
    return out;
  }

  /// Drops every entry and restarts the ring at @p base.  Keeps the
  /// capacity, so a reset stream reuses the same storage.
  void reset(std::uint64_t base) {
    for (std::size_t i = 0; i < span_; ++i) at(i) = Buf{};
    base_ = base;
    head_ = 0;
    size_ = 0;
    span_ = 0;
  }

  /// Renumbers the ring so the front slot is @p base; entries keep their
  /// offsets (a stream renumbered after a resync).
  void rebase(std::uint64_t base) noexcept { base_ = base; }

  /// Calls @p fn(seq, Buf&) for every occupied slot in sequence order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < span_; ++i) {
      Buf& slot = at(i);
      if (!slot.empty()) fn(base_ + i, slot);
    }
  }

 private:
  Buf& at(std::size_t offset) noexcept {
    return slots_[(head_ + offset) & (slots_.size() - 1)];
  }

  /// Re-lays the ring out from index 0 with room for @p offset.
  void grow(std::uint64_t offset) {
    const std::size_t cap = std::bit_ceil(
        std::max<std::size_t>(8, static_cast<std::size_t>(offset) + 1));
    std::vector<Buf> grown(cap);
    for (std::size_t i = 0; i < span_; ++i) grown[i] = std::move(at(i));
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<Buf> slots_;
  std::uint64_t base_ = 1;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t span_ = 0;
};

}  // namespace coop::util
