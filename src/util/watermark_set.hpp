// util::WatermarkSet — a set of sequence numbers stored as a contiguous
// low watermark plus a sparse set of the values above it.
//
// Receivers that dedupe by sequence number used to keep a std::set of every
// number ever seen, so their memory (and the depth of every lookup) grew
// with the length of the session.  Sequence numbers arrive almost in order,
// though: everything below some watermark has been seen, and only the few
// numbers that overtook a gap sit above it.  WatermarkSet stores exactly
// that — the run [1, low) as one integer and the out-of-order values in a
// small std::set — so state is bounded by the reorder window, not by
// history, and an in-order insert touches no heap at all.
//
// count() and insert() keep std::set<uint64_t> semantics for every value,
// including 0 (held in a flag, since runs start at 1) and values near the
// top of the range (the watermark never wraps).
#pragma once

#include <cstdint>
#include <limits>
#include <set>
#include <utility>

namespace coop::util {

class WatermarkSet {
 public:
  /// 1 if @p v is in the set, else 0 (std::set::count semantics).
  [[nodiscard]] std::size_t count(std::uint64_t v) const {
    if (v == 0) return has_zero_ ? 1 : 0;
    if (v < low_) return 1;
    return sparse_.count(v);
  }

  /// Inserts @p v; returns true if it was not present before.
  bool insert(std::uint64_t v) {
    if (v == 0) return !std::exchange(has_zero_, true);
    if (v < low_) return false;
    if (v != low_ || low_ == kMax) return sparse_.insert(v).second;
    ++low_;
    // The gap just closed: absorb the run that was waiting above it.
    while (!sparse_.empty() && *sparse_.begin() == low_ && low_ != kMax) {
      sparse_.erase(sparse_.begin());
      ++low_;
    }
    return true;
  }

  /// Every value in [1, watermark()) is present.
  [[nodiscard]] std::uint64_t watermark() const noexcept { return low_; }
  /// Number of present values above the watermark (the reorder window).
  [[nodiscard]] std::size_t sparse_size() const noexcept {
    return sparse_.size();
  }

 private:
  static constexpr std::uint64_t kMax =
      std::numeric_limits<std::uint64_t>::max();

  std::uint64_t low_ = 1;
  bool has_zero_ = false;
  std::set<std::uint64_t> sparse_;
};

}  // namespace coop::util
