// Logical time: Lamport clocks, vector clocks and causality tests.
//
// Vector clocks drive three parts of coop: the causal-ordering layer of the
// group communication stack (groups/ordering.hpp), the state vectors of the
// dOPT operational-transformation engine (ccontrol/ot.hpp), and the version
// vectors used for conflict detection when a mobile host reintegrates after
// disconnection (mobile/reintegration.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/codec.hpp"

namespace coop::logical {

/// Scalar Lamport clock: totally ordered event timestamps consistent with
/// causality (but not characterizing it — use VectorClock for that).
class LamportClock {
 public:
  /// Local event: advance and return the new timestamp.
  std::uint64_t tick() noexcept { return ++time_; }

  /// Message receipt: merge the sender's timestamp, then tick.
  std::uint64_t merge(std::uint64_t received) noexcept {
    time_ = std::max(time_, received);
    return ++time_;
  }

  [[nodiscard]] std::uint64_t time() const noexcept { return time_; }

 private:
  std::uint64_t time_ = 0;
};

/// Causality relation between two vector clocks.
enum class Causality {
  kEqual,       ///< identical histories
  kBefore,      ///< lhs happened-before rhs
  kAfter,       ///< rhs happened-before lhs
  kConcurrent,  ///< neither dominates: a real conflict
};

/// Fixed-width vector clock over a known set of sites (indices 0..n-1).
///
/// coop sessions know their membership when a clock is created; dynamic
/// membership is handled one level up (the groups module re-issues clocks on
/// view change), which keeps the hot comparison path allocation-free.
class VectorClock {
 public:
  VectorClock() = default;
  explicit VectorClock(std::size_t n_sites) : v_(n_sites, 0) {}
  /// A clock with the components of a decoded wire array.
  explicit VectorClock(util::ArrayView<std::uint64_t> values)
      : v_(values.to_vector()) {}

  /// Local event at @p site.
  void tick(std::size_t site) {
    ensure(site + 1);
    ++v_[site];
  }

  /// Component for @p site (0 if beyond current width).
  [[nodiscard]] std::uint64_t at(std::size_t site) const noexcept {
    return site < v_.size() ? v_[site] : 0;
  }

  void set(std::size_t site, std::uint64_t value) {
    ensure(site + 1);
    v_[site] = value;
  }

  /// Pointwise maximum (message receipt).
  void merge(const VectorClock& other) {
    ensure(other.v_.size());
    for (std::size_t i = 0; i < other.v_.size(); ++i)
      v_[i] = std::max(v_[i], other.v_[i]);
  }

  /// Full causality comparison.
  [[nodiscard]] Causality compare(const VectorClock& other) const {
    bool less = false;
    bool greater = false;
    const std::size_t n = std::max(v_.size(), other.v_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t a = at(i);
      const std::uint64_t b = other.at(i);
      if (a < b) less = true;
      if (a > b) greater = true;
    }
    if (less && greater) return Causality::kConcurrent;
    if (less) return Causality::kBefore;
    if (greater) return Causality::kAfter;
    return Causality::kEqual;
  }

  /// True if this clock causally dominates or equals @p other.
  [[nodiscard]] bool dominates(const VectorClock& other) const {
    const Causality c = compare(other);
    return c == Causality::kAfter || c == Causality::kEqual;
  }

  /// True iff the clocks are causally unrelated.
  [[nodiscard]] bool concurrent_with(const VectorClock& other) const {
    return compare(other) == Causality::kConcurrent;
  }

  /// Causal-delivery test: can a message stamped @p msg from @p sender be
  /// delivered at a site whose clock is *this?  Requires
  /// msg[sender] == this[sender]+1 and msg[k] <= this[k] for k != sender.
  [[nodiscard]] bool deliverable_from(const VectorClock& msg,
                                      std::size_t sender) const {
    const std::size_t n = std::max(v_.size(), msg.v_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t need = msg.at(i);
      if (i == sender) {
        if (need != at(i) + 1) return false;
      } else if (need > at(i)) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }

  /// Sum of all components — total events seen; used by OT scheduling.
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t s = 0;
    for (auto x : v_) s += x;
    return s;
  }

  bool operator==(const VectorClock& other) const {
    return compare(other) == Causality::kEqual;
  }

  /// The components as a wire array, valid while this clock is unchanged.
  [[nodiscard]] util::ArrayView<std::uint64_t> values() const noexcept {
    return v_;
  }

  /// Human-readable "[1,0,3]" form for logs and test diagnostics.
  [[nodiscard]] std::string to_string() const {
    std::string s = "[";
    for (std::size_t i = 0; i < v_.size(); ++i) {
      if (i > 0) s += ',';
      s += std::to_string(v_[i]);
    }
    s += ']';
    return s;
  }

 private:
  void ensure(std::size_t n) {
    if (v_.size() < n) v_.resize(n, 0);
  }

  std::vector<std::uint64_t> v_;
};

/// Version vectors for replica divergence detection are vector clocks under
/// another name; the alias keeps mobile-module code self-describing.
using VersionVector = VectorClock;

}  // namespace coop::logical
