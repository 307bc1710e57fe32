// Statistics accumulators used throughout the benchmark harness.
//
// Experiments report means, percentiles and jitter of simulated latencies;
// Summary collects raw samples (latencies are few enough per run to keep),
// Counter/Gauge cover event accounting, and Histogram provides fixed-bucket
// distributions for QoS monitoring windows and library stats, where keeping
// samples would grow with a session's history.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace coop::util {

/// Collects scalar samples and answers summary queries.
class Summary {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  [[nodiscard]] double sum() const {
    double s = 0;
    for (double x : samples_) s += x;
    return s;
  }

  [[nodiscard]] double mean() const {
    return samples_.empty() ? 0.0 : sum() / static_cast<double>(count());
  }

  [[nodiscard]] double min() const {
    return samples_.empty()
               ? 0.0
               : *std::min_element(samples_.begin(), samples_.end());
  }

  [[nodiscard]] double max() const {
    return samples_.empty()
               ? 0.0
               : *std::max_element(samples_.begin(), samples_.end());
  }

  /// Sample standard deviation.
  [[nodiscard]] double stddev() const {
    if (samples_.size() < 2) return 0.0;
    const double m = mean();
    double acc = 0;
    for (double x : samples_) acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
  }

  /// q in [0,1]; nearest-rank percentile.
  [[nodiscard]] double percentile(double q) const {
    if (samples_.empty()) return 0.0;
    sort_if_needed();
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(samples_.size() - 1) + 0.5);
    return samples_[std::min(rank, samples_.size() - 1)];
  }

  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p95() const { return percentile(0.95); }
  [[nodiscard]] double p99() const { return percentile(0.99); }

  /// Mean absolute successive difference — the jitter metric used by the
  /// stream QoS monitor (inter-arrival variation).
  [[nodiscard]] double jitter() const {
    if (samples_.size() < 2) return 0.0;
    double acc = 0;
    for (std::size_t i = 1; i < samples_.size(); ++i)
      acc += std::abs(samples_[i] - samples_[i - 1]);
    return acc / static_cast<double>(samples_.size() - 1);
  }

  void clear() {
    samples_.clear();
    sorted_ = false;
  }

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

 private:
  void sort_if_needed() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) noexcept { value_ += by; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// A value that can move both ways (queue depths, high-water marks,
/// operating points).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  /// Keeps the maximum of the current value and @p v (high-water marks).
  void max_of(double v) noexcept { value_ = std::max(value_, v); }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram over [lo, hi); out-of-range samples clamp to the
/// edge buckets.  Used by QoS monitors and library stats: it keeps no samples.
///
/// Degenerate ranges (hi <= lo) are normalized to a unit-width window so
/// add() never divides by zero; NaN samples are tallied in nan_count()
/// and never bucketed (a NaN has no meaningful bucket, and converting it
/// to an integer index would be undefined behaviour).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets)
      : lo_(lo),
        hi_(hi > lo ? hi : lo + 1.0),
        counts_(buckets > 0 ? buckets : 1, 0) {}

  void add(double x) {
    if (std::isnan(x)) {
      ++nan_;
      return;
    }
    ++total_;
    sum_ += x;
    max_seen_ = std::max(max_seen_, x);
    const double n = static_cast<double>(counts_.size());
    // Clamp in double space *before* the integer cast: a far-out-of-range
    // sample (huge latency vs a narrow QoS window, or +-inf) would make
    // the double->int64 conversion undefined behaviour.
    const double scaled =
        std::clamp((x - lo_) / (hi_ - lo_) * n, 0.0, n - 1.0);
    ++counts_[static_cast<std::size_t>(scaled)];
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Running sum of the non-NaN samples (exact while they are integers
  /// below 2^53, e.g. virtual µs) and their mean (0 when empty).
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
  }

  /// NaN samples seen (counted separately, never bucketed).
  [[nodiscard]] std::uint64_t nan_count() const noexcept { return nan_; }

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }

  /// Nearest-bucket quantile (bucket midpoint).
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return lo_;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= target) {
        const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
        return lo_ + (static_cast<double>(i) + 0.5) * width;
      }
    }
    return hi_;
  }

  /// Largest non-NaN sample seen (exact, not bucket-quantized; lo() when
  /// empty).  Bucket clamping loses the true maximum, which the p50/p95/
  /// p99/max export quad needs for tail reporting.
  [[nodiscard]] double max_seen() const noexcept {
    return total_ == 0 ? lo_ : max_seen_;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return counts_;
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t nan_ = 0;
  double sum_ = 0;
  double max_seen_ = -std::numeric_limits<double>::infinity();
};

}  // namespace coop::util
