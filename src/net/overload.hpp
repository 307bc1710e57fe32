// Client-side overload control primitives shared by every retrying layer:
// retry token budgets and circuit breakers.
//
// A burst of timeouts is ambiguous — it may be loss (retry helps) or
// saturation (retry makes it worse).  The classic metastable-failure shape
// is a fleet of clients whose retries multiply offered load exactly when
// the servers can least afford it.  Two complementary guards bound that
// amplification:
//
//   * RetryBudget — a token bucket in which successful calls earn fractions
//     of a token and each retry spends a whole one, capping sustained retry
//     traffic at a configurable fraction of successful traffic.  When the
//     destination stops succeeding, the budget drains and retries stop;
//     first attempts still flow, so recovery is probed at the offered rate
//     rather than a multiple of it.
//   * CircuitBreaker — after N consecutive failures the breaker opens and
//     calls fast-fail locally (Status::kRejected) without touching the
//     wire; after a cooldown it half-opens and admits a single probe whose
//     outcome decides between closing and re-opening.
//
// RpcClient keeps one of each per destination; GroupInvoker inherits them
// by issuing through RpcClient.  Both guards are pure sim-time state
// machines — deterministic under the seeded kernel, no wall clock anywhere.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

namespace coop::net {

/// Token-bucket retry budget.  Disabled by default so existing callers
/// keep their unconditional-retry behaviour until they opt in.
struct RetryBudgetConfig {
  bool enabled = false;
  /// Tokens earned per successful call (0.1 = retries capped at ~10% of
  /// the success rate, the classic retry-budget ratio).
  double ratio = 0.1;
  /// Tokens available before any call has succeeded — lets a cold client
  /// ride out genuine packet loss without first earning credit.
  double initial = 10.0;
  /// Accumulation cap, so a long healthy stretch cannot bank an
  /// arbitrarily large burst of future retries.
  double cap = 100.0;
};

class RetryBudget {
 public:
  RetryBudget() : RetryBudget(RetryBudgetConfig{}) {}
  explicit RetryBudget(const RetryBudgetConfig& config)
      : config_(config), tokens_(config.initial) {}

  /// A call to the destination succeeded: earn `ratio` of a token.
  void on_success() noexcept {
    tokens_ = std::min(config_.cap, tokens_ + config_.ratio);
  }

  /// Asks permission to retry.  Spends one token; returns false (and
  /// spends nothing) when the bucket is dry.  Always true when disabled.
  [[nodiscard]] bool try_spend() noexcept {
    if (!config_.enabled) return true;
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  [[nodiscard]] double tokens() const noexcept { return tokens_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

 private:
  RetryBudgetConfig config_;
  double tokens_ = 0;
};

/// Consecutive-failure circuit breaker with a half-open probe.  Disabled
/// by default (allow() is then always true and no state is kept hot).
struct CircuitBreakerConfig {
  bool enabled = false;
  /// Consecutive failures (timeouts or pushback) that open the breaker.
  int failure_threshold = 5;
  /// How long the breaker stays open before half-opening for one probe.
  sim::Duration open_duration = sim::msec(500);
};

class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  CircuitBreaker() : CircuitBreaker(CircuitBreakerConfig{}) {}
  explicit CircuitBreaker(const CircuitBreakerConfig& config)
      : config_(config) {}

  /// May a call be issued now?  Open: fast-fail until the cooldown
  /// elapses, then admit exactly one half-open probe; further calls keep
  /// fast-failing until the probe resolves.
  [[nodiscard]] bool allow(sim::TimePoint now) noexcept {
    if (!config_.enabled) return true;
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen:
        if (now < open_until_) return false;
        state_ = State::kHalfOpen;
        probe_in_flight_ = true;
        return true;
      case State::kHalfOpen:
        if (probe_in_flight_) return false;
        probe_in_flight_ = true;
        return true;
    }
    return true;
  }

  /// A call completed successfully: close (and reset the failure run).
  void record_success() noexcept {
    consecutive_failures_ = 0;
    probe_in_flight_ = false;
    state_ = State::kClosed;
  }

  /// A call timed out or was pushed back.  In half-open the single probe
  /// failing re-opens immediately; closed opens at the threshold.
  void record_failure(sim::TimePoint now) noexcept {
    if (!config_.enabled) return;
    ++consecutive_failures_;
    probe_in_flight_ = false;
    if (state_ == State::kHalfOpen ||
        consecutive_failures_ >= config_.failure_threshold) {
      state_ = State::kOpen;
      open_until_ = now + config_.open_duration;
    }
  }

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

 private:
  CircuitBreakerConfig config_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  sim::TimePoint open_until_ = 0;
};

}  // namespace coop::net
