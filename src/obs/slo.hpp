// Declarative SLO watchdog over the windowed timeseries.
//
// The paper's thesis is that a CSCW platform must *manage* QoS
// continuously, not merely provide it.  This module is the management
// plane's sensor: rules like "core RTT p99 stays under 120 ms", "core
// goodput holds 100/s", "drop rate stays under 5/s" are evaluated
// against every sealed virtual-time window, with hysteresis (K breaching
// windows to trip, M clean ones to recover) so one bad window does not
// flap health.  Transitions emit `slo_breach` / `slo_recovered` trace
// events and per-rule metrics, so a trajectory artifact shows *when* an
// objective was lost and regained, not just whether the run ended well.
//
// Strict mode: each rule carries a breach-window budget; violations()
// reports rules that overspent it (or never recovered), which the chaos
// and overload soak binaries turn into a non-zero exit — they are
// SLO-checked soaks.
//
// Determinism: evaluation consumes only virtual-time windows, so health
// trajectories are byte-identical across same-seed runs.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"
#include "sim/time.hpp"

namespace coop::obs {

class MetricsRegistry;
class Tracer;

/// One service-level objective over a timeseries.
struct SloRule {
  enum class Kind : std::uint8_t {
    kP50Ceiling,   ///< window p50 of observed values must stay <= threshold
    kP95Ceiling,   ///< window p95 must stay <= threshold
    kP99Ceiling,   ///< window p99 must stay <= threshold
    kRateFloor,    ///< events/sec must stay >= threshold (empty window = 0)
    kRateCeiling,  ///< events/sec must stay <= threshold
  };

  std::string name;    ///< metric/trace label ("core_rtt_p99")
  std::string series;  ///< timeseries name this rule watches
  Kind kind = Kind::kP99Ceiling;
  double threshold = 0;

  int trip_windows = 1;     ///< consecutive breaches before unhealthy
  int recover_windows = 1;  ///< consecutive clean windows before healthy

  /// Rule applies to windows with t0 in [active_from, active_until).
  /// Bounds carve out warm-up and drain phases (a goodput floor must not
  /// fire after traffic intentionally stops).
  sim::TimePoint active_from = 0;
  sim::TimePoint active_until = std::numeric_limits<sim::TimePoint>::max();

  /// Strict-mode budget: breaching more windows than this is a
  /// violation.  0 = any breach violates.
  std::uint64_t allowed_breach_windows = 0;

  /// Strict mode also fails a rule that is still unhealthy after its
  /// last evaluated window (it never recovered).
  bool must_end_healthy = true;
};

/// Evaluates SloRules against every window the Timeseries seals.
class SloWatchdog {
 public:
  /// Registers itself as @p ts's sealed-window observer.
  SloWatchdog(Timeseries& ts, Tracer& tracer, MetricsRegistry& metrics);

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  void add_rule(SloRule rule);

  [[nodiscard]] std::size_t rule_count() const noexcept {
    return rules_.size();
  }

  struct RuleState {
    std::uint64_t evaluated = 0;       ///< windows in the active range
    std::uint64_t breach_windows = 0;  ///< windows over/under threshold
    std::uint64_t transitions = 0;     ///< health flips (either way)
    int consec_breach = 0;
    int consec_ok = 0;
    bool healthy = true;
  };

  [[nodiscard]] const SloRule& rule(std::size_t i) const {
    return rules_[i].rule;
  }
  [[nodiscard]] const RuleState& state(std::size_t i) const {
    return rules_[i].state;
  }

  [[nodiscard]] std::uint64_t transitions_total() const noexcept;

  /// Rules that overspent their breach budget or (if must_end_healthy)
  /// are still unhealthy.  Zero means every objective held.
  [[nodiscard]] std::size_t violations() const;

  /// Human-readable one-liners for each violating rule.
  [[nodiscard]] std::vector<std::string> violation_messages() const;

 private:
  struct Entry {
    SloRule rule;
    RuleState state;
    Timeseries::SeriesId series_id = Timeseries::kInvalidSeries;
  };

  static void on_window(void* self, const Timeseries& ts,
                        const Timeseries::Window& w);
  void evaluate(const Timeseries& ts, const Timeseries::Window& w);
  [[nodiscard]] bool violating(const Entry& e) const noexcept;

  Timeseries& ts_;
  Tracer& tracer_;
  MetricsRegistry& metrics_;
  std::vector<Entry> rules_;
};

}  // namespace coop::obs
