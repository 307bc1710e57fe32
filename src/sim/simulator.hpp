// Discrete-event simulation kernel.
//
// The Simulator is the substrate on which every coop experiment runs: all
// "distributed" activity (message transit, timers, user think time, media
// frame clocks) is expressed as events on one virtual timeline.  The kernel
// is single-threaded and deterministic — two runs with the same seed process
// the same events in the same order — which is what lets the benchmark
// harness reproduce the paper's qualitative claims exactly.
//
// Ties are broken by insertion order (a FIFO among same-timestamp events) so
// that determinism never depends on container iteration order.
#pragma once

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/id_set.hpp"
#include "sim/rng.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace coop::sim {

/// Handle for a scheduled event; used to cancel timers.
using EventId = std::uint64_t;

/// Sentinel returned when no event was scheduled.
inline constexpr EventId kInvalidEvent = 0;

/// Callback executed when an event fires.  Move-only, with inline storage
/// for small captures — scheduling an event does not allocate unless the
/// capture exceeds SmallFn::kInlineBytes.
using EventFn = SmallFn;

/// Observer invoked once per executed event, just before its callback runs:
/// (context, shard index — 0 for a lone Simulator —, event id, its
/// timestamp, events still pending after this one).  A raw function
/// pointer + context — not a type-erased callable — because this is the
/// hottest seam in the kernel: the test-and-call must cost one predictable
/// branch per step.  Lets an observability layer trace kernel activity
/// without the kernel depending on it.
using StepHookFn = void (*)(void* ctx, std::uint32_t shard, EventId id,
                            TimePoint when, std::size_t pending);

/// Observer handed the wall-clock nanoseconds an event callback took.  The
/// kernel reads the steady clock only while one is installed, so profiling
/// is strictly pay-for-use.
using StepTimerFn = void (*)(void* ctx, std::uint64_t elapsed_ns);

class ShardedEngine;

/// The event-driven virtual-time kernel: a lone serial kernel, or one shard
/// of a ShardedEngine (which drives it epoch by epoch through drain()).
///
/// Typical use:
/// @code
///   Simulator sim{/*seed=*/7};
///   sim.schedule_after(msec(10), [&] { ... });
///   sim.run();
/// @endcode
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 42) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Schedules @p fn to run at absolute virtual time @p when (clamped to
  /// now() if in the past).  Returns a handle usable with cancel().
  EventId schedule_at(TimePoint when, EventFn fn);

  /// Schedules @p fn to run @p delay after the current time.  The sum
  /// saturates at kTimeMax: a huge "never" sentinel delay schedules an
  /// event at the end of simulated time instead of wrapping negative and
  /// firing immediately through the past-event clamp.
  EventId schedule_after(Duration delay, EventFn fn) {
    return schedule_at(saturating_after(now_, delay), std::move(fn));
  }

  /// Cancels a pending event.  Returns true only if the event was still
  /// pending — cancelling an already-fired, already-cancelled or invalid
  /// id returns false and leaves no residue in the kernel's accounting.
  bool cancel(EventId id);

  /// Runs until no events remain.  Returns the number of events processed.
  /// @p max_events guards against runaway feedback loops in experiments.
  std::size_t run(std::size_t max_events = kNoEventLimit) {
    return drain(kTimeMax, max_events);
  }

  /// Runs all events with timestamp <= @p t, then advances the clock to
  /// exactly @p t.  Returns the number of events processed.
  std::size_t run_until(TimePoint t) {
    const std::size_t n = drain(t, kNoEventLimit);
    advance_to(t);
    return n;
  }

  /// Runs the simulation forward by @p d (saturating at kTimeMax).
  std::size_t run_for(Duration d) { return run_until(saturating_after(now_, d)); }

  /// The kernel's deterministic random stream.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Total events executed so far (for experiment accounting).
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

  /// Number of events currently pending.  Exact: cancelled entries still
  /// sitting in the queue (lazy deletion) are not counted.
  [[nodiscard]] std::size_t pending() const noexcept { return live_.size(); }

  /// Installs (or clears, with nullptr) the per-step observer.
  void set_step_hook(StepHookFn fn, void* ctx = nullptr) noexcept {
    step_hook_fn_ = fn;
    step_hook_ctx_ = ctx;
  }

  /// Installs (or clears, with nullptr) the per-step wall-clock timer.
  void set_step_timer(StepTimerFn fn, void* ctx = nullptr) noexcept {
    step_timer_fn_ = fn;
    step_timer_ctx_ = ctx;
  }

  static constexpr std::size_t kNoEventLimit = ~static_cast<std::size_t>(0);

 private:
  friend class ShardedEngine;

  /// The kernel's one run loop: fires live events in (when, seq) order
  /// while the earliest has timestamp <= @p last, including events the
  /// callbacks schedule, stopping after @p max_events.  Cancelled entries
  /// are skipped (and their slots reclaimed) as they surface.
  std::size_t drain(TimePoint last, std::size_t max_events);

  /// Timestamp of the earliest queued entry (kTimeMax when empty).
  /// Lazy-cancelled residue counts — a dead entry costs the sharded
  /// engine a no-op epoch, never correctness.
  [[nodiscard]] TimePoint next_time() const noexcept {
    return heap_.empty() ? kTimeMax : heap_[0].when;
  }

  /// Clock catch-up (never moves time backwards).
  void advance_to(TimePoint t) noexcept {
    if (now_ < t) now_ = t;
  }

  // The queue holds POD ordering data plus the index of the recycled
  // callable slot, so firing an event never has to look the slot up.
  struct Entry {
    TimePoint when;
    std::uint64_t seq;   // insertion order; breaks timestamp ties FIFO,
                         // and doubles as the EventId handle
    std::uint32_t slot;  // index into slots_
  };

  /// Strict total order (seq is unique), so the pop sequence — and with it
  /// every virtual-time artifact — is independent of the heap's internal
  /// arrangement.  Compared as one signed 128-bit number, when * 2^64 +
  /// seq (seq never carries into when), which compiles to a
  /// compare-and-borrow pair with no branch.
  static bool before(const Entry& a, const Entry& b) noexcept {
    return order_key(a) < order_key(b);
  }
  static __int128 order_key(const Entry& e) noexcept {
    return static_cast<__int128>(
        (static_cast<unsigned __int128>(e.when) << 64) | e.seq);
  }

  // Hand-rolled 4-ary min-heap.  Versus std::priority_queue's binary heap
  // this halves the sift depth and keeps all four children of a node in
  // one or two cache lines (4 x 24 bytes), which measurably matters at
  // millions of push/pop pairs per simulated second.  heap_pop() is
  // Floyd's bottom-up variant (see simulator.cpp).
  void heap_push(const Entry& e);
  void heap_pop();

  std::uint32_t acquire_slot(EventFn&& fn);
  void release_slot(std::uint32_t slot);
  void maybe_compact_live();
  void dispatch(const Entry& top);

  std::vector<Entry> heap_;
  std::vector<EventFn> slots_;         // callable storage, index-stable
  std::vector<std::uint32_t> free_slots_;
  // One liveness bit per event id.  Cancellation clears the bit (so
  // pending() and cancel()'s return value stay exact) and leaves the
  // queue entry to be skipped — and its slot released — when popped.
  // Ids are dense and monotone, so both the schedule-side set and the
  // fire-side clear land on recently touched words (L1-hot), unlike a
  // hash set whose probes each cost a cache miss at this event rate.
  LiveBits live_;
  StepHookFn step_hook_fn_ = nullptr;
  void* step_hook_ctx_ = nullptr;
  StepTimerFn step_timer_fn_ = nullptr;
  void* step_timer_ctx_ = nullptr;
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t compact_check_ = kCompactInterval;
  std::uint64_t processed_ = 0;
  std::uint32_t shard_ = 0;  // reported to the step hook
  Rng rng_;

  // How many ids may be allocated between liveness-window compaction
  // scans (each scan is O(pending), so the amortized cost is noise).
  static constexpr std::uint64_t kCompactInterval = std::uint64_t{1} << 20;
};

/// A repeating timer bound to a Simulator.  Used for heartbeats, media frame
/// clocks and monitoring windows.  RAII: destroying (or stop()ping) the
/// timer cancels the pending tick.
///
/// A non-positive period (constructed that way, or via set_period(0)) is
/// clamped to one microsecond per re-arm: virtual time always advances
/// between ticks, so a misconfigured timer degrades to a fast-but-finite
/// cadence instead of an unbounded same-timestamp event storm that run()
/// can never get past.  An explicit start(0) is untouched — "first tick
/// now" is a one-shot and cannot storm.
class PeriodicTimer {
 public:
  /// Creates a stopped timer.  Call start().
  PeriodicTimer(Simulator& sim, Duration period, EventFn on_tick)
      : sim_(sim), period_(period), on_tick_(std::move(on_tick)) {}

  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Begins ticking; first tick fires one period from now (or after
  /// @p initial_delay if given).
  void start(Duration initial_delay = -1);

  /// Stops ticking; pending tick is cancelled.
  void stop();

  /// Changes the period; takes effect from the next tick.
  void set_period(Duration period) noexcept { period_ = period; }

  /// Applies deterministic multiplicative jitter: every armed delay is
  /// scaled by a factor drawn uniformly from [1-frac, 1+frac] out of
  /// @p rng (normally the owning Simulator's seeded rng, so runs stay
  /// reproducible).  Desynchronizes fleets of timers that share a cadence
  /// — without jitter every member of a group fires in lockstep and their
  /// traffic arrives in bursts.  frac <= 0 or a null rng disables.
  void set_jitter(double frac, Rng* rng) noexcept {
    jitter_ = frac;
    jitter_rng_ = rng;
  }

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] Duration period() const noexcept { return period_; }

 private:
  void arm(Duration delay);

  /// The re-arm cadence: the configured period, floored at one
  /// microsecond so a misconfigured timer cannot stall virtual time.
  [[nodiscard]] Duration effective_period() const noexcept {
    return period_ > 0 ? period_ : 1;
  }

  Simulator& sim_;
  Duration period_;
  EventFn on_tick_;
  EventId pending_ = kInvalidEvent;
  bool running_ = false;
  double jitter_ = 0.0;
  Rng* jitter_rng_ = nullptr;
};

}  // namespace coop::sim
