#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace coop::sim {

void Simulator::heap_push(const Entry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_pop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  Entry* const h = heap_.data();
  // Floyd's bottom-up pop.  First walk the root's hole down to a leaf,
  // always promoting the smallest child, without comparing against
  // `last`: a top-down sift's per-level "does `last` fit here" test is a
  // data-dependent branch that mispredicts.  A full group of four
  // siblings is reduced without branches: two pairwise compares, then one
  // between the winners, each folded into the index arithmetically (a
  // ternary here compiles to a jump).
  std::size_t i = 0;
  std::size_t first = 1;
  for (; first + 4 <= n; first = (i << 2) + 1) {
    // Prefetch the 16 grandchildren (384 contiguous bytes), one of whose
    // groups the next step reads.  The next index depends on this step's
    // compares, so once the heap outgrows the caches (crowd's ~50k
    // timers, E13's 10^5-10^6 entries) each level would otherwise wait
    // out a miss that a branchy sift hides by speculating.
    const std::size_t next = (first << 2) + 1;
    if (next < n) {
      const auto p = reinterpret_cast<std::uintptr_t>(h + next);
      for (std::uintptr_t q = 0; q < 16 * sizeof(Entry); q += 64)
        __builtin_prefetch(reinterpret_cast<const void*>(p + q));
    }
    const std::size_t a = first + before(h[first + 1], h[first]);
    const std::size_t b = first + 2 + before(h[first + 3], h[first + 2]);
    const std::size_t best = a + (b - a) * before(h[b], h[a]);
    h[i] = h[best];
    i = best;
  }
  // A partial last group (one to three siblings); its winner is a leaf.
  if (first < n) {
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      if (before(h[c], h[best])) best = c;
    }
    h[i] = h[best];
    i = best;
  }
  // Then sift `last` up from the leaf hole.  `last` came from the bottom
  // row, so it rarely climbs more than a level.
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(last, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = last;
}

EventId Simulator::schedule_at(TimePoint when, EventFn fn) {
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;  // doubles as the handle
  heap_push(Entry{when, seq, acquire_slot(std::move(fn))});
  live_.insert(seq);
  if (next_seq_ >= compact_check_) maybe_compact_live();
  return seq;
}

void Simulator::maybe_compact_live() {
  // Drop the dead prefix of the liveness bitmap so its memory tracks the
  // seq spread of the queue, not the total events ever scheduled.  Every
  // id the kernel will still test is in the heap, so the minimum queued
  // seq bounds the window from below.
  compact_check_ = next_seq_ + kCompactInterval;
  std::uint64_t min_seq = next_seq_;
  for (const Entry& e : heap_) min_seq = std::min(min_seq, e.seq);
  live_.compact(min_seq);
}

std::uint32_t Simulator::acquire_slot(EventFn&& fn) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = std::move(fn);
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  slots_[slot].reset();
  free_slots_.push_back(slot);
}

bool Simulator::cancel(EventId id) {
  // Only genuinely pending events can be cancelled.  Clearing the
  // liveness bit (rather than accumulating a tombstone) means cancelling
  // an already-fired id is a clean no-op — the old tombstone scheme
  // reported success for fired events and skewed pending() forever
  // after.  The queue entry and its callable slot are reclaimed lazily
  // when the entry pops.
  if (id == kInvalidEvent) return false;
  return live_.erase(id);
}

void Simulator::dispatch(const Entry& top) {
  now_ = top.when;
  ++processed_;
  if (step_hook_fn_ != nullptr)
    step_hook_fn_(step_hook_ctx_, shard_, top.seq, top.when, live_.size());
  // Move the callable out and free the slot *before* invoking: the
  // callback may schedule new events (reusing this very slot) or even
  // re-enter run().
  EventFn fn = std::move(slots_[top.slot]);
  release_slot(top.slot);
  if (step_timer_fn_ != nullptr) {
    // The steady clock is read only while a timer hook is installed:
    // profiling is pay-for-use, the unprofiled path stays two branches.
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    step_timer_fn_(step_timer_ctx_,
                   static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count()));
  } else {
    fn();
  }
}

std::size_t Simulator::drain(TimePoint last, std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && !heap_.empty()) {
    const Entry top = heap_[0];
    // Nothing at or before `last` remains: every live entry above fires
    // later, and any cancelled residue up there can stay lazy.
    if (top.when > last) break;
    heap_pop();
    // Lazy deletion: a queue entry whose liveness bit is clear was
    // cancelled; free its slot (destroying the captures) and move on.
    if (!live_.erase(top.seq)) {
      release_slot(top.slot);
      continue;
    }
    dispatch(top);
    ++n;
  }
  return n;
}

void PeriodicTimer::start(Duration initial_delay) {
  stop();
  running_ = true;
  arm(initial_delay >= 0 ? initial_delay : effective_period());
}

void PeriodicTimer::stop() {
  if (pending_ != kInvalidEvent) {
    sim_.cancel(pending_);
    pending_ = kInvalidEvent;
  }
  running_ = false;
}

void PeriodicTimer::arm(Duration delay) {
  // An explicit zero initial delay ("first tick now") is fine — only the
  // repeating period needs a floor, and effective_period() supplies it at
  // every re-arm site.  The jitter path keeps the same guarantee: its
  // scale factor never rounds a positive delay below one microsecond.
  if (jitter_ > 0.0 && jitter_rng_ != nullptr && delay > 0) {
    const double f = jitter_rng_->uniform(1.0 - jitter_, 1.0 + jitter_);
    delay = std::max<Duration>(
        1, static_cast<Duration>(static_cast<double>(delay) * f));
  }
  pending_ = sim_.schedule_after(delay, [this] {
    pending_ = kInvalidEvent;
    if (!running_) return;
    on_tick_();
    // on_tick_ may have stopped the timer.  Re-arm with the clamped
    // period: a non-positive period_ would otherwise re-schedule at the
    // current timestamp forever, an event storm run() can never get past.
    if (running_) arm(effective_period());
  });
}

}  // namespace coop::sim
