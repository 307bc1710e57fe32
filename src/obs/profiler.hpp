// Fixed-slot wall-clock profiler for the simulation kernel and its seams.
//
// The tracer answers "what happened in virtual time"; this answers "where
// did the *wall clock* go" — which seam is the real-machine bottleneck
// when a run is slow.  Sites are registered once per module with a string
// literal ("net.deliver", "rpc.handle", ...) and attributed into fixed
// slots: no allocation on enter/exit, a bounded frame stack for nesting
// (self time = elapsed minus child time), and an open-addressed fixed
// table of call paths so the data exports as a collapsed stack
// (flamegraph.pl / speedscope format) as well as a "sim top" text table.
//
// Everything here is wall-clock and therefore non-deterministic; outputs
// go to their own artifacts (BENCH_<tag>.prof.txt / .folded), never into
// the deterministic BENCH_<tag>.json — same isolation rule as wall_ms.
//
// Overflow policy: more sites, deeper nesting, or more distinct paths
// than the fixed tables hold are *counted*, never allocated — the
// profiler's cost model must not change under pathological load.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "obs/trace.hpp"

namespace coop::obs {

class Profiler {
 public:
  using SiteId = std::uint16_t;
  static constexpr SiteId kInvalidSite = 0xffff;

  static constexpr std::size_t kMaxSites = 64;   ///< distinct tags
  static constexpr std::size_t kMaxDepth = 16;   ///< nested scopes
  static constexpr std::size_t kMaxPaths = 256;  ///< distinct call paths

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// True when COOP_PROFILE is set to a non-"0" value.
  [[nodiscard]] static bool env_enabled() noexcept;

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Registers (or looks up) a site tag.  @p name must be a string
  /// literal; the same pointer-or-spelling returns the same id.  Returns
  /// kInvalidSite once kMaxSites tags exist (counted in dropped_sites()).
  SiteId site(const char* name, Category cat) noexcept;

  /// Enters/leaves a profiled scope.  enter() no-ops while disabled;
  /// exit() always unwinds, so a pair whose enter ran stays balanced even
  /// if profiling is toggled off mid-scope.  Use the ProfScope wrapper —
  /// it latches the enter decision so the pair never splits.
  void enter(SiteId s) noexcept;
  void exit(SiteId s) noexcept;

  /// Attributes one kernel event dispatch (fed by the Simulator step
  /// timer): wall nanoseconds the event callback took.
  void note_step(std::uint64_t ns) noexcept {
    ++steps_;
    step_ns_ += ns;
  }

  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::uint64_t step_ns() const noexcept { return step_ns_; }

  /// Per-site accounting.
  [[nodiscard]] std::uint64_t calls_of(SiteId s) const noexcept;
  [[nodiscard]] std::uint64_t self_ns_of(SiteId s) const noexcept;
  [[nodiscard]] std::size_t site_count() const noexcept { return n_sites_; }

  /// Overflow counters: registrations refused, scopes skipped for depth,
  /// paths folded into nothing because the path table filled.
  [[nodiscard]] std::uint64_t dropped_sites() const noexcept {
    return dropped_sites_;
  }
  [[nodiscard]] std::uint64_t dropped_frames() const noexcept {
    return dropped_frames_;
  }
  [[nodiscard]] std::uint64_t dropped_paths() const noexcept {
    return dropped_paths_;
  }

  /// "sim top": sites sorted by self wall-time, plus the kernel step
  /// roll-up and overflow counters.  Human-oriented text.
  void write_top(std::ostream& out) const;

  /// Collapsed-stack export: one "site;site;site <self_us>" line per
  /// distinct path — pipe into flamegraph.pl or load in speedscope.
  void write_collapsed(std::ostream& out) const;

 private:
  struct Site {
    const char* name = "";
    Category cat = Category::kSim;
    std::uint64_t calls = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
  };

  struct Frame {
    SiteId site = kInvalidSite;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;  // time spent in nested scopes
    std::uint32_t path = 0;      // path-table slot of this frame's stack
  };

  struct Path {
    std::array<SiteId, kMaxDepth> sites{};
    std::uint8_t depth = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t hits = 0;
    bool used = false;
  };

  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Finds-or-inserts the path formed by the current stack plus @p s.
  /// Returns kMaxPaths when the table is full (counted, not stored).
  std::uint32_t intern_path(SiteId s) noexcept;

  std::array<Site, kMaxSites> sites_{};
  std::array<Frame, kMaxDepth> stack_{};
  std::array<Path, kMaxPaths> paths_{};
  std::size_t n_sites_ = 0;
  std::size_t depth_ = 0;
  std::size_t skip_depth_ = 0;  // scopes entered past kMaxDepth
  std::uint64_t steps_ = 0;
  std::uint64_t step_ns_ = 0;
  std::uint64_t dropped_sites_ = 0;
  std::uint64_t dropped_frames_ = 0;
  std::uint64_t dropped_paths_ = 0;
  bool enabled_ = false;
};

/// RAII profiled scope: `ProfScope ps(profiler, site_id);`.  Cost when
/// profiling is off: one load + branch.  The entered state is latched so
/// toggling set_enabled() mid-scope cannot unbalance the frame stack.
class ProfScope {
 public:
  ProfScope(Profiler& p, Profiler::SiteId s) noexcept
      : p_(p), s_(s), active_(p.enabled()) {
    if (active_) p_.enter(s_);
  }
  ~ProfScope() {
    if (active_) p_.exit(s_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler& p_;
  Profiler::SiteId s_;
  bool active_;
};

}  // namespace coop::obs
