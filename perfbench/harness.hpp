// Shared pieces of the user-operation benchmark: the outside span log,
// virtual-latency samples, deterministic layer counters and the workload
// interface every session implements.
//
// Everything here lives in the benchmark binary.  The library under test
// is only ever reached through its public API; per-layer host time is
// measured from outside, by timing the benchmark's calls into a layer and
// the layer's callbacks back into the benchmark.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/coop.hpp"

namespace perfbench {

using namespace coop;

// --- host clock -------------------------------------------------------------

inline std::int64_t host_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- allocation counter (defined with the global operator new) --------------

/// Calls to (and bytes requested from) the global operator new since
/// process start.  Single-threaded benchmark: plain integers suffice.
extern std::uint64_t g_allocs;
extern std::uint64_t g_alloc_bytes;

// --- FNV-1a outcome hashing -------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
}

inline void fnv_mix(std::uint64_t& h, const std::string& s) noexcept {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  fnv_mix(h, s.size());
}

inline std::uint64_t double_bits(double d) noexcept {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// --- outside span log -------------------------------------------------------

/// Every boundary the benchmark times: its calls into a layer, and the
/// layer's callbacks into benchmark code.
enum class SpanKind : std::uint8_t {
  kRunUntil,     ///< Platform::run_until (sim)
  kTick,         ///< a participant's action event body (benchmark code)
  kEdit,         ///< EditorClient::insert / erase (groupware)
  kPut,          ///< DurableStore::put (durable)
  kMove,         ///< SpatialModel::place, the spatial move (awareness)
  kPublish,      ///< AwarenessEngine::publish (awareness)
  kBroadcast,    ///< SessionGroup::broadcast (groups)
  kRpcCall,      ///< RpcClient::call (rpc)
  kFloor,        ///< FloorControl::request / release (ccontrol)
  kOnRemote,     ///< EditorClient remote-change callback
  kOnDurable,    ///< DurableStore on-durable callback
  kOnAware,      ///< AwarenessEngine deliver callback
  kOnGroup,      ///< SessionGroup deliver callback
  kOnRpcHandler, ///< RpcServer method handler
  kOnRpcReply,   ///< RpcClient completion callback
  kCount
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

/// Span name and the layer its *self* time is charged to.  Callbacks are
/// benchmark code ("bench"); calls are charged to the layer called.
struct SpanInfo {
  const char* name;
  const char* layer;
};

inline constexpr std::array<SpanInfo, kSpanKinds> kSpanInfo{{
    {"run_until", "sim"},
    {"tick", "bench"},
    {"edit", "groupware"},
    {"put", "durable"},
    {"move", "awareness"},
    {"publish", "awareness"},
    {"broadcast", "groups"},
    {"rpc_call", "rpc"},
    {"floor", "ccontrol"},
    {"on_remote", "bench"},
    {"on_durable", "bench"},
    {"on_aware", "bench"},
    {"on_group", "bench"},
    {"on_rpc_handler", "bench"},
    {"on_rpc_reply", "bench"},
}};

/// In-memory span recorder.  Off, a span costs one branch.  On, it reads
/// the steady clock twice, folds self time (duration minus child spans)
/// into per-kind totals, keeps a duration sample and appends a
/// {kind, parent, start, end} record.  All storage is reserved before the
/// timed phase; once a buffer is full further samples/records are counted
/// as dropped, never allocated — so tracing never changes the
/// allocation counts the benchmark reports.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoRecord = 0xffffffffu;
  static constexpr std::size_t kMaxDepth = 32;

  struct Record {
    std::int64_t start;
    std::int64_t end;
    std::uint32_t parent;
    SpanKind kind;
  };

  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::vector<float> samples_us;  ///< span durations (reserved)
  };

  void reserve(std::size_t records, std::size_t samples_per_kind) {
    records_.reserve(records);
    for (auto& t : totals_) t.samples_us.reserve(samples_per_kind);
  }

  void set_enabled(bool on) noexcept { on_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return on_; }

  void begin(SpanKind k) noexcept {
    if (depth_ == kMaxDepth) {
      ++skipped_;
      return;
    }
    Open& o = stack_[depth_];
    o.kind = k;
    o.child_ns = 0;
    o.record = kNoRecord;
    if (records_.size() < records_.capacity()) {
      o.record = static_cast<std::uint32_t>(records_.size());
      records_.push_back({0, 0, depth_ > 0 ? stack_[depth_ - 1].record
                                           : kNoRecord,
                          k});
    } else {
      ++dropped_records_;
    }
    ++depth_;
    o.start = host_ns();
  }

  void end() noexcept {
    const std::int64_t t = host_ns();
    if (skipped_ > 0) {
      --skipped_;
      return;
    }
    Open& o = stack_[--depth_];
    const std::int64_t dur = t - o.start;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    Totals& tot = totals_[static_cast<std::size_t>(o.kind)];
    ++tot.calls;
    tot.total_ns += dur;
    tot.self_ns += dur - o.child_ns;
    if (tot.samples_us.size() < tot.samples_us.capacity())
      tot.samples_us.push_back(static_cast<float>(dur) * 1e-3f);
    if (o.record != kNoRecord) {
      records_[o.record].start = o.start;
      records_[o.record].end = t;
    }
  }

  [[nodiscard]] const Totals& totals(SpanKind k) const noexcept {
    return totals_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t dropped_records() const noexcept {
    return dropped_records_;
  }

 private:
  struct Open {
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::uint32_t record = kNoRecord;
    SpanKind kind = SpanKind::kCount;
  };

  bool on_ = false;
  std::array<Open, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::size_t skipped_ = 0;  ///< open spans past kMaxDepth
  std::uint64_t dropped_records_ = 0;
  std::array<Totals, kSpanKinds> totals_{};
  std::vector<Record> records_;
};

/// The benchmark's one span log (the benchmark is single-threaded).
extern SpanLog g_spans;

/// RAII span; latches the on/off decision so a pair never splits.
class Span {
 public:
  explicit Span(SpanKind k) noexcept : on_(g_spans.enabled()) {
    if (on_) g_spans.begin(k);
  }
  ~Span() {
    if (on_) g_spans.end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// --- virtual-time samples ---------------------------------------------------

/// Virtual latencies (µs) the workloads observe.  Recorded only while
/// `counting` is set — the fixed count phase — so each percentile is a
/// pure function of the seed.
enum class VKind : std::uint8_t {
  kGroupwareNotify,  ///< edit origin -> remote replica apply
  kAwarenessNotify,  ///< publish -> observer delivery
  kDurableAck,       ///< put -> on_durable
  kGroupsDeliver,    ///< broadcast -> member delivery
  kRpcRtt,           ///< floor RPC round trip
  kFloorWait,        ///< floor request -> grant
  kCount
};

struct VSamples {
  bool counting = false;
  /// Reserved up front; a full buffer keeps its (deterministic) prefix
  /// rather than growing inside the counted interval.
  std::array<std::vector<std::int32_t>,
             static_cast<std::size_t>(VKind::kCount)>
      v;

  void reserve(std::size_t n) {
    for (auto& xs : v) xs.reserve(n);
  }

  void add(VKind k, sim::Duration d) {
    auto& xs = v[static_cast<std::size_t>(k)];
    if (counting && xs.size() < xs.capacity())
      xs.push_back(static_cast<std::int32_t>(d));
  }
};

extern VSamples g_vs;

/// Nearest-rank percentile (q in [0,1]) of a reserved sample buffer, the
/// same rule as util::Summary::percentile; 0 for an empty set.
template <typename T>
double percentile(std::vector<T> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  return static_cast<double>(xs[std::min(idx, xs.size() - 1)]);
}

// --- deterministic layer counters -------------------------------------------

/// Cumulative work counters, read from public stats() getters,
/// NetworkStats and the allocation counter.  The harness differences two
/// snapshots taken at window boundaries.
struct Counts {
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t net_msgs = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t group_deliveries = 0;
  std::uint64_t group_retransmits = 0;
  std::uint64_t rpc_calls = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t aware_deliveries = 0;
  std::uint64_t aware_digested = 0;
  std::uint64_t aware_suppressed = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_syncs = 0;
  std::uint64_t checkpoints = 0;
};

/// Failed checks, each with a one-line reason.
struct Verdict {
  std::vector<std::string> failures;
  /// Takes a literal so a passing guard never allocates.
  void require(bool ok, const char* what) {
    if (!ok) failures.emplace_back(what);
  }
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

// --- workload interface -----------------------------------------------------

/// One CSCW session on one serial Platform.  Participants act on a fixed,
/// seeded open-loop schedule in virtual time; the harness advances the
/// platform in fixed virtual windows and times them on the host clock.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds topology and components, then runs virtual time until every
  /// join, connect, subscription and empty-store recovery has completed.
  virtual void build() = 0;
  /// Arms every participant's action timer (the open loop begins).
  virtual void start() = 0;
  /// Stops issuing operations: pending action timers no longer re-arm.
  virtual void stop() = 0;

  [[nodiscard]] virtual sim::Duration window() const = 0;
  [[nodiscard]] virtual sim::Duration warmup() const = 0;
  /// Virtual time to run after stop() so every operation settles.
  [[nodiscard]] virtual sim::Duration drain() const = 0;

  /// Adds the workload's layer counters to @p c (the harness fills the
  /// kernel, net and allocation fields).
  virtual void counts(Counts& c) const = 0;
  /// Hash over everything the session has delivered so far.
  [[nodiscard]] virtual std::uint64_t outcome_hash() const = 0;
  /// Bounded-state guards, evaluated after every timed window.
  virtual void guard(Verdict& v) const = 0;
  /// Correctness checks after quiescing; also settles failed_ops().
  virtual void check(Verdict& v) = 0;

  /// Timed windows per round.  They are also the count phase: every
  /// count, virtual latency and the outcome hash is taken over exactly
  /// these windows, so none depends on host speed or --seconds.
  [[nodiscard]] virtual int windows() const = 0;
  /// Rounds in a run of kRefSeconds (main.cpp), sized so that they take
  /// about that long on the reference host.  --seconds scales the number
  /// of rounds, never their length, so every round covers the same
  /// virtual work.
  [[nodiscard]] virtual int rounds() const = 0;
  /// Checks the count-phase outcome hash against a pinned value, if the
  /// workload pins one for this seed.
  virtual void check_pinned(Verdict& v, std::uint64_t count_hash) const {
    (void)v;
    (void)count_hash;
  }

  /// Group-layer state the Counts deltas cannot express.
  [[nodiscard]] virtual std::uint64_t view_changes() const { return 0; }
  [[nodiscard]] virtual std::uint64_t held_back_max() const { return 0; }

  [[nodiscard]] Platform& platform() noexcept { return *platform_; }
  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  /// Failed operations among those issued since mark_timed().
  [[nodiscard]] std::uint64_t failed_ops() const noexcept { return failed_; }
  /// Operations issued from now on count as timed.
  void mark_timed() noexcept { timed_from_ = ops_; }
  [[nodiscard]] std::uint64_t timed_from() const noexcept {
    return timed_from_;
  }

 protected:
  explicit Workload(std::uint64_t seed)
      : platform_(std::make_unique<Platform>(seed)),
        rng_(seed ^ 0x9e3779b97f4a7c15ULL) {}

  std::unique_ptr<Platform> platform_;
  sim::Rng rng_;  ///< the benchmark's own input stream (not the kernel's)
  std::uint64_t ops_ = 0;
  /// Ops with an index at or past this are timed; none until mark_timed().
  std::uint64_t timed_from_ = ~std::uint64_t{0};
  std::uint64_t failed_ = 0;
  bool issuing_ = false;
};

std::unique_ptr<Workload> make_coauthor(std::uint64_t seed);
std::unique_ptr<Workload> make_meeting(std::uint64_t seed);
std::unique_ptr<Workload> make_crowd(std::uint64_t seed);

}  // namespace perfbench
