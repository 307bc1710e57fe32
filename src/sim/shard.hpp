// The sharded parallel discrete-event kernel.
//
// The serial Simulator runs every simulated node on one event queue; that
// caps experiments near 10^4 participants.  This kernel partitions nodes
// into shards, each a plain Simulator with its own event queue, virtual
// clock and rng, and exchanges cross-shard messages deterministically:
//
//   * Conservative lookahead.  When every cross-shard link has a minimum
//     latency L > 0, an epoch lets each shard run freely through the
//     window [T0, T0 + L), where T0 is the global minimum pending
//     timestamp.  Any cross-shard message sent from inside the window
//     arrives at or after its send time + L >= T0 + L, i.e. beyond the
//     window — so shards cannot affect each other mid-epoch and may run
//     on parallel worker threads.
//   * Barrier-synchronized epochs.  With zero lookahead the engine falls
//     back to lockstep timestamps: every shard processes exactly the
//     events at T0, then messages are exchanged; same-timestamp message
//     chains iterate at T0 until quiescent, exactly as the serial
//     kernel's clamp-to-now scheduling behaves.
//
// At each barrier the engine merges every shard's outbox and inserts the
// messages into their destination queues sorted by (arrival, source node,
// source sequence) — a key independent of shard count, thread count and
// epoch geometry, which is what makes a run's outcome a pure function of
// its seed.  A lone Simulator is the differential oracle: a scenario whose
// per-node state is insensitive to same-timestamp cross-node interleaving
// (the only freedom either kernel has) produces byte-identical artifacts
// on both (DESIGN.md §17, bench_e13_million_users).
#pragma once

#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace coop::sim {

/// A cross-shard message: the only way activity crosses a shard boundary.
/// The payload is an opaque word the scenario's handler interprets; the
/// (src, seq) pair must be unique per message (per-source sequence
/// numbers), because it is the deterministic same-arrival tiebreak.
struct ShardMsg {
  TimePoint at = 0;             ///< arrival time at the destination
  std::uint32_t src = 0;        ///< source node
  std::uint32_t dst = 0;        ///< destination node
  std::uint16_t src_shard = 0;  ///< shard hosting src
  std::uint16_t dst_shard = 0;  ///< shard hosting dst
  std::uint32_t seq = 0;        ///< per-source message sequence number
  std::uint64_t payload = 0;    ///< scenario-defined word
};

/// Sharded-kernel tuning.  Everything is deterministic: shard count and
/// thread count may change wall-clock speed but never a run's virtual-time
/// outcome.
struct ShardedConfig {
  std::uint32_t shards = 1;
  /// Worker threads for the epoch fan-out (1 = run shards inline on the
  /// caller's thread).  More threads than shards is wasted.
  std::uint32_t threads = 1;
  /// Conservative lookahead: the minimum latency of any cross-shard
  /// link (net::Network::lookahead() derives this from the topology).
  /// Zero selects barrier-synchronized timestamp epochs.
  Duration lookahead = 0;
  std::uint64_t seed = 42;
};

/// The sharded kernel: owns the shards, drives the epoch protocol and the
/// optional worker pool, and is the single seam for cross-shard traffic.
class ShardedEngine {
 public:
  /// Message handler: invoked (on the destination shard, at the message's
  /// arrival time) for every ShardMsg.  Raw fn-ptr + ctx, like the
  /// kernel's other hot seams.
  using MsgFn = void (*)(void* ctx, const ShardMsg& m);

  /// Barrier observer: fired once per epoch on the coordinating thread
  /// with the epoch window and the number of events it executed.
  using EpochHookFn = void (*)(void* ctx, TimePoint t0, TimePoint horizon,
                               std::size_t events);

  explicit ShardedEngine(const ShardedConfig& cfg);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const ShardedConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] Simulator& shard(std::uint32_t s) noexcept {
    return shards_[s]->sim;
  }

  /// Global virtual time: the furthest point all shards have committed.
  [[nodiscard]] TimePoint now() const noexcept;
  /// Sum of live (non-cancelled) pending events across shards.
  [[nodiscard]] std::size_t pending() const noexcept;
  /// Sum of events executed across shards.
  [[nodiscard]] std::uint64_t events_processed() const noexcept;

  /// Shard-local scheduling (timers, workload ticks).  Callable from the
  /// driver while the engine is idle, or from an event running on that
  /// same shard.  cancel() has the same locality contract.
  EventId schedule_at(std::uint32_t shard, TimePoint when, EventFn fn) {
    return shards_[shard]->sim.schedule_at(when, std::move(fn));
  }
  EventId schedule_after(std::uint32_t shard, Duration delay, EventFn fn) {
    return shards_[shard]->sim.schedule_after(delay, std::move(fn));
  }
  bool cancel(std::uint32_t shard, EventId id) {
    return shards_[shard]->sim.cancel(id);
  }

  void set_msg_handler(MsgFn fn, void* ctx = nullptr) noexcept {
    msg_fn_ = fn;
    msg_ctx_ = ctx;
  }
  void set_epoch_hook(EpochHookFn fn, void* ctx = nullptr) noexcept {
    epoch_fn_ = fn;
    epoch_ctx_ = ctx;
  }
  /// Sends @p m.  Same-shard messages become ordinary events at once;
  /// cross-shard messages park in the source shard's outbox until the
  /// next barrier.  Must be called from m.src_shard's context (one of
  /// its events) or from the driver while the engine is idle.
  ///
  /// Lookahead contract: with lookahead L > 0 a cross-shard message must
  /// satisfy  at >= source now + L.  Violations are counted (and the
  /// message delivered no earlier than its destination's clock), but
  /// they void the determinism-vs-topology guarantee — fix the
  /// topology's declared lookahead instead.
  void send(const ShardMsg& m);

  /// Runs all events with timestamp <= @p t, then advances every clock
  /// to exactly t.  Stopping "mid-epoch" is safe: the window is clipped
  /// at t, and a later run_until continues bit-identically to a run
  /// that never stopped.  Returns events executed.
  std::size_t run_until(TimePoint t);

  /// Runs until no events (and no parked messages) remain.  The event
  /// cap is enforced at epoch granularity — a runaway-feedback guard,
  /// not an exact budget.
  std::size_t run(std::size_t max_events = Simulator::kNoEventLimit);

  // --- accounting ----------------------------------------------------------

  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }
  [[nodiscard]] std::uint64_t cross_shard_messages() const noexcept {
    return cross_msgs_;
  }
  /// Cross-shard sends that broke the lookahead contract (see send()).
  [[nodiscard]] std::uint64_t lookahead_violations() const noexcept;

 private:
  enum class Phase { kBelow, kAt };

  /// One shard and the state only its own events touch.  Each lives in
  /// its own allocation, so worker threads never share a cache line.
  struct Shard {
    explicit Shard(std::uint64_t seed) : sim(seed) {}
    Simulator sim;
    std::vector<ShardMsg> outbox;  ///< cross-shard sends this epoch
    std::uint64_t violations = 0;  ///< lookahead-contract breaches
  };

  /// The epoch loop behind run() and run_until(): epochs until the
  /// earliest pending timestamp passes @p last or the event cap is hit.
  std::size_t run_epochs(TimePoint last, std::size_t max_events);

  /// One epoch body: every shard runs its window, possibly on the worker
  /// pool.  Returns events executed.
  std::size_t run_phase(Phase phase, TimePoint bound);
  void run_shard(std::uint32_t s, Phase phase, TimePoint bound);
  /// Merges all outboxes into destination queues, deterministically.
  void flush_outboxes();
  void start_workers();
  void worker_loop(std::uint32_t worker);

  ShardedConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ShardMsg> scratch_;          ///< barrier merge staging
  std::vector<std::size_t> phase_counts_;  ///< per-shard events this phase
  MsgFn msg_fn_ = nullptr;
  void* msg_ctx_ = nullptr;
  EpochHookFn epoch_fn_ = nullptr;
  void* epoch_ctx_ = nullptr;
  std::uint64_t epochs_ = 0;
  std::uint64_t cross_msgs_ = 0;

  // Worker pool (lazily started; idle when cfg_.threads <= 1).  The
  // coordinating thread takes worker slot 0's shard set itself.
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::uint64_t pool_gen_ = 0;
  std::uint32_t pool_remaining_ = 0;
  Phase pool_phase_ = Phase::kBelow;
  TimePoint pool_bound_ = 0;
  bool pool_stop_ = false;
};

}  // namespace coop::sim
