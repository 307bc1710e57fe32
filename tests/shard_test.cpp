// Tests for the event kernel and its sharded engine: pop order under
// cancel storms, epoch-drain edges, and the differential oracle — the
// sharded engine must produce outcomes identical to the serial Simulator
// across seeds, topologies, shard counts and thread counts (DESIGN.md §17).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace coop::sim {
namespace {

// --- Kernel pop order under cancel storms ----------------------------------
//
// One seeded storm, three kernels: a lone Simulator, a ShardedEngine shard
// driven through its epoch drain (windowed and zero-lookahead), and a
// reference that keeps its live entries in a vector and std::sorts them
// before every pop.  The storm schedules from outside and from inside
// callbacks (re-entrantly, including past-clamped and end-of-time
// inserts), cancels live, fired, cancelled and invalid ids, and stops
// and resumes with run_until.  All choices come from the storm's own rng,
// so every kernel sees the same operation stream; the fired (when, id)
// sequence, every cancel() result and pending() must match exactly.

/// The obviously-correct kernel: strict (when, id) order by std::sort.
class SortedReference {
 public:
  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return live_.size(); }

  EventId schedule_at(TimePoint when, EventFn fn) {
    live_.push_back({std::max(when, now_), next_id_, std::move(fn)});
    return next_id_++;
  }
  bool cancel(EventId id) {
    auto it = std::find_if(live_.begin(), live_.end(),
                           [id](const Ref& r) { return r.id == id; });
    if (it == live_.end()) return false;
    live_.erase(it);
    return true;
  }
  void run_until(TimePoint t) {
    for (;;) {
      std::sort(live_.begin(), live_.end(), [](const Ref& a, const Ref& b) {
        return a.when != b.when ? a.when < b.when : a.id < b.id;
      });
      if (live_.empty() || live_.front().when > t) break;
      Ref top = std::move(live_.front());
      live_.erase(live_.begin());
      now_ = top.when;
      top.fn();
    }
    now_ = std::max(now_, t);
  }

 private:
  struct Ref {
    TimePoint when;
    EventId id;
    EventFn fn;
  };
  std::vector<Ref> live_;
  EventId next_id_ = 1;
  TimePoint now_ = 0;
};

/// Adapter: the storm on shard 0 of a one-shard engine.
class EngineShard {
 public:
  explicit EngineShard(Duration lookahead)
      : eng_(ShardedConfig{.shards = 1, .lookahead = lookahead}) {}
  [[nodiscard]] TimePoint now() { return eng_.shard(0).now(); }
  [[nodiscard]] std::size_t pending() const { return eng_.pending(); }
  EventId schedule_at(TimePoint when, EventFn fn) {
    return eng_.schedule_at(0, when, std::move(fn));
  }
  bool cancel(EventId id) { return eng_.cancel(0, id); }
  void run_until(TimePoint t) { eng_.run_until(t); }

 private:
  ShardedEngine eng_;
};

struct StormLog {
  std::vector<std::pair<TimePoint, EventId>> fired;
  std::vector<bool> cancels;
  std::vector<std::size_t> pending;  // after every stop
  bool operator==(const StormLog&) const = default;
};

template <typename Kernel>
class Storm {
 public:
  /// With @p ties, every event lands on one of four timestamps (kTies)
  /// and the stops walk through them, so seq alone orders almost every
  /// pop.
  Storm(Kernel& k, std::uint64_t seed, bool ties = false)
      : k_(k), rng_(seed), ties_(ties) {}

  static constexpr TimePoint kTies[] = {100, 200, 300, 400};

  /// Rounds of outside schedules and cancels, each ended by a stop at a
  /// random point that run_until must resume from exactly.
  void rounds(int n) {
    TimePoint stop = k_.now();
    for (int round = 0; round < n; ++round) {
      for (int i = 0; i < 40; ++i) schedule_one();
      for (int i = 0; i < 10; ++i) cancel_one();
      stop = ties_ ? kTies[round * 4 / n]
                   : stop + static_cast<Duration>(rng_.next() % 3000);
      k_.run_until(stop);
      EXPECT_EQ(k_.now(), stop);
      log_.pending.push_back(k_.pending());
    }
  }

  [[nodiscard]] const StormLog& log() const { return log_; }

 private:
  void schedule_one() {
    const TimePoint now = k_.now();
    const std::uint64_t r = rng_.next() % 100;
    const auto within = [this](std::uint64_t range) {
      return static_cast<Duration>(rng_.next() % range);
    };
    TimePoint when;
    if (ties_) {
      when = kTies[r % 4];  // past ties clamp to now, itself a tie
    } else if (r < 5) {
      when = kTimeMax;  // "never" sentinel
    } else if (r < 15) {
      when = now - within(500);  // in the past: clamps to now
    } else if (r < 25) {
      when = now;  // same-timestamp FIFO
    } else if (r < 35) {
      when = saturating_after(now, within(1'000'000));  // far out
    } else {
      when = saturating_after(now, within(2000));
    }
    // The callback learns its own id through the index it captures: the
    // id is stored before any event can fire.
    const std::size_t k = ids_.size();
    ids_.push_back(kInvalidEvent);
    ids_[k] = k_.schedule_at(when, [this, k] { fire(k); });
  }

  void cancel_one() {
    // Mostly issued ids (live, fired or already cancelled), sometimes the
    // invalid handle or one never issued.
    const std::uint64_t r = rng_.next() % 20;
    EventId id = kInvalidEvent;
    if (r == 1) {
      id = ids_.size() + 1000;
    } else if (r > 1 && !ids_.empty()) {
      id = ids_[rng_.next() % ids_.size()];
    }
    log_.cancels.push_back(k_.cancel(id));
  }

  void fire(std::size_t k) {
    log_.fired.emplace_back(k_.now(), ids_[k]);
    // Re-entrant storm: children and cancels from inside a callback.
    // Fewer than one child per event on average keeps it finite.
    const std::uint64_t r = rng_.next() % 10;
    if (r < 4) schedule_one();
    if (r < 2) cancel_one();
    if (r == 0) schedule_one();
  }

  Kernel& k_;
  Rng rng_;
  bool ties_;
  std::vector<EventId> ids_;
  StormLog log_;
};

template <typename Kernel>
StormLog storm(Kernel& k, std::uint64_t seed) {
  Storm<Kernel> st(k, seed);
  st.rounds(40);
  return st.log();
}

TEST(KernelOrder, SerialKernelMatchesSortedReferenceUnderCancelStorms) {
  // Three mixed-timestamp storms, then a tie-heavy one: at most four
  // distinct timestamps, with hundreds of entries queued at once.  Its
  // heap drains through every size, so pops end on partial last sibling
  // groups (the bottom-up walk's tail path) and `last` sifts up through
  // runs of equal timestamps ordered by seq alone.
  struct Input {
    std::uint64_t seed;
    bool ties;
  };
  for (const Input in : {Input{1, false}, Input{2, false}, Input{3, false},
                         Input{4, true}}) {
    Simulator sim;
    SortedReference ref;
    Storm<Simulator> a(sim, in.seed, in.ties);
    Storm<SortedReference> b(ref, in.seed, in.ties);
    a.rounds(40);
    b.rounds(40);
    ASSERT_EQ(a.log(), b.log()) << "seed=" << in.seed;
    ASSERT_GT(a.log().fired.size(), 1000u);
    // Drain everything, "never" sentinels included (FIFO at kTimeMax).
    sim.run_until(kTimeMax);
    ref.run_until(kTimeMax);
    EXPECT_EQ(a.log().fired, b.log().fired) << "seed=" << in.seed;
    EXPECT_EQ(sim.pending(), 0u);
    if (!in.ties) {
      EXPECT_EQ(a.log().fired.back().first, kTimeMax);
      continue;
    }
    std::vector<TimePoint> times;
    for (const auto& f : a.log().fired) times.push_back(f.first);
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    EXPECT_LE(times.size(), 4u);
    EXPECT_GT(*std::max_element(a.log().pending.begin(),
                                a.log().pending.end()),
              200u);
  }
}

TEST(KernelOrder, EngineShardEpochDrainMatchesSortedReference) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SortedReference ref;
    const StormLog want = storm(ref, seed);
    // Windowed epochs narrower than the stop spacing (so runs stop
    // mid-window), and zero-lookahead timestamp epochs.
    for (const Duration lookahead : {usec(700), Duration{0}}) {
      EngineShard eng(lookahead);
      EXPECT_EQ(storm(eng, seed), want)
          << "seed=" << seed << " lookahead=" << lookahead;
    }
  }
}

// --- A shard's Simulator under the epoch drain -----------------------------

struct EpochRecord {
  TimePoint t0;
  TimePoint horizon;
  std::size_t events;
  bool operator==(const EpochRecord&) const = default;
};

void record_epochs(ShardedEngine& eng, std::vector<EpochRecord>& out) {
  eng.set_epoch_hook(
      [](void* ctx, TimePoint t0, TimePoint horizon, std::size_t events) {
        static_cast<std::vector<EpochRecord>*>(ctx)->push_back(
            {t0, horizon, events});
      },
      &out);
}

TEST(ShardSim, MirrorsSerialSchedulingSemantics) {
  ShardedEngine eng(ShardedConfig{.shards = 1, .lookahead = usec(30)});
  std::vector<EpochRecord> epochs;
  record_epochs(eng, epochs);
  std::vector<int> order;
  eng.schedule_at(0, usec(40), [&] { order.push_back(2); });
  eng.schedule_at(0, usec(10), [&] { order.push_back(1); });
  const EventId dead = eng.schedule_at(0, usec(20), [&] { order.push_back(9); });
  EXPECT_TRUE(eng.cancel(0, dead));
  EXPECT_FALSE(eng.cancel(0, dead));  // second cancel is a clean no-op
  EXPECT_EQ(eng.pending(), 2u);
  EXPECT_EQ(eng.run(), 2u);
  // The event at exactly t0 + L belongs to the next window.
  EXPECT_EQ(epochs, (std::vector<EpochRecord>{{usec(10), usec(40), 1},
                                              {usec(40), usec(70), 1}}));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.shard(0).now(), usec(40));
  EXPECT_EQ(eng.events_processed(), 2u);
}

TEST(ShardSim, BarrierEpochsFireOneTimestampAndFlushResidue) {
  ShardedEngine eng(ShardedConfig{.shards = 1});
  std::vector<EpochRecord> epochs;
  record_epochs(eng, epochs);
  std::vector<int> order;
  eng.schedule_at(0, usec(30), [&] { order.push_back(3); });
  eng.schedule_at(0, usec(10), [&] { order.push_back(1); });
  eng.cancel(0, eng.schedule_at(0, usec(20), [&] { order.push_back(2); }));
  EXPECT_EQ(eng.run(), 2u);
  // The cancelled entry still costs its timestamp one empty epoch.
  EXPECT_EQ(epochs, (std::vector<EpochRecord>{{usec(10), usec(10), 1},
                                              {usec(20), usec(20), 0},
                                              {usec(30), usec(30), 1}}));
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(eng.shard(0).now(), usec(30));
}

TEST(ShardSim, PastScheduleClampsToNow) {
  ShardedEngine eng(ShardedConfig{.shards = 1, .lookahead = usec(1)});
  std::vector<EpochRecord> epochs;
  record_epochs(eng, epochs);
  Simulator& shard = eng.shard(0);
  TimePoint fired_at = -1;
  eng.schedule_at(0, usec(50), [&] {
    // In the past: clamps to now = 50us, inside the current window.
    eng.schedule_at(0, usec(10), [&] { fired_at = shard.now(); });
  });
  EXPECT_EQ(eng.run(), 2u);
  EXPECT_EQ(epochs, (std::vector<EpochRecord>{{usec(50), usec(51), 2}}));
  EXPECT_EQ(fired_at, usec(50));
}

// --- Differential oracle ----------------------------------------------------
//
// One scenario, two kernels.  P participants in rooms of 4; each
// participant ticks on a room-dependent cadence, mutates commutative
// per-participant accumulators, and sends one datagram to a same-room
// neighbour (intra-shard) and one to its counterpart in the opposite room
// (inter-shard under any block assignment of rooms to shards).  All
// stochastic choices draw from per-participant rngs owned by the scenario
// — never from a kernel — so the event *content* is kernel-independent,
// and all state is insensitive to same-timestamp cross-participant
// interleaving, the only ordering freedom either kernel has.
//
// A delivery whose payload hits a rare residue cancels the receiver's
// pending tick (if still strictly in the future) — exercising cancel of
// an event across the epoch machinery.  Tick timestamps are kept even and
// delivery arrivals odd: a tick-vs-delivery timestamp collision would make
// the cancel decision depend on same-timestamp ordering, the one freedom
// the two kernels exercise differently.

struct Topology {
  Duration min_latency;   // lookahead for the sharded engine
  Duration local_jitter;  // intra-room extra delay range
  Duration remote_jitter; // cross-room extra delay range
};

constexpr Topology kWanTopology{msec(32), usec(100), msec(8)};
constexpr Topology kZeroLookahead{0, usec(100), usec(300)};

struct Participant {
  Rng rng{0};
  std::uint64_t acc = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t arrival_sum = 0;
  std::uint64_t msg_seq = 0;
  TimePoint next_tick = 0;     // scenario-tracked pending tick time
  std::uint64_t tick_handle = 0;
};

constexpr std::size_t kRoom = 4;

/// The kernel-independent scenario.  Adapter supplies: shards(),
/// shard_of(p), schedule(p, when, fn)->handle, cancel(p, handle),
/// send(src, dst, at, payload).
template <typename Adapter>
class DiffScenario {
 public:
  DiffScenario(std::size_t participants, std::uint64_t seed, Topology topo,
               Adapter& a)
      : topo_(topo), adapter_(a), ps_(participants) {
    for (std::size_t p = 0; p < ps_.size(); ++p)
      ps_[p].rng = Rng(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
  }

  void start() {
    for (std::uint32_t p = 0; p < ps_.size(); ++p) {
      const TimePoint first = cadence(p) + usec((p % 7) * 26);  // even
      arm_tick(p, first);
    }
  }

  void on_delivery(std::uint32_t dst, TimePoint at, std::uint64_t payload) {
    Participant& q = ps_[dst];
    q.sum += payload;
    q.xr ^= payload * 0x2545f4914f6cdd1dULL;
    ++q.deliveries;
    q.arrival_sum += static_cast<std::uint64_t>(at);
    if (payload % 31 == 0 && q.next_tick > at) {
      // Strictly-future guard keeps the decision independent of
      // same-timestamp ordering between this delivery and the tick.
      adapter_.cancel(dst, q.tick_handle);
      q.next_tick = 0;  // chain dies; no further draws from q.rng
    }
  }

  [[nodiscard]] std::uint64_t outcome_hash() const {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 1099511628211ULL;
      }
    };
    for (const Participant& p : ps_) {
      mix(p.acc);
      mix(p.sum);
      mix(p.xr);
      mix(p.deliveries);
      mix(p.arrival_sum);
    }
    return h;
  }

  [[nodiscard]] std::uint64_t total_deliveries() const {
    std::uint64_t n = 0;
    for (const Participant& p : ps_) n += p.deliveries;
    return n;
  }

 private:
  [[nodiscard]] Duration cadence(std::uint32_t p) const {
    return (p / kRoom) % 2 == 0 ? usec(5000) : usec(9000);
  }

  void arm_tick(std::uint32_t p, TimePoint when) {
    ps_[p].next_tick = when;
    ps_[p].tick_handle =
        adapter_.schedule(p, when, [this, p] { tick(p); });
  }

  void tick(std::uint32_t p) {
    Participant& me = ps_[p];
    const TimePoint t = me.next_tick;
    me.acc = me.acc * 6364136223846793005ULL + me.rng.next();

    const std::size_t nrooms = ps_.size() / kRoom;
    const std::size_t room = p / kRoom;
    const std::uint32_t partner = static_cast<std::uint32_t>(
        ((room + nrooms / 2) % nrooms) * kRoom + p % kRoom);
    const std::uint32_t neighbour =
        static_cast<std::uint32_t>(room * kRoom + (p + 1) % kRoom);

    // Fixed draw order: remote delay, remote payload, local delay,
    // local payload — identical on both kernels by construction.  The
    // | 1 makes every delay odd (cadences and offsets are even), so
    // arrivals never collide with tick timestamps.
    const auto rj = static_cast<std::uint64_t>(topo_.remote_jitter);
    const auto lj = static_cast<std::uint64_t>(topo_.local_jitter);
    const Duration rd = topo_.min_latency +
                        static_cast<Duration>(me.rng.next() % (rj + 1) | 1);
    const std::uint64_t rpay = me.rng.next();
    const Duration ld = static_cast<Duration>(me.rng.next() % (lj + 1) | 1);
    const std::uint64_t lpay = me.rng.next();
    adapter_.send(p, partner, t + rd, rpay, me.msg_seq++);
    adapter_.send(p, neighbour, t + ld, lpay, me.msg_seq++);

    arm_tick(p, t + cadence(p));
  }

  Topology topo_;
  Adapter& adapter_;
  std::vector<Participant> ps_;
};

/// Serial oracle adapter: everything on one Simulator.
class SerialAdapter {
 public:
  explicit SerialAdapter(Simulator& sim) : sim_(sim) {}

  template <typename F>
  std::uint64_t schedule(std::uint32_t, TimePoint when, F&& fn) {
    return sim_.schedule_at(when, std::forward<F>(fn));
  }
  void cancel(std::uint32_t, std::uint64_t handle) { sim_.cancel(handle); }
  void send(std::uint32_t, std::uint32_t dst, TimePoint at,
            std::uint64_t payload, std::uint64_t) {
    auto* self = this;
    sim_.schedule_at(at, [self, dst, at, payload] {
      self->deliver_(self->ctx_, dst, at, payload);
    });
  }

  void (*deliver_)(void*, std::uint32_t, TimePoint, std::uint64_t) = nullptr;
  void* ctx_ = nullptr;

 private:
  Simulator& sim_;
};

/// Sharded adapter: rooms block-assigned to shards (never straddling).
class ShardedAdapter {
 public:
  ShardedAdapter(ShardedEngine& eng, std::size_t participants)
      : eng_(eng), nrooms_(participants / kRoom) {}

  [[nodiscard]] std::uint16_t shard_of(std::uint32_t p) const {
    const std::size_t room = p / kRoom;
    return static_cast<std::uint16_t>(room * eng_.shards() / nrooms_);
  }

  template <typename F>
  std::uint64_t schedule(std::uint32_t p, TimePoint when, F&& fn) {
    return eng_.schedule_at(shard_of(p), when, std::forward<F>(fn));
  }
  void cancel(std::uint32_t p, std::uint64_t handle) {
    eng_.cancel(shard_of(p), handle);
  }
  void send(std::uint32_t src, std::uint32_t dst, TimePoint at,
            std::uint64_t payload, std::uint64_t seq) {
    eng_.send(ShardMsg{at, src, dst, shard_of(src), shard_of(dst),
                       static_cast<std::uint32_t>(seq), payload});
  }

 private:
  ShardedEngine& eng_;
  std::size_t nrooms_;
};

struct RunResult {
  std::uint64_t hash = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t events = 0;
};

RunResult run_serial(std::size_t participants, std::uint64_t seed,
                     Topology topo, TimePoint horizon) {
  Simulator sim;
  SerialAdapter adapter(sim);
  DiffScenario<SerialAdapter> scen(participants, seed, topo, adapter);
  adapter.ctx_ = &scen;
  adapter.deliver_ = [](void* ctx, std::uint32_t dst, TimePoint at,
                        std::uint64_t payload) {
    static_cast<DiffScenario<SerialAdapter>*>(ctx)->on_delivery(dst, at,
                                                                payload);
  };
  scen.start();
  sim.run_until(horizon);
  return {scen.outcome_hash(), scen.total_deliveries(),
          sim.events_processed()};
}

RunResult run_sharded(std::size_t participants, std::uint64_t seed,
                      Topology topo, TimePoint horizon, std::uint32_t shards,
                      std::uint32_t threads,
                      const std::vector<TimePoint>& stops = {}) {
  ShardedConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.lookahead = topo.min_latency;
  cfg.seed = seed;
  ShardedEngine eng(cfg);
  ShardedAdapter adapter(eng, participants);
  DiffScenario<ShardedAdapter> scen(participants, seed, topo, adapter);
  struct Ctx {
    DiffScenario<ShardedAdapter>* scen;
  } ctx{&scen};
  eng.set_msg_handler(
      [](void* c, const ShardMsg& m) {
        static_cast<Ctx*>(c)->scen->on_delivery(m.dst, m.at, m.payload);
      },
      &ctx);
  scen.start();
  for (const TimePoint t : stops) eng.run_until(t);  // mid-epoch stops
  eng.run_until(horizon);
  EXPECT_EQ(eng.lookahead_violations(), 0u);
  return {scen.outcome_hash(), scen.total_deliveries(),
          eng.events_processed()};
}

TEST(DifferentialOracle, ShardedMatchesSerialAcrossSeedTopologyMatrix) {
  constexpr std::size_t kParticipants = 64;  // 16 rooms
  const TimePoint horizon = msec(400);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const Topology& topo : {kWanTopology, kZeroLookahead}) {
      const RunResult serial = run_serial(kParticipants, seed, topo, horizon);
      ASSERT_GT(serial.deliveries, 0u);
      for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        const RunResult sharded =
            run_sharded(kParticipants, seed, topo, horizon, shards, 1);
        EXPECT_EQ(sharded.hash, serial.hash)
            << "seed=" << seed << " shards=" << shards
            << " lookahead=" << topo.min_latency;
        EXPECT_EQ(sharded.deliveries, serial.deliveries);
        EXPECT_EQ(sharded.events, serial.events)
            << "every tick and delivery is exactly one kernel event";
      }
    }
  }
}

TEST(DifferentialOracle, ThreadCountNeverChangesTheOutcome) {
  constexpr std::size_t kParticipants = 64;
  const TimePoint horizon = msec(300);
  for (const Topology& topo : {kWanTopology, kZeroLookahead}) {
    const RunResult one = run_sharded(kParticipants, 9, topo, horizon, 4, 1);
    const RunResult two = run_sharded(kParticipants, 9, topo, horizon, 4, 2);
    const RunResult four = run_sharded(kParticipants, 9, topo, horizon, 4, 4);
    EXPECT_EQ(one.hash, two.hash);
    EXPECT_EQ(one.hash, four.hash);
    EXPECT_EQ(one.events, two.events);
    EXPECT_EQ(one.events, four.events);
  }
}

TEST(DifferentialOracle, MidEpochStopResumesBitIdentically) {
  constexpr std::size_t kParticipants = 32;
  const TimePoint horizon = msec(300);
  // Stop points deliberately misaligned with both cadences and the
  // lookahead window so run_until clips epochs mid-flight.
  const std::vector<TimePoint> stops{usec(7'321), usec(41'999), msec(123)};
  for (const Topology& topo : {kWanTopology, kZeroLookahead}) {
    const RunResult straight =
        run_sharded(kParticipants, 4, topo, horizon, 4, 1);
    const RunResult stopped =
        run_sharded(kParticipants, 4, topo, horizon, 4, 1, stops);
    EXPECT_EQ(straight.hash, stopped.hash);
    EXPECT_EQ(straight.events, stopped.events);
    const RunResult serial = run_serial(kParticipants, 4, topo, horizon);
    EXPECT_EQ(stopped.hash, serial.hash);
  }
}

TEST(ShardedEngine, SameShardSendIsAnImmediateEvent) {
  ShardedConfig cfg;
  cfg.shards = 2;
  ShardedEngine eng(cfg);
  std::uint64_t got = 0;
  eng.set_msg_handler(
      [](void* ctx, const ShardMsg& m) {
        *static_cast<std::uint64_t*>(ctx) += m.payload;
      },
      &got);
  eng.send(ShardMsg{usec(10), 0, 1, 0, 0, 0, 7});
  EXPECT_EQ(eng.cross_shard_messages(), 0u);
  eng.run_until(usec(10));
  EXPECT_EQ(got, 7u);
  EXPECT_EQ(eng.now(), usec(10));
}

TEST(ShardedEngine, LookaheadViolationsAreCountedNotFatal) {
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = msec(10);
  ShardedEngine eng(cfg);
  std::uint64_t got = 0;
  eng.set_msg_handler(
      [](void* ctx, const ShardMsg& m) {
        *static_cast<std::uint64_t*>(ctx) += m.payload;
      },
      &got);
  // Arrival violates at >= now + lookahead (now=0, at=1ms < 10ms).
  eng.send(ShardMsg{msec(1), 0, 4, 0, 1, 0, 5});
  eng.run_until(msec(20));
  EXPECT_EQ(eng.lookahead_violations(), 1u);
  EXPECT_EQ(got, 5u);  // still delivered
}

TEST(ShardedEngine, ViolationsFromWorkerThreadsAreAllCounted) {
  // Both shards send concurrently (one on the coordinator, one on the
  // worker): a shared counter would lose increments and race.
  constexpr std::uint32_t kSends = 20'000;
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.threads = 2;
  cfg.lookahead = msec(10);
  ShardedEngine eng(cfg);
  std::uint64_t delivered[2] = {0, 0};  // one counter per receiving shard
  eng.set_msg_handler(
      [](void* ctx, const ShardMsg& m) {
        ++static_cast<std::uint64_t*>(ctx)[m.dst_shard];
      },
      delivered);
  for (std::uint16_t s = 0; s < 2; ++s) {
    eng.schedule_at(s, msec(1), [&eng, s] {
      const auto peer = static_cast<std::uint16_t>(1 - s);
      for (std::uint32_t i = 0; i < kSends; ++i)  // at < now + lookahead
        eng.send(ShardMsg{msec(2), s, peer, s, peer, i, 1});
    });
  }
  eng.run_until(msec(20));
  EXPECT_EQ(eng.lookahead_violations(), 2u * kSends);
  EXPECT_EQ(delivered[0], kSends);
  EXPECT_EQ(delivered[1], kSends);
}

TEST(ShardedEngine, EndOfTimeSentinelsStayPending) {
  // run() and run_until(kTimeMax) both stop short of kTimeMax "never"
  // events instead of spinning on an empty window at the end of time.
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.lookahead = msec(5);
  ShardedEngine eng(cfg);
  int fired = 0;
  eng.schedule_at(0, kTimeMax, [&fired] { ++fired; });
  eng.schedule_at(1, msec(1), [&fired] { ++fired; });
  EXPECT_EQ(eng.run_until(kTimeMax), 1u);
  EXPECT_EQ(eng.run(), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.pending(), 1u);
}

TEST(ShardedEngine, RunDrainsToQuiescence) {
  ShardedConfig cfg;
  cfg.shards = 4;
  cfg.lookahead = msec(5);
  ShardedEngine eng(cfg);
  std::uint64_t deliveries = 0;
  eng.set_msg_handler(
      [](void* ctx, const ShardMsg&) {
        ++*static_cast<std::uint64_t*>(ctx);
      },
      &deliveries);
  // Each shard ticks once and sends one cross-shard message forward.
  for (std::uint32_t s = 0; s < 4; ++s) {
    eng.schedule_at(s, usec(100), [&eng, s] {
      eng.send(ShardMsg{msec(6), s, s + 1, static_cast<std::uint16_t>(s),
                        static_cast<std::uint16_t>((s + 1) % 4), 0, 1});
    });
  }
  const std::size_t n = eng.run();
  EXPECT_EQ(n, 8u);  // 4 ticks + 4 deliveries
  EXPECT_EQ(deliveries, 4u);
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_GT(eng.epochs(), 0u);
}

}  // namespace
}  // namespace coop::sim
