// T1 — wall-clock throughput of the hot message path, plus four outcome
// hashes that pin its virtual-time behaviour.
//
// Every other bench in this suite reports *virtual-time* quality metrics
// (latencies, miss rates, fairness).  T1 measures the one thing those hide:
// how many kernel events and simulated datagrams the platform pushes
// through per wall-clock second.  That number caps experiment scale — E12
// tops out near 10k participants not because the model breaks but because
// the host runs out of patience — so it is tracked as a first-class,
// regression-guarded metric.
//
// Four drivers, shaped after the experiments that stress each hot path:
//
//   group     (E8 shape)  — reliable FIFO multicast storm: fan-out copies,
//                           ack implosion, retransmit timers.
//   rpc       (R2 shape)  — unicast request/response against a serial,
//                           admission-controlled server: the steady-state
//                           two-datagram round trip.
//   awareness (E12 shape) — thousands of tiny timer events (heartbeats,
//                           digest flushes) around an indexed awareness
//                           engine: pure kernel scheduling pressure.
//   sharded   (E13 shape)  — the sharded parallel kernel driving a
//                           space-time-matrix tick/message workload across
//                           8 shards with conservative lookahead; its hash
//                           pins the cross-shard merge order.
//
// Each driver is a pure function of its seed in virtual time: it folds an
// FNV-1a hash over its delivery sequence and final counters.  The hashes
// land in the BENCH artifact knobs as t1.<driver>.hash, and
// scripts/bench_t1_gate.sh pins them against bench/baselines/
// t1_baseline.json; only the wall-clock figures may move.  Those are the
// events_per_sec and messages_per_sec benchmark counters (read them with
// BENCHMARK_OUT=<file> BENCHMARK_OUT_FORMAT=json);
// scripts/artifact_ab_gate.sh compares events_per_sec against the
// merge-base on the same host.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "awareness/engine.hpp"
#include "awareness/spatial.hpp"
#include "core/coop.hpp"
#include "util/fnv.hpp"

using namespace coop;

namespace {

// --- outcome bookkeeping ---------------------------------------------------

struct Outcome {
  std::uint64_t hash = 1469598103934665603ULL;  ///< FNV-1a offset basis
  std::uint64_t kernel_events = 0;   ///< sim events executed by the driver
  std::uint64_t messages = 0;        ///< datagrams transmitted
  std::uint64_t deliveries = 0;      ///< application-level deliveries
  double wall_s = 0;                 ///< wall-clock seconds (nondeterministic)
};

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
}

char hex_digit(std::uint64_t v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

std::string hex64(std::uint64_t v) {
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4)
    s[static_cast<std::size_t>(i)] = hex_digit(v & 0xf);
  return s;
}

// --- drivers ---------------------------------------------------------------

/// E8 shape: a 16-member reliable FIFO group, every member broadcasting in
/// lockstep rounds.  Each broadcast fans out to 15 copies, each delivery
/// acks back — the multicast payload-sharing path and the retransmit
/// machinery under full load.
Outcome run_group_storm(std::uint64_t seed) {
  constexpr int kMembers = 16;
  constexpr int kRounds = 400;
  Platform p(seed);
  sim::Simulator& sim = p.simulator();

  std::vector<net::Address> addrs;
  for (int i = 0; i < kMembers; ++i)
    addrs.push_back({static_cast<net::NodeId>(i + 1), 9});

  groups::ChannelConfig cfg;
  cfg.ordering = groups::Ordering::kFifo;
  Outcome out;
  std::vector<std::unique_ptr<groups::GroupChannel>> chans;
  for (int i = 0; i < kMembers; ++i) {
    chans.push_back(std::make_unique<groups::GroupChannel>(
        p.network(), addrs[static_cast<std::size_t>(i)], /*group=*/77, cfg));
    chans.back()->on_deliver([&out, &sim, i](const groups::Delivery& d) {
      ++out.deliveries;
      fnv_mix(out.hash, static_cast<std::uint64_t>(i));
      fnv_mix(out.hash, static_cast<std::uint64_t>(d.sender));
      fnv_mix(out.hash, d.seq);
      fnv_mix(out.hash, static_cast<std::uint64_t>(sim.now()));
      fnv_mix(out.hash, util::fnv1a32(d.payload));
    });
  }
  for (auto& ch : chans) ch->set_members(addrs);

  // The ambient registry aggregates across drivers in this process, so
  // message totals are deltas from here.
  const std::uint64_t sent0 = p.network().stats().sent;
  for (int r = 0; r < kRounds; ++r) {
    sim.schedule_at(sim::msec(2) * r, [&chans, r] {
      for (std::size_t m = 0; m < chans.size(); ++m) {
        chans[m]->broadcast("update/" + std::to_string(r) + "/" +
                            std::to_string(m) + "/payload-body-64-bytes");
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  out.kernel_events = sim.events_processed();
  out.messages = p.network().stats().sent - sent0;
  for (const auto& ch : chans) {
    fnv_mix(out.hash, ch->stats().delivered);
    fnv_mix(out.hash, ch->stats().retransmits);
  }
  fnv_mix(out.hash, p.network().stats().delivered);
  fnv_mix(out.hash, static_cast<std::uint64_t>(sim.now()));
  fnv_mix(out.hash, out.kernel_events);
  return out;
}

/// R2 shape: eight clients hammering one serial, admission-controlled
/// server with small echo calls — the steady-state unicast round trip
/// (request out, reply back, timers armed and cancelled per call).
Outcome run_rpc_storm(std::uint64_t seed) {
  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 2000;
  Platform p(seed);
  sim::Simulator& sim = p.simulator();

  rpc::RpcServer server(p.network(), {1, 1});
  server.set_processing_time(sim::usec(50));
  server.set_admission(rpc::AdmissionConfig{});
  server.register_method("echo", [](const std::string& b) {
    return rpc::HandlerResult::success(b);
  });

  Outcome out;
  const std::uint64_t sent0 = p.network().stats().sent;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<rpc::RpcClient>(
        p.network(),
        net::Address{static_cast<net::NodeId>(c + 2), 7}));
  }
  for (int c = 0; c < kClients; ++c) {
    rpc::RpcClient* cl = clients[static_cast<std::size_t>(c)].get();
    for (int k = 0; k < kCallsPerClient; ++k) {
      sim.schedule_at(sim::usec(500) * k + sim::usec(60) * c,
                      [cl, &out, &sim, c, k] {
                        cl->call({1, 1}, "echo",
                                 "req/" + std::to_string(c) + "/" +
                                     std::to_string(k),
                                 [&out, &sim](const rpc::RpcResult& r) {
                                   ++out.deliveries;
                                   fnv_mix(out.hash,
                                           static_cast<std::uint64_t>(
                                               r.status));
                                   fnv_mix(out.hash,
                                           static_cast<std::uint64_t>(
                                               sim.now()));
                                   fnv_mix(out.hash,
                                           static_cast<std::uint64_t>(r.rtt));
                                 });
                      });
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  out.kernel_events = sim.events_processed();
  out.messages = p.network().stats().sent - sent0;
  fnv_mix(out.hash, server.requests_handled());
  fnv_mix(out.hash, server.shed_total());
  fnv_mix(out.hash, p.network().stats().delivered);
  fnv_mix(out.hash, static_cast<std::uint64_t>(sim.now()));
  fnv_mix(out.hash, out.kernel_events);
  return out;
}

/// E12 shape: an indexed awareness engine under a publish storm, plus one
/// 2 ms heartbeat timer per participant — more than a million tiny kernel
/// events whose callbacks do almost nothing, isolating the cost of
/// scheduling itself (callable storage, live-set upkeep, queue churn).
Outcome run_awareness_churn(std::uint64_t seed) {
  constexpr int kParticipants = 2000;
  constexpr int kPublishes = 6000;
  sim::Simulator sim(seed);
  awareness::SpatialModel space;
  awareness::EngineConfig cfg;
  cfg.digest_period = sim::msec(50);
  awareness::AwarenessEngine engine(sim, space, cfg, obs::default_obs());

  Outcome out;
  const double world = 450.0;
  sim::Rng place_rng(seed * 1000003ULL);
  for (awareness::ClientId id = 1; id <= kParticipants; ++id) {
    space.place(id, {place_rng.uniform(0, world), place_rng.uniform(0, world)});
    space.set_focus(id, 12.0);
    space.set_nimbus(id, 12.0);
    engine.subscribe(id, [&out, &sim, id](const awareness::ActivityEvent& e,
                                          double w, bool digest) {
      ++out.deliveries;
      fnv_mix(out.hash, static_cast<std::uint64_t>(id));
      fnv_mix(out.hash, static_cast<std::uint64_t>(sim.now()));
      fnv_mix(out.hash, static_cast<std::uint64_t>(e.actor));
      std::uint64_t bits;
      std::memcpy(&bits, &w, sizeof(bits));
      fnv_mix(out.hash, bits);
      fnv_mix(out.hash, digest ? 1 : 0);
    });
  }

  // Heartbeats: the kernel-pressure component.  Each tick folds its id
  // into the hash so cross-timer ordering is part of the contract.
  std::vector<std::unique_ptr<sim::PeriodicTimer>> beats;
  for (int i = 0; i < kParticipants; ++i) {
    beats.push_back(std::make_unique<sim::PeriodicTimer>(
        sim, sim::msec(2), [&out, i] {
          fnv_mix(out.hash, static_cast<std::uint64_t>(i) * 2654435761ULL);
        }));
    beats.back()->start(sim::usec(i));
  }

  constexpr int kHotObjects = kParticipants / 8;
  for (int n = 0; n < kPublishes; ++n) {
    sim.schedule_at(sim::usec(250) * n, [&engine, &space, &sim, n] {
      sim::Rng& rng = sim.rng();
      const auto actor = static_cast<awareness::ClientId>(
          rng.uniform_int(1, kParticipants));
      if (auto at = space.position(actor)) {
        space.place(actor, {at->x + rng.uniform(-5, 5),
                            at->y + rng.uniform(-5, 5)});
      }
      engine.publish({actor,
                      "doc/" + std::to_string(rng.uniform_int(
                                   0, kHotObjects - 1)),
                      "edit", sim.now()});
      (void)n;
    });
  }
  const sim::TimePoint horizon = sim::usec(250) * kPublishes + sim::msec(100);

  const auto t0 = std::chrono::steady_clock::now();
  // run_until, not run(): the engine's digest flush timer re-arms forever,
  // so the awareness world never quiesces on its own.
  sim.run_until(horizon);
  for (auto& b : beats) b->stop();
  sim.run_until(horizon + sim::msec(200));
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  out.kernel_events = sim.events_processed();
  out.messages = 0;
  fnv_mix(out.hash, engine.stats().published);
  fnv_mix(out.hash, out.deliveries);
  fnv_mix(out.hash, static_cast<std::uint64_t>(sim.now()));
  fnv_mix(out.hash, out.kernel_events);
  return out;
}

/// E13 shape: the sharded parallel kernel under a space-time-matrix
/// workload — participants in rooms, each ticking and sending one
/// intra-room (same-shard) and one cross-room (cross-shard, WAN-latency)
/// datagram per tick.  All stochastic choices draw from per-participant
/// rngs, so the outcome hash is a pure function of the seed and pins the
/// deterministic cross-shard merge.  (bench_e13_million_users runs the
/// same shape at 10k-1M participants with a serial differential oracle;
/// this driver is the small, gate-tracked sentinel.)
Outcome run_sharded_storm(std::uint64_t seed) {
  constexpr std::uint32_t kParticipants = 2048;
  constexpr std::uint32_t kRoom = 16;
  constexpr std::uint32_t kRooms = kParticipants / kRoom;
  constexpr std::uint32_t kShards = 8;
  const sim::Duration lookahead = sim::msec(32);
  const sim::TimePoint horizon = sim::sec(2);

  sim::ShardedConfig cfg;
  cfg.shards = kShards;
  cfg.lookahead = lookahead;
  cfg.seed = seed;
  sim::ShardedEngine eng(cfg);

  struct P {
    sim::Rng rng{0};
    std::uint64_t acc = 0;
    std::uint64_t msg_seq = 0;
  };
  struct World {
    std::vector<P> ps;
    sim::ShardedEngine* eng = nullptr;
    Outcome* out = nullptr;
    static std::uint16_t shard_of(std::uint32_t p) {
      return static_cast<std::uint16_t>((p / kRoom) * kShards / kRooms);
    }
    void tick(std::uint32_t p, sim::TimePoint t) {
      P& me = ps[p];
      me.acc = me.acc * 6364136223846793005ULL + me.rng.next();
      const std::uint32_t room = p / kRoom;
      const std::uint32_t partner =
          ((room + kRooms / 2) % kRooms) * kRoom + p % kRoom;
      const std::uint32_t neighbour = room * kRoom + (p + 1) % kRoom;
      const auto rd = static_cast<sim::Duration>(
          static_cast<std::uint64_t>(sim::msec(32)) + me.rng.next() % 8000);
      const std::uint64_t rpay = me.rng.next();
      const auto ld = static_cast<sim::Duration>(
          static_cast<std::uint64_t>(sim::usec(300)) + me.rng.next() % 100);
      const std::uint64_t lpay = me.rng.next();
      eng->send({t + rd, p, partner, shard_of(p), shard_of(partner),
                 static_cast<std::uint32_t>(me.msg_seq++), rpay});
      eng->send({t + ld, p, neighbour, shard_of(p), shard_of(neighbour),
                 static_cast<std::uint32_t>(me.msg_seq++), lpay});
      const sim::TimePoint next = t + sim::msec(room % 2 == 0 ? 20 : 100);
      World* w = this;
      eng->schedule_at(shard_of(p), next, [w, p, next] { w->tick(p, next); });
    }
  };

  Outcome out;
  World world;
  world.ps.resize(kParticipants);
  world.eng = &eng;
  world.out = &out;
  for (std::uint32_t p = 0; p < kParticipants; ++p)
    world.ps[p].rng = sim::Rng(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
  eng.set_msg_handler(
      [](void* ctx, const sim::ShardMsg& m) {
        auto* w = static_cast<World*>(ctx);
        ++w->out->deliveries;
        fnv_mix(w->out->hash, static_cast<std::uint64_t>(m.dst));
        fnv_mix(w->out->hash, static_cast<std::uint64_t>(m.at));
        fnv_mix(w->out->hash, m.payload);
      },
      &world);
  for (std::uint32_t p = 0; p < kParticipants; ++p) {
    const sim::TimePoint first =
        sim::msec(1) + sim::usec((p % 97) * 11);
    World* w = &world;
    eng.schedule_at(World::shard_of(p), first,
                    [w, p, first] { w->tick(p, first); });
  }

  const auto t0 = std::chrono::steady_clock::now();
  eng.run_until(horizon);
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  out.kernel_events = eng.events_processed();
  out.messages = eng.cross_shard_messages();
  for (const P& p : world.ps) fnv_mix(out.hash, p.acc);
  fnv_mix(out.hash, eng.epochs() != 0 ? 1 : 0);
  fnv_mix(out.hash, eng.lookahead_violations());
  fnv_mix(out.hash, out.kernel_events);
  return out;
}

// --- registration ----------------------------------------------------------

/// Publishes @p out: its hash as the t1.<name>.hash artifact knob, its
/// wall-clock rates as benchmark counters.
void report(benchmark::State& state, const char* name, const Outcome& out) {
  obs::default_obs()->meta.knobs[std::string("t1.") + name + ".hash"] =
      hex64(out.hash);
  state.counters["events_per_sec"] =
      static_cast<double>(out.kernel_events) / out.wall_s;
  state.counters["messages_per_sec"] =
      static_cast<double>(out.messages) / out.wall_s;
  state.counters["deliveries"] = static_cast<double>(out.deliveries);
  state.counters["kernel_events"] = static_cast<double>(out.kernel_events);
}

void BM_T1_Group(benchmark::State& state) {
  Outcome out;
  for (auto _ : state) out = run_group_storm(/*seed=*/101);
  report(state, "group", out);
}

void BM_T1_Rpc(benchmark::State& state) {
  Outcome out;
  for (auto _ : state) out = run_rpc_storm(/*seed=*/102);
  report(state, "rpc", out);
}

void BM_T1_Awareness(benchmark::State& state) {
  Outcome out;
  for (auto _ : state) out = run_awareness_churn(/*seed=*/103);
  report(state, "awareness", out);
}

void BM_T1_Sharded(benchmark::State& state) {
  Outcome out;
  for (auto _ : state) out = run_sharded_storm(/*seed=*/104);
  report(state, "sharded", out);
}

BENCHMARK(BM_T1_Group)->Iterations(1);
BENCHMARK(BM_T1_Rpc)->Iterations(1);
BENCHMARK(BM_T1_Awareness)->Iterations(1);
BENCHMARK(BM_T1_Sharded)->Iterations(1);

}  // namespace

#include "bench_harness.hpp"
COOP_BENCH_MAIN("t1_throughput")
