// E12 — awareness fan-out at scale: indexed candidate sets vs the
// brute-force all-observer walk (§4.2.1 awareness weightings over the
// §3.3.2 spatial model, which was designed for "large unbounded space").
//
// Sweep: 100 -> 10 000 participants at constant spatial density (world
// side grows with sqrt(N)), each under the same seeded workload of random
// walks plus edit storms against a hot object set, with periodic digest
// flushes and interest GC in the loop.  Published events per run is held
// constant, so per-publish cost isolates the fan-out mechanism:
//
//   brute   — every publish walks all N observers (the pre-index engine);
//             candidate-set size == N-1 and wall cost grows linearly.
//   indexed — the uniform-grid spatial index plus the inverted interest
//             index yield a candidate set that tracks local density, not
//             N; candidate size and per-publish cost stay flat.
//
// Parity mode is the differential contract: the same (N, seed) workload
// is replayed through both engines and the FNV-1a hash over the exact
// delivery sequence (observer, sim time, actor, object, weight bits,
// path) plus every EngineStats field must match bit-for-bit.  Any
// divergence makes the binary exit non-zero, so scripts/check.sh and CI
// fail on the mechanism itself, not on a downstream diff.  Same seed =>
// byte-identical BENCH_e12_awareness.json modulo wall_ms.
//
// Timing: one run's ns/publish swings up to 2x with host noise, so the
// sweep rows carry the deterministic figures and the SweepTiming rows
// time each cell kSweepRepeats times and report the median ns/publish.
// Every repeat must reproduce the cell's delivery hash (else the binary
// exits non-zero), and the repeats record into private Obs contexts, so
// the artifact is the same with or without them.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "awareness/engine.hpp"
#include "awareness/spatial.hpp"
#include "obs/obs.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

using namespace coop;
using awareness::ActivityEvent;
using awareness::AwarenessEngine;
using awareness::ClientId;

namespace {

constexpr int kPublishesPerRun = 2000;
constexpr int kSweepRepeats = 5;

std::uint64_t g_parity_failures = 0;
std::uint64_t g_repeat_failures = 0;
/// Delivery hash of each recorded sweep cell, keyed (use_index, N).
std::map<std::pair<bool, int>, std::uint64_t> g_sweep_hashes;

struct Outcome {
  std::uint64_t delivery_hash = 1469598103934665603ULL;  // FNV-1a offset
  std::uint64_t deliveries = 0;
  awareness::EngineStats stats;
  double candidate_mean = 0;
  std::size_t interest_table_final = 0;
  double publish_wall_ns = 0;  ///< wall time inside publish() only
};

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
}

void fnv_mix_str(std::uint64_t& h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
}

/// One full seeded workload against one engine.  Everything is a pure
/// function of (participants, seed, use_index) except publish_wall_ns.
Outcome run_awareness(int participants, std::uint64_t seed, bool use_index,
                      obs::Obs* sink) {
  sim::Simulator sim(seed);
  awareness::SpatialModel space;
  awareness::EngineConfig cfg;
  cfg.full_threshold = 0.4;
  cfg.digest_period = sim::sec(5);
  cfg.interest_decay = sim::sec(10);
  cfg.interest_gc_factor = 5.0;  // horizon 50 s: GC fires mid-run
  cfg.use_index = use_index;
  AwarenessEngine engine(sim, space, cfg, sink);

  Outcome out;
  // Constant density: ~4.5 expected spatial neighbours per participant
  // regardless of N (world side 10 * sqrt(N), aura radius 12).
  const double world = 10.0 * std::sqrt(static_cast<double>(participants));
  sim::Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(participants));
  for (ClientId id = 1; id <= static_cast<ClientId>(participants); ++id) {
    space.place(id, {rng.uniform(0, world), rng.uniform(0, world)});
    space.set_focus(id, 12.0);
    space.set_nimbus(id, 12.0);
    engine.subscribe(id, [&out, &sim, id](const ActivityEvent& e, double w,
                                          bool digest) {
      ++out.deliveries;
      fnv_mix(out.delivery_hash, static_cast<std::uint64_t>(id));
      fnv_mix(out.delivery_hash, static_cast<std::uint64_t>(sim.now()));
      fnv_mix(out.delivery_hash, static_cast<std::uint64_t>(e.actor));
      fnv_mix_str(out.delivery_hash, e.object);
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(w));
      std::memcpy(&bits, &w, sizeof(bits));
      fnv_mix(out.delivery_hash, bits);
      fnv_mix(out.delivery_hash, digest ? 1 : 0);
    });
  }

  const int hot_objects = participants / 8 + 1;
  double candidate_sum = 0;
  int published = 0;
  std::chrono::steady_clock::duration publish_wall{};
  while (published < kPublishesPerRun) {
    // A burst of walks + edits, then 300 ms of sim time so digest
    // flushes (and interest GC) interleave with the storm.
    for (int b = 0; b < 8 && published < kPublishesPerRun; ++b) {
      const auto actor = static_cast<ClientId>(
          rng.uniform_int(1, participants));
      if (auto at = space.position(actor)) {
        space.place(actor, {at->x + rng.uniform(-5, 5),
                            at->y + rng.uniform(-5, 5)});
      }
      if (rng.uniform() < 0.1) {
        engine.mark_interest(
            static_cast<ClientId>(rng.uniform_int(1, participants)),
            "doc/" + std::to_string(rng.uniform_int(0, hot_objects - 1)));
      }
      const ActivityEvent e{
          actor,
          "doc/" + std::to_string(rng.uniform_int(0, hot_objects - 1)),
          "edit", sim.now()};
      const auto t0 = std::chrono::steady_clock::now();
      engine.publish(e);
      publish_wall += std::chrono::steady_clock::now() - t0;
      candidate_sum += static_cast<double>(engine.last_candidate_set());
      ++published;
    }
    sim.run_for(sim::msec(300));
  }
  sim.run_for(sim::sec(10));  // drain the last digests

  out.stats = engine.stats();
  out.candidate_mean = candidate_sum / kPublishesPerRun;
  out.interest_table_final = engine.interest_table_size();
  out.publish_wall_ns =
      std::chrono::duration<double, std::nano>(publish_wall).count();
  return out;
}

char hex_digit(std::uint64_t v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

std::string hex64(std::uint64_t v) {
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[static_cast<std::size_t>(i)] =
      hex_digit(v & 0xf);
  return s;
}

void BM_E12Sweep(benchmark::State& state) {
  const bool use_index = state.range(0) != 0;
  const int participants = static_cast<int>(state.range(1));
  const auto seed = static_cast<std::uint64_t>(state.range(2));
  Outcome out;
  for (auto _ : state)
    out = run_awareness(participants, seed, use_index, /*sink=*/nullptr);

  obs::Obs& ambient = *obs::default_obs();
  const std::string key = std::string("e12.") +
                          (use_index ? "indexed" : "brute") + ".n" +
                          std::to_string(participants) + ".";
  ambient.metrics.counter(key + "published").inc(out.stats.published);
  ambient.metrics.counter(key + "immediate").inc(out.stats.immediate);
  ambient.metrics.counter(key + "digested").inc(out.stats.digested);
  ambient.metrics.counter(key + "coalesced").inc(out.stats.coalesced);
  ambient.metrics.counter(key + "suppressed").inc(out.stats.suppressed);
  ambient.metrics.counter(key + "interest_evicted")
      .inc(out.stats.interest_evicted);
  ambient.metrics.counter(key + "deliveries").inc(out.deliveries);
  ambient.metrics.gauge(key + "candidate_mean").set(out.candidate_mean);
  ambient.metrics.gauge(key + "interest_table_final")
      .set(static_cast<double>(out.interest_table_final));
  // The 64-bit sequence hash would lose bits as a double; keep it exact
  // as a provenance knob instead.
  ambient.meta.knobs[key + "hash"] = hex64(out.delivery_hash);

  g_sweep_hashes[{use_index, participants}] = out.delivery_hash;

  state.counters["cand_mean"] = out.candidate_mean;
  state.counters["deliveries"] = static_cast<double>(out.deliveries);
  state.SetLabel(std::string(use_index ? "indexed" : "brute") + "/n" +
                 std::to_string(participants));
}

/// Registered last: every engine draws a process-wide instance number,
/// which names the artifact's awareness.<n>.* metrics, so engines built
/// before a recorded one would rename its metrics.
void BM_E12SweepTiming(benchmark::State& state) {
  const bool use_index = state.range(0) != 0;
  const int participants = static_cast<int>(state.range(1));
  const auto seed = static_cast<std::uint64_t>(state.range(2));
  std::vector<double> ns_per_publish;
  for (auto _ : state) {
    auto want = g_sweep_hashes.find({use_index, participants});
    for (int r = 0; r < kSweepRepeats; ++r) {
      obs::Obs quiet;
      const Outcome out = run_awareness(participants, seed, use_index, &quiet);
      if (want == g_sweep_hashes.end())
        want = g_sweep_hashes.try_emplace({use_index, participants},
                                          out.delivery_hash).first;
      if (out.delivery_hash != want->second) {
        ++g_repeat_failures;
        std::fprintf(stderr, "[%s n=%d] REPEAT DIVERGED: hash %s vs %s\n",
                     use_index ? "indexed" : "brute", participants,
                     hex64(out.delivery_hash).c_str(),
                     hex64(want->second).c_str());
      }
      ns_per_publish.push_back(out.publish_wall_ns / kPublishesPerRun);
    }
  }
  std::sort(ns_per_publish.begin(), ns_per_publish.end());
  state.counters["ns_per_publish"] = ns_per_publish[ns_per_publish.size() / 2];
  state.SetLabel(std::string(use_index ? "indexed" : "brute") + "/n" +
                 std::to_string(participants) + "/median_of_" +
                 std::to_string(kSweepRepeats));
}

void BM_E12Parity(benchmark::State& state) {
  const int participants = static_cast<int>(state.range(0));
  const auto seed = static_cast<std::uint64_t>(state.range(1));
  Outcome brute, indexed;
  for (auto _ : state) {
    obs::Obs quiet;  // parity runs stay out of the shared artifact
    brute = run_awareness(participants, seed, /*use_index=*/false, &quiet);
    indexed = run_awareness(participants, seed, /*use_index=*/true, &quiet);
  }

  const awareness::EngineStats& b = brute.stats;
  const awareness::EngineStats& x = indexed.stats;
  const bool ok =
      brute.delivery_hash == indexed.delivery_hash &&
      brute.deliveries == indexed.deliveries &&
      b.published == x.published && b.immediate == x.immediate &&
      b.digested == x.digested && b.coalesced == x.coalesced &&
      b.suppressed == x.suppressed &&
      b.digests_dropped == x.digests_dropped &&
      b.interest_evicted == x.interest_evicted &&
      b.notification_time.total() == x.notification_time.total() &&
      brute.interest_table_final == indexed.interest_table_final;
  if (!ok) {
    ++g_parity_failures;
    std::fprintf(stderr,
                 "[n=%d seed %llu] PARITY VIOLATION: brute hash %s "
                 "(%llu deliveries) vs indexed hash %s (%llu deliveries)\n",
                 participants, static_cast<unsigned long long>(seed),
                 hex64(brute.delivery_hash).c_str(),
                 static_cast<unsigned long long>(brute.deliveries),
                 hex64(indexed.delivery_hash).c_str(),
                 static_cast<unsigned long long>(indexed.deliveries));
  }

  obs::Obs& ambient = *obs::default_obs();
  const std::string key = "e12.parity.n" + std::to_string(participants) +
                          ".s" + std::to_string(seed) + ".";
  ambient.metrics.counter(key + "ok").inc(ok ? 1 : 0);
  ambient.meta.knobs[key + "hash"] = hex64(indexed.delivery_hash);

  state.counters["ok"] = ok ? 1 : 0;
  state.counters["deliveries"] = static_cast<double>(indexed.deliveries);
  state.SetLabel("parity/n" + std::to_string(participants) + "/s" +
                 std::to_string(seed));
}

BENCHMARK(BM_E12Sweep)
    ->ArgsProduct({{0, 1}, {100, 300, 1000, 3000, 10000}, {1}})
    ->Iterations(1);

BENCHMARK(BM_E12Parity)
    ->ArgsProduct({{100, 300, 1000}, {1, 2, 3}})
    ->Iterations(1);

BENCHMARK(BM_E12SweepTiming)
    ->ArgsProduct({{0, 1}, {100, 300, 1000, 3000, 10000}, {1}})
    ->Iterations(1);

/// A non-zero exit code when any brute-vs-indexed replay, or any timing
/// repeat, diverged, so CI fails on the parity contract itself rather
/// than on an artifact diff.
int parity_verdict(obs::Obs&) {
  if (g_parity_failures == 0 && g_repeat_failures == 0) return 0;
  std::fprintf(stderr,
               "awareness parity FAILED: %llu divergent run(s), %llu "
               "divergent repeat(s)\n",
               static_cast<unsigned long long>(g_parity_failures),
               static_cast<unsigned long long>(g_repeat_failures));
  return 2;
}

}  // namespace

#include "bench_harness.hpp"
COOP_BENCH_MAIN("e12_awareness", {.verdict = parity_verdict})
