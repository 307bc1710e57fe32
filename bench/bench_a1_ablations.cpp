// A1 — ablations of coop's own design choices (DESIGN.md §7 / README
// design notes).  Not a paper experiment: these sweeps justify the
// defaults the other benches run with.
//
//   1. Reliable-multicast retransmission timeout vs the path RTT: a
//      timeout below the RTT re-sends every datagram while its ack is in
//      flight (traffic amplification ~2x for zero latency benefit).
//   2. Awareness digest period: the freshness-vs-load dial — longer
//      periods coalesce more (fewer deliveries) at the price of staler
//      peripheral awareness.
//   3. Media sink prebuffer: a longer jitter buffer absorbs arrival
//      variance (fewer playout underruns modelled as late-vs-position
//      frames) at the price of added start-up latency.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/coop.hpp"

using namespace coop;

namespace {

// --- 1. retransmission timeout vs RTT ---------------------------------------

void BM_RetransmitTimeout(benchmark::State& state) {
  const auto timeout = sim::msec(state.range(0));
  double msgs_per_update = 0, deliver_ms = 0, retransmits = 0;
  for (auto _ : state) {
    Platform platform(61);
    auto& sim = platform.simulator();
    auto& net = platform.network();
    net.set_default_link(net::LinkModel::wan());  // RTT ~80 ms

    const std::vector<net::Address> members = {{1, 10}, {2, 10}, {3, 10}};
    groups::ChannelConfig config{.ordering = groups::Ordering::kFifo,
                                 .retransmit_timeout = timeout,
                                 .max_retransmits = 30};
    std::vector<std::unique_ptr<groups::GroupChannel>> chans;
    for (const auto& a : members)
      chans.push_back(
          std::make_unique<groups::GroupChannel>(net, a, 3, config));
    util::Summary latency;
    for (auto& c : chans) {
      c->set_members(members);
      c->on_deliver([&](const groups::Delivery& d) {
        latency.add(static_cast<double>(sim.now() - d.sent_at));
      });
    }
    const int kUpdates = 100;
    for (int i = 0; i < kUpdates; ++i) {
      sim.schedule_at(i * sim::msec(50), [&chans, i] {
        chans[0]->broadcast("u" + std::to_string(i));
      });
    }
    sim.run();
    msgs_per_update = static_cast<double>(net.stats().sent) / kUpdates;
    deliver_ms = latency.mean() / 1000.0;
    retransmits = static_cast<double>(chans[0]->stats().retransmits);
  }
  state.counters["timeout_ms"] = static_cast<double>(state.range(0));
  state.counters["msgs_per_update"] = msgs_per_update;
  state.counters["deliver_ms_mean"] = deliver_ms;
  state.counters["retransmits"] = retransmits;
}

// --- 2. awareness digest period ----------------------------------------------

void BM_DigestPeriod(benchmark::State& state) {
  const auto period = sim::sec(state.range(0));
  double deliveries = 0, p95_s = 0, coalesced = 0;
  for (auto _ : state) {
    Platform platform(62);
    auto& sim = platform.simulator();
    awareness::SpatialModel space;
    space.place(1, {0, 0});
    space.place(2, {8, 0});  // peripheral distance
    awareness::AwarenessEngine engine(sim, space,
                                      {.full_threshold = 0.4,
                                       .digest_period = period,
                                       .interest_decay = sim::sec(60)});
    util::Summary delay;
    engine.subscribe(2, [&](const awareness::ActivityEvent& e, double,
                            bool) {
      delay.add(static_cast<double>(sim.now() - e.at));
    });
    // 200 activity events with exponential gaps, mean 10 s.
    sim::TimePoint when = 0;
    for (int i = 0; i < 200; ++i) {
      when += static_cast<sim::Duration>(sim.rng().exponential(10e6));
      sim.schedule_at(when, [&engine, &sim] {
        engine.publish({1, "workspace", "edits", sim.now()});
      });
    }
    sim.run_until(when + 2 * period);
    deliveries = static_cast<double>(delay.count());
    p95_s = delay.p95() / 1e6;
    coalesced = static_cast<double>(engine.stats().coalesced);
  }
  state.counters["digest_s"] = static_cast<double>(state.range(0));
  state.counters["deliveries"] = deliveries;
  state.counters["staleness_s_p95"] = p95_s;
  state.counters["coalesced"] = coalesced;
}

// --- 3. media sink prebuffer ---------------------------------------------------

void BM_Prebuffer(benchmark::State& state) {
  const auto prebuffer = sim::msec(state.range(0));
  double underruns = 0, startup_ms = 0;
  for (auto _ : state) {
    Platform platform(63);
    auto& sim = platform.simulator();
    auto& net = platform.network();
    net.set_default_link({.latency = sim::msec(40), .jitter = sim::msec(25),
                          .bandwidth_bps = 10e6, .loss = 0.0});
    streams::QosSpec video{.fps = 25, .frame_bytes = 4000,
                           .latency_bound = sim::msec(500),
                           .jitter_bound = sim::msec(100), .min_fps = 5};
    streams::MediaSource src(sim, 1, video);
    streams::StreamBinding binding(net, src, {1, 1}, net::Address{2, 1});
    streams::MediaSink sink(net, {2, 1}, prebuffer);
    // An underrun: a frame arrives after the playout clock has already
    // passed its presentation time (seq / fps into the stream).
    double late = 0;
    sink.on_frame([&](const streams::Frame& f, sim::Duration) {
      const auto present_at =
          static_cast<std::int64_t>(static_cast<double>(f.seq) * 1e6 / 25.0);
      const auto pos = sink.playout_position();
      if (pos >= 0 && pos > present_at) late += 1;
    });
    src.start();
    sim.run_until(sim::sec(20));
    underruns = late;
    startup_ms = sim::to_ms(prebuffer);
  }
  state.counters["prebuffer_ms"] = static_cast<double>(state.range(0));
  state.counters["underruns"] = underruns;
  state.counters["startup_delay_ms"] = startup_ms;
}

BENCHMARK(BM_RetransmitTimeout)
    ->Arg(20)->Arg(50)->Arg(100)->Arg(200)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DigestPeriod)
    ->Arg(1)->Arg(5)->Arg(30)->Arg(120)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Prebuffer)
    ->Arg(0)->Arg(40)->Arg(120)->Arg(300)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

#include "bench_harness.hpp"
COOP_BENCH_MAIN("a1")
