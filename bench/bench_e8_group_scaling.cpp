// E8 — group communication and group RPC at scale (§4.2.2-iv).
//
// Part 1: reliable multicast delivery latency vs group size for the three
// ordering guarantees (FIFO, causal, total), on a jittery LAN.  One
// member broadcasts 100 updates; we record the time until each *other*
// member delivers.
//
// Part 2: group RPC (camera-start style invocation) with the kAll policy
// and a 150 ms real-time deadline, sweeping group size: deadline miss
// rate and completion latency.
//
// Expected shape: total order pays the sequencer indirection (≈ one extra
// hop for non-sequencer senders) but stays flat-ish with size on
// multicast fabric; deadline misses grow with group size because the
// slowest of N replies decides (max-of-N distributions).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/coop.hpp"

using namespace coop;

namespace {

struct McastResult {
  util::Summary latency_us;
  double msgs_per_delivery = 0;
};

McastResult run_mcast(groups::Ordering ordering, int n_members) {
  Platform platform(29);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link({.latency = sim::msec(2), .jitter = sim::msec(1),
                        .bandwidth_bps = 100e6, .loss = 0.01});

  std::vector<net::Address> addrs;
  for (int i = 0; i < n_members; ++i)
    addrs.push_back({static_cast<net::NodeId>(i + 1), 10});
  groups::ChannelConfig config{.ordering = ordering,
                               .retransmit_timeout = sim::msec(30),
                               .max_retransmits = 20};
  std::vector<std::unique_ptr<groups::GroupChannel>> members;
  McastResult result;
  for (int i = 0; i < n_members; ++i) {
    members.push_back(std::make_unique<groups::GroupChannel>(
        net, addrs[static_cast<std::size_t>(i)], 5, config));
  }
  std::uint64_t deliveries = 0;
  for (int i = 0; i < n_members; ++i) {
    members[static_cast<std::size_t>(i)]->set_members(addrs);
    const bool is_sender = i == 1;  // non-sequencer sender (worst case)
    members[static_cast<std::size_t>(i)]->on_deliver(
        [&, is_sender](const groups::Delivery& d) {
          ++deliveries;
          if (!is_sender)
            result.latency_us.add(static_cast<double>(sim.now() - d.sent_at));
        });
  }
  const int kUpdates = 100;
  for (int u = 0; u < kUpdates; ++u) {
    sim.schedule_at(u * sim::msec(40), [&, u] {
      members[1]->broadcast("u" + std::to_string(u));
    });
  }
  sim.run();
  result.msgs_per_delivery =
      deliveries > 0
          ? static_cast<double>(net.stats().sent) /
                static_cast<double>(deliveries)
          : 0;
  return result;
}

void run_mcast_bm(benchmark::State& state, groups::Ordering ordering) {
  McastResult r;
  for (auto _ : state)
    r = run_mcast(ordering, static_cast<int>(state.range(0)));
  state.counters["members"] = static_cast<double>(state.range(0));
  state.counters["deliver_ms_mean"] = r.latency_us.mean() / 1000.0;
  state.counters["deliver_ms_p95"] = r.latency_us.p95() / 1000.0;
  state.counters["msgs_per_delivery"] = r.msgs_per_delivery;
}

void BM_Multicast_Fifo(benchmark::State& s) {
  run_mcast_bm(s, groups::Ordering::kFifo);
}
void BM_Multicast_Causal(benchmark::State& s) {
  run_mcast_bm(s, groups::Ordering::kCausal);
}
void BM_Multicast_Total(benchmark::State& s) {
  run_mcast_bm(s, groups::Ordering::kTotal);
}

// --- group RPC with deadline ------------------------------------------------

void BM_GroupRpc_DeadlineMissRate(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  double miss_rate = 0, latency_ms = 0;
  for (auto _ : state) {
    Platform platform(31);
    auto& sim = platform.simulator();
    auto& net = platform.network();
    net.set_default_link({.latency = sim::msec(20), .jitter = sim::msec(15),
                          .bandwidth_bps = 10e6, .loss = 0.01});
    std::vector<std::unique_ptr<rpc::RpcServer>> cameras;
    std::vector<net::Address> targets;
    for (int i = 0; i < n; ++i) {
      cameras.push_back(std::make_unique<rpc::RpcServer>(
          net, net::Address{static_cast<net::NodeId>(i + 10), 1}));
      cameras.back()->register_method("start", [](const std::string&) {
        return rpc::HandlerResult::success("rolling");
      });
      targets.push_back({static_cast<net::NodeId>(i + 10), 1});
    }
    rpc::RpcClient client(net, {1, 1});
    rpc::GroupInvoker invoker(client);
    int misses = 0;
    util::Summary lat;
    const int kCalls = 200;
    for (int c = 0; c < kCalls; ++c) {
      sim.schedule_at(c * sim::msec(500), [&] {
        invoker.invoke(targets, "start", "",
                       [&](const rpc::GroupResult& r) {
                         if (r.deadline_hit || !r.satisfied) ++misses;
                         lat.add(static_cast<double>(r.latency));
                       },
                       {.policy = rpc::ReplyPolicy::kAll,
                        .deadline = sim::msec(150),
                        .per_call = {.timeout = sim::msec(120),
                                     .retries = 1}});
      });
    }
    sim.run();
    miss_rate = static_cast<double>(misses) / kCalls;
    latency_ms = lat.mean() / 1000.0;
  }
  state.counters["members"] = static_cast<double>(n);
  state.counters["miss_rate"] = miss_rate;
  state.counters["latency_ms_mean"] = latency_ms;
}

BENCHMARK(BM_Multicast_Fifo)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Multicast_Causal)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Multicast_Total)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupRpc_DeadlineMissRate)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

#include "bench_harness.hpp"
COOP_BENCH_MAIN("e8")
