// R1 — chaos soak: the full stack under a seeded fault schedule (§4.2.2).
//
// A seed x scenario matrix drives the deterministic chaos plane against a
// small but complete deployment: a membership group (coordinator + three
// members), a replicated RPC store (two servers with harness-durable
// state, one retrying client), and a reliable FIFO stream crossing the
// crashable nodes.  Four scenarios: crash-restart, partition-heal,
// degraded-link and corruption-storm.
//
// Every run feeds a fault::Invariants collector and the binary exits
// non-zero if ANY run violates a safety invariant — at-most-once per
// call per incarnation, no acknowledged op lost, replica convergence,
// view agreement after quiesce, corruption containment, FIFO order.
// Recovery latencies (outage end -> first healthy client op) are mined
// from each run's trace and aggregated into the fault.recovery_us
// summary of BENCH_r1_chaos.json.  Same seed => byte-identical artifacts
// (the wall_ms line excluded).
//
// Expected shape: zero violations on every seed; recovery latency is
// dominated by the client's retry backoff for crash/partition scenarios
// and near-zero for degraded-link/corruption (requests ride through).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/coop.hpp"

using namespace coop;

namespace {

constexpr const char* kScenarioNames[] = {"crash_restart", "partition_heal",
                                          "degraded_link",
                                          "corruption_storm"};

std::uint64_t g_total_violations = 0;
std::uint64_t g_slo_violations = 0;
bool g_durable = false;  // --durable: replicas recover from WAL+checkpoint

struct RunOutcome {
  std::vector<std::string> violations;
  std::vector<std::string> slo_violations;
  std::uint64_t slo_transitions = 0;
  std::vector<sim::Duration> recovery;
  std::uint64_t ops_acked = 0;
  std::uint64_t injected_corrupt = 0;
  std::uint64_t dropped_corrupt = 0;
  std::uint64_t fifo_delivered = 0;
  // Durable-mode evidence (zero in the classic harness-map mode).
  std::uint64_t wal_replays = 0;
  std::uint64_t wal_replayed_records = 0;
  std::uint64_t wal_truncated_tails = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t ae_keys_pulled = 0;
  std::size_t peak_log_bytes = 0;
  std::vector<double> recovery_us;  ///< modeled replay cost per recovery
};

RunOutcome run_chaos(int scenario, std::uint64_t seed) {
  obs::Obs local;  // per-run sink so trace mining never crosses runs
  // Health objectives for the chaos window.  Outages legitimately stall
  // acks, so the breach budgets cover the ~2.4 s fault horizon (24
  // 100 ms windows) plus retry drain — what strict mode checks is that
  // the stall is bounded and the run ends healthy, i.e. it *recovered*.
  local.slo.add_rule({.name = "ack_rate_floor",
                      .series = "rpc.ok",
                      .kind = obs::SloRule::Kind::kRateFloor,
                      .threshold = 5.0,  // acks/sec; nominal is ~27/s
                      .trip_windows = 2,
                      .recover_windows = 1,
                      .active_from = sim::msec(200),
                      .active_until = sim::msec(2900),
                      .allowed_breach_windows = 30});
  local.slo.add_rule({.name = "rpc_rtt_p99",
                      .series = "rpc.latency_us",
                      .kind = obs::SloRule::Kind::kP99Ceiling,
                      .threshold = 400000.0,  // 400 ms: 100 ms timeout x
                                              // retries + backoff
                      .trip_windows = 2,
                      .recover_windows = 2,
                      .allowed_breach_windows = 30});
  Platform platform(seed, &local);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link({.latency = sim::msec(5), .jitter = sim::msec(2),
                        .bandwidth_bps = 10e6, .loss = 0.005});

  fault::Invariants inv;

  // --- membership plane: coordinator (node 100) + members on nodes 1-3.
  groups::MembershipConfig mcfg;
  mcfg.failure_timeout = sim::msec(500);
  groups::MembershipCoordinator coord(net, {100, 1}, mcfg);
  std::array<std::unique_ptr<groups::MembershipMember>, 3> members;
  const auto start_member = [&](int idx) {
    // Destroy any previous incarnation *before* constructing the new one:
    // assignment order would otherwise let the old destructor detach the
    // new object's freshly registered endpoint.
    members[static_cast<std::size_t>(idx)].reset();
    members[static_cast<std::size_t>(idx)] =
        std::make_unique<groups::MembershipMember>(
            net, net::Address{static_cast<net::NodeId>(idx + 1), 1},
            net::Address{100, 1}, mcfg);
    members[static_cast<std::size_t>(idx)]->join();
  };
  for (int i = 0; i < 3; ++i) start_member(i);

  // --- replicated RPC store: servers on nodes 1-2 (port 2).  The maps
  // are harness-owned, i.e. durable across the process restarts; the
  // replay cache is not — exactly the platform's restart contract.
  std::array<std::map<std::string, std::string>, 2> durable;
  std::array<int, 2> incarnation{1, 1};
  std::array<std::unique_ptr<rpc::RpcServer>, 2> servers;
  const auto start_server = [&](int s) {
    auto& server = servers[static_cast<std::size_t>(s)];
    server.reset();  // old incarnation must detach before the new attaches
    server = std::make_unique<rpc::RpcServer>(
        net, net::Address{static_cast<net::NodeId>(s + 1), 2});
    server->register_method(
        "set",
        [&inv, &durable, s,
         inc = incarnation[static_cast<std::size_t>(s)]](
            const std::string& req) {
          // req = "<op>|<call nonce>|<value>".  Executions are keyed by
          // (server, incarnation, op, nonce): the replay cache promises
          // at-most-once per *call* per incarnation — a fresh call for
          // the same op, or a retry spanning a restart, may re-execute.
          const auto bar1 = req.find('|');
          const auto bar2 = req.rfind('|');
          const std::string op = req.substr(0, bar1);
          inv.record_execution("s" + std::to_string(s) + "#" +
                               std::to_string(inc) + ":" + op + ":" +
                               req.substr(bar1 + 1, bar2 - bar1 - 1));
          durable[static_cast<std::size_t>(s)][op] = req.substr(bar2 + 1);
          return rpc::HandlerResult::success("ok");
        });
  };
  start_server(0);
  start_server(1);

  rpc::RpcClient client(net, {10, 1});
  RunOutcome out;
  std::uint64_t nonce = 0;
  bool failed_since_success = false;
  // Each logical op is issued to both replicas and re-issued until acked:
  // idempotent writes to op-unique keys, so re-execution converges.
  std::function<void(int, int)> issue = [&](int s, int opi) {
    const std::string op = "op" + std::to_string(opi);
    const std::string req =
        op + "|n" + std::to_string(++nonce) + "|v" + std::to_string(opi);
    client.call(
        {static_cast<net::NodeId>(s + 1), 2}, "set", req,
        [&, s, opi, op](const rpc::RpcResult& r) {
          if (r.ok()) {
            inv.record_acknowledged("s" + std::to_string(s) + ":" + op);
            ++out.ops_acked;
            if (failed_since_success) {
              failed_since_success = false;
              local.tracer.event(sim.now(), obs::Category::kFault,
                                 "recovered",
                                 {{"op", static_cast<double>(opi)}});
            }
          } else {
            failed_since_success = true;
            sim.schedule_after(sim::msec(100),
                               [&issue, s, opi] { issue(s, opi); });
          }
        },
        {.timeout = sim::msec(100), .retries = 2, .backoff_jitter = 0.2});
  };
  constexpr int kOps = 40;
  for (int i = 0; i < kOps; ++i) {
    sim.schedule_at(sim::msec(75) * i, [&issue, i] {
      issue(0, i);
      issue(1, i);
    });
  }

  // --- reliable FIFO stream across the crashable nodes: 2 -> 3, port 3.
  std::vector<int> fifo_log;
  std::uint32_t tx_epoch = 1, rx_epoch = 1;
  std::unique_ptr<net::FifoChannel> fifo_tx, fifo_rx;
  const auto start_fifo_tx = [&](std::uint32_t epoch) {
    fifo_tx.reset();
    fifo_tx = std::make_unique<net::FifoChannel>(
        net, net::Address{2, 3},
        net::FifoConfig{.retransmit_timeout = sim::msec(30),
                        .backoff_jitter = 0.2, .epoch = epoch});
  };
  const auto start_fifo_rx = [&](std::uint32_t epoch) {
    fifo_rx.reset();
    fifo_rx = std::make_unique<net::FifoChannel>(
        net, net::Address{3, 3},
        net::FifoConfig{.retransmit_timeout = sim::msec(30), .epoch = epoch});
    fifo_rx->on_receive([&](const net::Address&, std::string_view p) {
      fifo_log.push_back(std::stoi(std::string(p.substr(1))));
    });
  };
  start_fifo_tx(tx_epoch);
  start_fifo_rx(rx_epoch);
  constexpr int kTokens = 50;
  for (int i = 0; i < kTokens; ++i) {
    // Tokens falling into a sender outage are lost at the app layer
    // (gaps are legal); order and no-duplication are not negotiable.
    sim.schedule_at(sim::msec(50) * i, [&fifo_tx, i] {
      if (fifo_tx) fifo_tx->send({3, 3}, "t" + std::to_string(i));
    });
  }

  // --- the chaos schedule itself.
  fault::FaultPlan plan(net);
  fault::ChaosProfile profile;
  profile.nodes = {1, 2, 3};
  profile.horizon = sim::sec(2);
  switch (scenario) {
    case 0:
      profile.crashes = 3;
      break;
    case 1:
      profile.partitions = 3;
      break;
    case 2:
      profile.degrade_windows = 3;
      profile.disturbance = {.extra_loss = 0.15,
                             .extra_latency = sim::msec(10),
                             .extra_jitter = sim::msec(5)};
      break;
    case 3:
      profile.corrupt_windows = 3;
      profile.corrupt_prob = 0.25;
      profile.duplicate_windows = 2;
      profile.delay_windows = 2;
      break;
    default:
      break;
  }
  plan.on_crash([&](net::NodeId n) {
    // Fail-stop: the node's protocol objects die with the process.
    const int idx = static_cast<int>(n) - 1;
    if (idx >= 0 && idx < 3) members[static_cast<std::size_t>(idx)].reset();
    if (idx >= 0 && idx < 2) servers[static_cast<std::size_t>(idx)].reset();
    if (n == 2) fifo_tx.reset();
    if (n == 3) fifo_rx.reset();
  });
  plan.on_restart([&](net::NodeId n) {
    // A fresh incarnation: endpoints re-register, members rejoin via the
    // join protocol, FIFO channels come back with a bumped epoch and
    // resynchronize, the replay cache starts empty.
    const int idx = static_cast<int>(n) - 1;
    if (idx >= 0 && idx < 3) start_member(idx);
    if (idx >= 0 && idx < 2) {
      ++incarnation[static_cast<std::size_t>(idx)];
      start_server(idx);
    }
    if (n == 2) {
      start_fifo_tx(++tx_epoch);
      fifo_tx->resync({3, 3});
    }
    if (n == 3) {
      start_fifo_rx(++rx_epoch);
      fifo_rx->resync({2, 3});
    }
  });
  fault::ChaosEngine engine(seed * 1000 + static_cast<std::uint64_t>(scenario));
  engine.populate(plan, profile);
  plan.arm();

  // Faults end by ~2.4s, the workload by 3s; the tail is retry drain.
  sim.run_until(sim::sec(8));

  // --- evidence + checks.
  for (int s = 0; s < 2; ++s) {
    std::string digest;
    for (const auto& [k, v] : durable[static_cast<std::size_t>(s)]) {
      digest += k + "=" + v + ";";
      inv.record_applied("s" + std::to_string(s) + ":" + k);
    }
    inv.record_state("srv" + std::to_string(s), digest);
  }
  inv.record_view("coord", coord.view().id, coord.view().members.size());
  for (int i = 0; i < 3; ++i) {
    const auto& m = members[static_cast<std::size_t>(i)];
    if (m && m->view().has_value()) {
      inv.record_view("m" + std::to_string(i), m->view()->id,
                      m->view()->members.size());
    }
  }
  for (std::size_t i = 1; i < fifo_log.size(); ++i) {
    if (fifo_log[i] <= fifo_log[i - 1]) {
      inv.report_violation(
          "fifo order: token t" + std::to_string(fifo_log[i]) +
          " delivered after t" + std::to_string(fifo_log[i - 1]));
    }
  }
  if (out.ops_acked < 2 * kOps) {
    inv.report_violation("liveness: only " + std::to_string(out.ops_acked) +
                         "/" + std::to_string(2 * kOps) +
                         " ops acknowledged by quiesce");
  }
  inv.check_all();
  inv.check_corruption_contained(net.stats(), plan.injected().corrupt_frames);

  out.violations = inv.violations();
  local.series.finish();  // seal the tail window before the verdict
  out.slo_violations = local.slo.violation_messages();
  out.slo_transitions = local.slo.transitions_total();
  out.recovery = fault::recovery_latencies(local.tracer.snapshot());
  out.injected_corrupt = plan.injected().corrupt_frames;
  out.dropped_corrupt = net.stats().dropped_corrupt;
  out.fifo_delivered = fifo_log.size();
  return out;
}

// Durable variant of the soak: the two replicas keep their state in real
// durable::DurableStore instances over harness-owned StableMedia.  A crash
// kills every volatile object — store, WAL buffer, RPC server, replay
// cache, anti-entropy puller — and may tear the in-flight WAL frame; the
// restart seam reconstructs the replica solely from checkpoint + log
// replay.  Each logical op targets ONE replica (unlike the classic mode's
// write-both), so replica convergence genuinely requires anti-entropy, and
// a tmp-key write-then-delete exercise proves tombstones replicate instead
// of resurrecting.  At quiesce both replicas are torn down and rebuilt
// from their media once more: every invariant is checked against state
// that demonstrably came off the platter.
RunOutcome run_durable_chaos(int scenario, std::uint64_t seed) {
  obs::Obs local;  // per-run sink so trace mining never crosses runs
  local.slo.add_rule({.name = "ack_rate_floor",
                      .series = "rpc.ok",
                      .kind = obs::SloRule::Kind::kRateFloor,
                      .threshold = 5.0,
                      .trip_windows = 2,
                      .recover_windows = 1,
                      .active_from = sim::msec(200),
                      .active_until = sim::msec(2900),
                      .allowed_breach_windows = 30});
  local.slo.add_rule({.name = "rpc_rtt_p99",
                      .series = "rpc.latency_us",
                      .kind = obs::SloRule::Kind::kP99Ceiling,
                      .threshold = 400000.0,
                      .trip_windows = 2,
                      .recover_windows = 2,
                      .allowed_breach_windows = 30});
  Platform platform(seed, &local);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link({.latency = sim::msec(5), .jitter = sim::msec(2),
                        .bandwidth_bps = 10e6, .loss = 0.005});

  fault::Invariants inv;
  RunOutcome out;

  // --- membership plane: identical to the classic mode.
  groups::MembershipConfig mcfg;
  mcfg.failure_timeout = sim::msec(500);
  groups::MembershipCoordinator coord(net, {100, 1}, mcfg);
  std::array<std::unique_ptr<groups::MembershipMember>, 3> members;
  const auto start_member = [&](int idx) {
    members[static_cast<std::size_t>(idx)].reset();
    members[static_cast<std::size_t>(idx)] =
        std::make_unique<groups::MembershipMember>(
            net, net::Address{static_cast<net::NodeId>(idx + 1), 1},
            net::Address{100, 1}, mcfg);
    members[static_cast<std::size_t>(idx)]->join();
  };
  for (int i = 0; i < 3; ++i) start_member(i);

  // --- durable replicas on nodes 1-2.  The StableMedia is the harness's
  // only cross-incarnation state: everything else is rebuilt by recovery.
  const auto durable_cfg = [](int s) {
    durable::DurableConfig dc;
    dc.name = "r" + std::to_string(s);
    dc.sync_interval = sim::msec(5);
    dc.checkpoint_log_bytes = 2048;  // several compactions per run
    dc.tombstone_ttl = sim::sec(60);  // outlives the run: no GC races
    return dc;
  };
  struct Replica {
    // Declaration order is teardown-safety: the AE puller (owns an rpc
    // client) and server (handlers reference the store) die before it.
    std::unique_ptr<durable::DurableStore> store;
    std::unique_ptr<rpc::RpcServer> server;
    std::unique_ptr<durable::AntiEntropy> ae;
  };
  std::array<durable::StableMedia, 2> media;
  std::array<Replica, 2> replicas;
  std::array<int, 2> incarnation{1, 1};
  std::array<std::size_t, 2> peak_log{0, 0};
  const auto start_replica = [&](int s) {
    auto& r = replicas[static_cast<std::size_t>(s)];
    r.ae.reset();
    r.server.reset();
    r.store.reset();  // old endpoints/timers down before recovery
    r.store = std::make_unique<durable::DurableStore>(
        sim, local, media[static_cast<std::size_t>(s)], durable_cfg(s));
    out.recovery_us.push_back(
        durable::kReplayUsPerByte *
        static_cast<double>(r.store->recovery().scanned_bytes));
    durable::DurableStore* st = r.store.get();
    r.server = std::make_unique<rpc::RpcServer>(
        net, net::Address{static_cast<net::NodeId>(s + 1), 2});
    const int inc = incarnation[static_cast<std::size_t>(s)];
    // "set"/"del" ack only once the mutation's WAL record is synced: the
    // reply closure rides the group-commit waiter, so a crash before sync
    // drops the op AND its ack together — acks never lie.
    r.server->register_async_method(
        "set", [&inv, st, s, inc](const std::string& req, auto reply) {
          // req = "<op>|<value>|<call nonce>"; executions keyed by
          // (server, incarnation, op, nonce) as in the classic mode.
          const auto bar1 = req.find('|');
          const auto bar2 = req.rfind('|');
          const std::string op = req.substr(0, bar1);
          inv.record_execution("s" + std::to_string(s) + "#" +
                               std::to_string(inc) + ":" + op + ":" +
                               req.substr(bar2 + 1));
          st->put(op, req.substr(bar1 + 1, bar2 - bar1 - 1), [reply] {
            reply(rpc::HandlerResult::success("ok"));
          });
        });
    r.server->register_async_method(
        "del", [&inv, st, s, inc](const std::string& req, auto reply) {
          const auto bar = req.find('|');
          const std::string op = req.substr(0, bar);
          inv.record_execution("s" + std::to_string(s) + "#" +
                               std::to_string(inc) + ":del:" + op + ":" +
                               req.substr(bar + 1));
          st->erase(op, [reply] {
            reply(rpc::HandlerResult::success("ok"));
          });
        });
    durable::AntiEntropy::serve(*r.server, *st);
    durable::AeConfig ac;
    ac.name = durable_cfg(s).name;
    ac.period = sim::msec(250);
    r.ae = std::make_unique<durable::AntiEntropy>(
        net, net::Address{static_cast<net::NodeId>(s + 1), 11},
        net::Address{static_cast<net::NodeId>(2 - s), 2}, *st, ac);
  };
  start_replica(0);
  start_replica(1);

  // --- workload: each op targets ONE replica (op i -> replica i%2), so
  // the other replica can only learn it via anti-entropy.  Re-issued
  // until acked; values are op-keyed so re-execution converges.
  rpc::RpcClient client(net, {10, 1});
  std::uint64_t nonce = 0;
  bool failed_since_success = false;
  const std::string pad(48, 'x');  // log volume: force real compaction work
  std::function<void(int, const std::string&, const std::string&,
                     const std::function<void()>&)>
      issue_to = [&](int s, const std::string& method, const std::string& req,
                     const std::function<void()>& on_ack) {
        client.call(
            {static_cast<net::NodeId>(s + 1), 2}, method,
            req + "|n" + std::to_string(++nonce),
            [&, s, method, req, on_ack](const rpc::RpcResult& r) {
              if (r.ok()) {
                ++out.ops_acked;
                if (failed_since_success) {
                  failed_since_success = false;
                  local.tracer.event(sim.now(), obs::Category::kFault,
                                     "recovered", {});
                }
                if (on_ack) on_ack();
              } else {
                failed_since_success = true;
                sim.schedule_after(sim::msec(100), [&issue_to, s, method, req,
                                                    on_ack] {
                  issue_to(s, method, req, on_ack);
                });
              }
            },
            {.timeout = sim::msec(100), .retries = 2, .backoff_jitter = 0.2});
      };
  constexpr int kOps = 40;
  for (int i = 0; i < kOps; ++i) {
    sim.schedule_at(sim::msec(75) * i, [&, i] {
      const int s = i % 2;
      const std::string op = "op" + std::to_string(i);
      issue_to(s, "set", op + "|v" + std::to_string(i) + pad, [&inv, s, op] {
        inv.record_acknowledged("s" + std::to_string(s) + ":" + op);
      });
    });
  }
  // Tombstone exercise: write tmp keys, then delete them once the write
  // is acked.  An acked delete must survive every later crash-restart and
  // must not resurrect via anti-entropy on either replica.
  constexpr int kTmp = 5;
  for (int j = 0; j < kTmp; ++j) {
    sim.schedule_at(sim::sec(3) + sim::msec(60) * j, [&, j] {
      const int s = j % 2;
      const std::string op = "tmp" + std::to_string(j);
      issue_to(s, "set", op + "|v" + pad, [&issue_to, s, op] {
        issue_to(s, "del", op, nullptr);
      });
    });
  }

  // --- the chaos schedule: same profiles as the classic mode.
  fault::FaultPlan plan(net);
  fault::ChaosProfile profile;
  profile.nodes = {1, 2, 3};
  profile.horizon = sim::sec(2);
  switch (scenario) {
    case 0:
      profile.crashes = 3;
      break;
    case 1:
      profile.partitions = 3;
      break;
    case 2:
      profile.degrade_windows = 3;
      profile.disturbance = {.extra_loss = 0.15,
                             .extra_latency = sim::msec(10),
                             .extra_jitter = sim::msec(5)};
      break;
    case 3:
      profile.corrupt_windows = 3;
      profile.corrupt_prob = 0.25;
      profile.duplicate_windows = 2;
      profile.delay_windows = 2;
      break;
    default:
      break;
  }
  // Deterministic torn-tail draw, independent of the chaos engine's and
  // the simulator's streams so it perturbs neither.
  sim::Rng torn_rng(seed * 7919 + static_cast<std::uint64_t>(scenario));
  plan.on_crash([&](net::NodeId n) {
    const int idx = static_cast<int>(n) - 1;
    if (idx >= 0 && idx < 3) members[static_cast<std::size_t>(idx)].reset();
    if (idx >= 0 && idx < 2) {
      auto& r = replicas[static_cast<std::size_t>(idx)];
      peak_log[static_cast<std::size_t>(idx)] =
          std::max(peak_log[static_cast<std::size_t>(idx)],
                   r.store->max_log_bytes());
      // Model a write caught mid-flight: appended but never synced, so
      // the crash can tear its frame.  The record is never acked and its
      // garbage prefix must be discarded (unparsed) by recovery.
      r.store->put("inflight", std::string(16, 'x'));
      // Fail-stop with a possibly-torn tail: pending acks drop unfired,
      // the unsynced suffix dies, a garbage prefix of it may land.
      r.store->crash(
          static_cast<std::size_t>(torn_rng.uniform_int(0, 24)));
      r.ae.reset();
      r.server.reset();
      r.store.reset();  // in-memory state is GONE; only the media remains
    }
  });
  plan.on_restart([&](net::NodeId n) {
    const int idx = static_cast<int>(n) - 1;
    if (idx >= 0 && idx < 3) start_member(idx);
    if (idx >= 0 && idx < 2) {
      ++incarnation[static_cast<std::size_t>(idx)];
      start_replica(idx);  // recovery: checkpoint + WAL replay
    }
  });
  fault::ChaosEngine engine(seed * 1000 +
                            static_cast<std::uint64_t>(scenario));
  engine.populate(plan, profile);
  plan.arm();

  sim.run_until(sim::sec(8));

  // --- quiesce proof: rebuild both replicas from their media one final
  // time and run every check against the RECOVERED state.
  for (int s = 0; s < 2; ++s) {
    auto& r = replicas[static_cast<std::size_t>(s)];
    r.store->sync();  // flush the tail so adopted AE entries are on disk
    peak_log[static_cast<std::size_t>(s)] = std::max(
        peak_log[static_cast<std::size_t>(s)], r.store->max_log_bytes());
    const ccontrol::ObjectStore before = r.store->store();
    r.ae.reset();
    r.server.reset();
    r.store->crash();
    r.store.reset();
    durable::DurableStore recovered(
        sim, local, media[static_cast<std::size_t>(s)], durable_cfg(s));
    if (!(recovered.store() == before)) {
      inv.report_violation("replica r" + std::to_string(s) +
                           ": state recovered from WAL+checkpoint differs "
                           "from the synced pre-teardown state");
    }
    std::string digest;
    for (const auto& k : recovered.store().keys()) {
      digest += k + "=" + *recovered.store().read(k) + "@" +
                std::to_string(recovered.store().version(k)) + ";";
      inv.record_applied("s" + std::to_string(s) + ":" + k);
      // An op acked on the *other* replica that anti-entropy carried here
      // is durable on this side too; recording it is harmless (the check
      // only requires acked ops to be present somewhere they were acked).
    }
    inv.record_state("r" + std::to_string(s), digest);
    for (int j = 0; j < kTmp; ++j) {
      if (recovered.read("tmp" + std::to_string(j)).has_value()) {
        inv.report_violation("tombstone lost: acked delete of tmp" +
                             std::to_string(j) + " resurrected on r" +
                             std::to_string(s));
      }
    }
    inv.check_log_bounded("r" + std::to_string(s),
                          peak_log[static_cast<std::size_t>(s)],
                          2048 + 4096);  // threshold + one commit batch
  }
  inv.record_view("coord", coord.view().id, coord.view().members.size());
  for (int i = 0; i < 3; ++i) {
    const auto& m = members[static_cast<std::size_t>(i)];
    if (m && m->view().has_value()) {
      inv.record_view("m" + std::to_string(i), m->view()->id,
                      m->view()->members.size());
    }
  }
  if (out.ops_acked < kOps + 2 * kTmp) {
    inv.report_violation("liveness: only " + std::to_string(out.ops_acked) +
                         "/" + std::to_string(kOps + 2 * kTmp) +
                         " ops acknowledged by quiesce");
  }
  inv.check_all();
  inv.check_corruption_contained(net.stats(), plan.injected().corrupt_frames);

  out.violations = inv.violations();
  local.series.finish();
  out.slo_violations = local.slo.violation_messages();
  out.slo_transitions = local.slo.transitions_total();
  out.recovery = fault::recovery_latencies(local.tracer.snapshot());
  out.injected_corrupt = plan.injected().corrupt_frames;
  out.dropped_corrupt = net.stats().dropped_corrupt;
  const auto sum2 = [&local](const char* leaf) {
    return local.metrics.counter("durable.r0." + std::string(leaf)).value() +
           local.metrics.counter("durable.r1." + std::string(leaf)).value();
  };
  out.wal_replays = sum2("replays");
  out.wal_replayed_records = sum2("replayed_records");
  out.wal_truncated_tails = sum2("truncated_tail");
  out.checkpoints = sum2("checkpoints");
  out.ae_keys_pulled = sum2("ae_keys_pulled");
  out.peak_log_bytes = std::max(peak_log[0], peak_log[1]);
  return out;
}

void BM_ChaosSoak(benchmark::State& state) {
  const int scenario = static_cast<int>(state.range(0));
  const auto seed = static_cast<std::uint64_t>(state.range(1));
  RunOutcome out;
  for (auto _ : state) {
    out = g_durable ? run_durable_chaos(scenario, seed)
                    : run_chaos(scenario, seed);
  }

  obs::Obs& ambient = *obs::default_obs();
  auto& recovery = ambient.metrics.summary("fault.recovery_us");
  for (const sim::Duration d : out.recovery)
    recovery.add(static_cast<double>(d));
  ambient.metrics.counter("fault.soak.runs").inc();
  ambient.metrics.counter("fault.soak.ops_acked").inc(out.ops_acked);
  ambient.metrics.counter("fault.soak.fifo_delivered")
      .inc(out.fifo_delivered);
  ambient.metrics.counter("fault.soak.injected_corrupt")
      .inc(out.injected_corrupt);
  ambient.metrics.counter("fault.soak.dropped_corrupt")
      .inc(out.dropped_corrupt);
  if (g_durable) {
    ambient.metrics.counter("durable.soak.replays").inc(out.wal_replays);
    ambient.metrics.counter("durable.soak.replayed_records")
        .inc(out.wal_replayed_records);
    ambient.metrics.counter("durable.soak.truncated_tails")
        .inc(out.wal_truncated_tails);
    ambient.metrics.counter("durable.soak.checkpoints").inc(out.checkpoints);
    ambient.metrics.counter("durable.soak.ae_keys_pulled")
        .inc(out.ae_keys_pulled);
    auto& rec_us = ambient.metrics.summary("durable.recovery_us");
    for (const double v : out.recovery_us) rec_us.add(v);
  }
  if (!out.violations.empty()) {
    ambient.metrics.counter("fault.invariant_violations")
        .inc(out.violations.size());
    g_total_violations += out.violations.size();
    for (const std::string& v : out.violations) {
      std::fprintf(stderr, "[%s seed %llu] INVARIANT VIOLATION: %s\n",
                   kScenarioNames[scenario],
                   static_cast<unsigned long long>(seed), v.c_str());
    }
  }
  // Health-trajectory evidence: how often objectives flipped under this
  // scenario, and whether any overspent its breach budget.
  ambient.metrics.counter("fault.slo_transitions").inc(out.slo_transitions);
  if (!out.slo_violations.empty()) {
    ambient.metrics.counter("fault.slo_violations")
        .inc(out.slo_violations.size());
    g_slo_violations += out.slo_violations.size();
    for (const std::string& v : out.slo_violations) {
      std::fprintf(stderr, "[%s seed %llu] SLO VIOLATION: %s\n",
                   kScenarioNames[scenario],
                   static_cast<unsigned long long>(seed), v.c_str());
    }
  }
  state.counters["violations"] = static_cast<double>(out.violations.size());
  state.counters["recoveries"] = static_cast<double>(out.recovery.size());
  state.counters["ops_acked"] = static_cast<double>(out.ops_acked);
  if (g_durable) {
    state.counters["wal_replays"] = static_cast<double>(out.wal_replays);
    state.counters["checkpoints"] = static_cast<double>(out.checkpoints);
    state.counters["ae_pulled"] = static_cast<double>(out.ae_keys_pulled);
    state.counters["peak_log"] = static_cast<double>(out.peak_log_bytes);
    state.SetLabel(std::string(kScenarioNames[scenario]) + "_durable");
  } else {
    state.counters["fifo_delivered"] =
        static_cast<double>(out.fifo_delivered);
    state.SetLabel(kScenarioNames[scenario]);
  }
}

BENCHMARK(BM_ChaosSoak)
    ->ArgsProduct({{0, 1, 2, 3}, benchmark::CreateDenseRange(1, 20, 1)})
    ->Iterations(1);

/// --durable (stripped before argv is recorded): run the soak against
/// real WAL+checkpoint replicas instead of harness-owned maps.
const char* take_durable_flag(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--durable") {
      g_durable = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  return g_durable ? "r1_durable" : "r1_chaos";
}

/// A non-zero exit code when any run violated an invariant (2) or
/// overspent an SLO budget (3).  Breach budgets already tolerate the
/// fault horizon, so an SLO violation means a run failed to *recover*.
int soak_verdict(obs::Obs&) {
  if (g_total_violations > 0) {
    std::fprintf(stderr, "chaos soak FAILED: %llu invariant violation(s)\n",
                 static_cast<unsigned long long>(g_total_violations));
    return 2;
  }
  if (g_slo_violations > 0) {
    std::fprintf(stderr, "chaos soak FAILED: %llu SLO violation(s)\n",
                 static_cast<unsigned long long>(g_slo_violations));
    return 3;
  }
  return 0;
}

}  // namespace

#include "bench_harness.hpp"
COOP_BENCH_MAIN("r1_chaos", {.argv_filter = take_durable_flag,
                             .verdict = soak_verdict})
