// E1 — Ellis's two real-time requirements (§4.2.1): response time and
// notification time, compared across five concurrency-control schemes on
// the same two-author editing workload over a WAN-ish network.
//
//   strict_lock   — exclusive server-side lock per edit (the transaction
//                   wall): response = RPC + queueing behind the peer.
//   tickle_lock   — same, but a fifth of holders wander off without
//                   releasing; tickling transfers idle holders' locks.
//   soft_lock     — advisory: response = one RPC; overlaps are flagged,
//                   never blocked.
//   floor_control — explicit-release floor passing (reservation).
//   ot            — operational transformation (GROVE): response is
//                   local (≈0); consistency restored by transformation.
//
// Notification time is uniform in mechanism (server push to the peer) so
// the schemes differ exactly where the paper says they do: response.
//
// Expected shape: ot ≈ 0 ms response; soft ≈ one RTT; strict/floor grow
// with contention; tickle beats strict when holders abandon locks.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>

#include "core/coop.hpp"

using namespace coop;

namespace {

constexpr int kEditsPerUser = 120;
constexpr sim::Duration kEditHold = sim::msec(400);
constexpr double kThinkMeanMs = 600.0;
constexpr double kAbandonProb = 0.2;  // forget to release (tickle's case)

struct Metrics {
  util::Summary response_us;
  util::Summary notify_us;
  double flagged_overlaps = 0;
};

// A document server owning a LockManager (or FloorControl), exported via
// async RPC; "write" pushes the update to the other user (notification).
class LockedDocServer {
 public:
  LockedDocServer(Platform& p, ccontrol::LockStyle style)
      : net_(p.network()),
        server_(p.network(), {100, 1}),
        locks_(p.simulator(),
               {.style = style, .tickle_idle_timeout = sim::sec(2)}) {
    server_.register_async_method(
        "acquire",
        [this](const std::string& body,
               std::function<void(rpc::HandlerResult)> reply) {
          util::Reader r(body);
          const auto client = r.get<ccontrol::ClientId>();
          locks_.acquire("doc", client, ccontrol::LockMode::kExclusive,
                         [reply = std::move(reply)](
                             const ccontrol::LockGrant& g) {
                           util::Writer w;
                           w.put(g.granted).put(
                               static_cast<std::uint32_t>(
                                   g.conflicts.size()));
                           reply(rpc::HandlerResult::success(w.take()));
                         });
        });
    server_.register_method("release", [this](const std::string& body) {
      util::Reader r(body);
      const auto client = r.get<ccontrol::ClientId>();
      locks_.release("doc", client);
      return rpc::HandlerResult::success("");
    });
    server_.register_method("write", [this](const std::string& body) {
      util::Reader r(body);
      const auto author = r.get<ccontrol::ClientId>();
      const auto stamped = r.get<sim::TimePoint>();
      // Push the change to the other author (notification path).
      util::Writer w;
      w.put(author).put(stamped);
      const net::Address peer =
          author == 1 ? net::Address{2, 2} : net::Address{1, 2};
      net_.send({.src = {100, 1}, .dst = peer, .payload = w.take()});
      return rpc::HandlerResult::success("");
    });
  }

  [[nodiscard]] net::Address address() const { return server_.address(); }

 private:
  net::Network& net_;
  rpc::RpcServer server_;
  ccontrol::LockManager locks_;
};

// Receives change pushes and records notification time.
class NotifySink : public net::Endpoint {
 public:
  NotifySink(net::Network& net, net::Address self, Metrics& m)
      : net_(net), m_(m) {
    net_.attach(self, *this);
  }
  void on_message(const net::Message& msg) override {
    util::Reader r(msg.payload);
    r.get<ccontrol::ClientId>();
    const auto stamped = r.get<sim::TimePoint>();
    if (!r.failed())
      m_.notify_us.add(static_cast<double>(net_.simulator().now() - stamped));
  }

 private:
  net::Network& net_;
  Metrics& m_;
};

Metrics run_lock_scheme(ccontrol::LockStyle style, bool abandons) {
  Platform platform(55);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link(net::LinkModel::wan());

  Metrics m;
  LockedDocServer server(platform, style);
  NotifySink sink1(net, {1, 2}, m);
  NotifySink sink2(net, {2, 2}, m);
  rpc::RpcClient rpc1(net, {1, 1});
  rpc::RpcClient rpc2(net, {2, 1});

  std::function<void(int, int)> edit = [&](int user, int remaining) {
    if (remaining == 0) return;
    auto& rpc = user == 1 ? rpc1 : rpc2;
    const auto id = static_cast<ccontrol::ClientId>(user);
    const sim::TimePoint wanted = sim.now();
    util::Writer w;
    w.put(id);
    rpc.call(
        server.address(), "acquire", w.take(),
        [&, user, remaining, wanted, id](const rpc::RpcResult& res) {
          if (!res.ok()) {  // datagram loss etc.: retry the whole edit
            sim.schedule_after(sim::sec(1),
                               [&, user, remaining] { edit(user, remaining); });
            return;
          }
          m.response_us.add(static_cast<double>(sim.now() - wanted));
          util::Reader r(res.reply);
          r.get<bool>();
          m.flagged_overlaps += r.get<std::uint32_t>();
          // Edit for a while, publish, then (usually) release.
          sim.schedule_after(kEditHold, [&, user, remaining, id] {
            util::Writer ww;
            ww.put(id).put(sim.now());
            auto& rr = user == 1 ? rpc1 : rpc2;
            rr.call(server.address(), "write", ww.take(),
                    [](const rpc::RpcResult&) {},
                    {.timeout = sim::msec(500), .retries = 6, .backoff = 1.5});
            // Abandoners wander off for 10 s still holding the lock and
            // resume (release, then think, then edit) when they return;
            // strict waiters pay the whole absence, tickle transfers the
            // lock after the 2 s idle timeout.
            const bool abandon = abandons && sim.rng().bernoulli(kAbandonProb);
            const sim::Duration away = abandon ? sim::sec(10) : 0;
            sim.schedule_after(away, [&, user, remaining, id] {
              auto& r2 = user == 1 ? rpc1 : rpc2;
              util::Writer rw;
              rw.put(id);
              r2.call(server.address(), "release", rw.take(),
                      [](const rpc::RpcResult&) {},
                      {.timeout = sim::msec(500), .retries = 6,
                       .backoff = 1.5});
              sim.schedule_after(
                  static_cast<sim::Duration>(
                      sim.rng().exponential(kThinkMeanMs) * 1000),
                  [&, user, remaining] { edit(user, remaining - 1); });
            });
          });
        },
        {.timeout = sim::sec(3), .retries = 12, .backoff = 1.3});
  };
  edit(1, kEditsPerUser);
  edit(2, kEditsPerUser);
  sim.run_until(sim::minutes(60));
  return m;
}

Metrics run_floor_scheme() {
  Platform platform(55);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link(net::LinkModel::wan());

  Metrics m;
  NotifySink sink1(net, {1, 2}, m);
  NotifySink sink2(net, {2, 2}, m);
  // Floor control lives at the conference server; requests ride RPC.
  ccontrol::FloorControl floor(
      sim, {.policy = ccontrol::FloorPolicy::kExplicitRelease});
  rpc::RpcServer server(net, {100, 1});
  server.register_async_method(
      "floor", [&](const std::string& body,
                   std::function<void(rpc::HandlerResult)> reply) {
        util::Reader r(body);
        const auto client = r.get<ccontrol::ClientId>();
        floor.request(client, [reply = std::move(reply)](bool ok) {
          util::Writer w;
          w.put(ok);
          reply(rpc::HandlerResult::success(w.take()));
        });
      });
  server.register_method("release", [&](const std::string& body) {
    util::Reader r(body);
    floor.release(r.get<ccontrol::ClientId>());
    return rpc::HandlerResult::success("");
  });
  server.register_method("write", [&](const std::string& body) {
    util::Reader r(body);
    const auto author = r.get<ccontrol::ClientId>();
    const auto stamped = r.get<sim::TimePoint>();
    util::Writer w;
    w.put(author).put(stamped);
    const net::Address peer =
        author == 1 ? net::Address{2, 2} : net::Address{1, 2};
    net.send({.src = {100, 1}, .dst = peer, .payload = w.take()});
    return rpc::HandlerResult::success("");
  });
  rpc::RpcClient rpc1(net, {1, 1});
  rpc::RpcClient rpc2(net, {2, 1});

  std::function<void(int, int)> edit = [&](int user, int remaining) {
    if (remaining == 0) return;
    auto& rpc = user == 1 ? rpc1 : rpc2;
    const auto id = static_cast<ccontrol::ClientId>(user);
    const sim::TimePoint wanted = sim.now();
    util::Writer w;
    w.put(id);
    rpc.call(
        net::Address{100, 1}, "floor", w.take(),
        [&, user, remaining, wanted, id](const rpc::RpcResult& res) {
          if (!res.ok()) {
            sim.schedule_after(sim::sec(1),
                               [&, user, remaining] { edit(user, remaining); });
            return;
          }
          m.response_us.add(static_cast<double>(sim.now() - wanted));
          sim.schedule_after(kEditHold, [&, user, remaining, id] {
            auto& rr = user == 1 ? rpc1 : rpc2;
            util::Writer ww;
            ww.put(id).put(sim.now());
            rr.call(net::Address{100, 1}, "write", ww.take(),
                    [](const rpc::RpcResult&) {},
                    {.timeout = sim::msec(500), .retries = 6, .backoff = 1.5});
            util::Writer rw;
            rw.put(id);
            rr.call(net::Address{100, 1}, "release", rw.take(),
                    [](const rpc::RpcResult&) {},
                    {.timeout = sim::msec(500), .retries = 6, .backoff = 1.5});
            sim.schedule_after(
                static_cast<sim::Duration>(
                    sim.rng().exponential(kThinkMeanMs) * 1000),
                [&, user, remaining] { edit(user, remaining - 1); });
          });
        },
        {.timeout = sim::sec(3), .retries = 12, .backoff = 1.3});
  };
  edit(1, kEditsPerUser);
  edit(2, kEditsPerUser);
  sim.run_until(sim::minutes(60));
  return m;
}

Metrics run_ot_scheme() {
  Platform platform(55);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link(net::LinkModel::wan());

  Metrics m;
  groupware::EditorServer server(net, {100, 1}, std::string(400, 'x'));
  groupware::EditorClient u1(net, {1, 1}, {100, 1}, 1,
                             std::string(400, 'x'));
  groupware::EditorClient u2(net, {2, 1}, {100, 1}, 2,
                             std::string(400, 'x'));
  // The clients keep no samples; E1 keeps its own exact Summary, fed by
  // each client's remote-change callback.
  for (groupware::EditorClient* client : {&u1, &u2}) {
    client->on_remote_change([&m](const ccontrol::TextOp&, sim::Duration d) {
      m.notify_us.add(static_cast<double>(d));
    });
  }
  u1.connect();
  u2.connect();

  std::function<void(int, int)> edit = [&](int user, int remaining) {
    if (remaining == 0) return;
    auto& client = user == 1 ? u1 : u2;
    const sim::TimePoint wanted = sim.now();
    const auto pos = static_cast<std::size_t>(sim.rng().uniform_int(
        0, static_cast<std::int64_t>(client.doc().size())));
    client.insert(pos, "y");  // applies immediately
    m.response_us.add(static_cast<double>(sim.now() - wanted));  // == 0
    sim.schedule_after(
        static_cast<sim::Duration>(sim.rng().exponential(kThinkMeanMs) *
                                   1000) +
            kEditHold,
        [&, user, remaining] { edit(user, remaining - 1); });
  };
  sim.schedule_at(sim::msec(500), [&] {  // after join snapshots land
    edit(1, kEditsPerUser);
    edit(2, kEditsPerUser);
  });
  sim.run_until(sim::minutes(60));
  return m;
}

void report(benchmark::State& state, const Metrics& m) {
  state.counters["response_ms_mean"] = m.response_us.mean() / 1000.0;
  state.counters["response_ms_p95"] = m.response_us.p95() / 1000.0;
  state.counters["notify_ms_mean"] = m.notify_us.mean() / 1000.0;
  state.counters["edits"] = static_cast<double>(m.response_us.count());
  state.counters["overlaps_flagged"] = m.flagged_overlaps;
}

void BM_StrictLock(benchmark::State& state) {
  Metrics m;
  for (auto _ : state)
    m = run_lock_scheme(ccontrol::LockStyle::kStrict, /*abandons=*/true);
  report(state, m);
}
void BM_TickleLock(benchmark::State& state) {
  Metrics m;
  for (auto _ : state)
    m = run_lock_scheme(ccontrol::LockStyle::kTickle, /*abandons=*/true);
  report(state, m);
}
void BM_SoftLock(benchmark::State& state) {
  Metrics m;
  for (auto _ : state)
    m = run_lock_scheme(ccontrol::LockStyle::kSoft, /*abandons=*/false);
  report(state, m);
}
void BM_FloorControl(benchmark::State& state) {
  Metrics m;
  for (auto _ : state) m = run_floor_scheme();
  report(state, m);
}
void BM_OperationalTransformation(benchmark::State& state) {
  Metrics m;
  for (auto _ : state) m = run_ot_scheme();
  report(state, m);
}

BENCHMARK(BM_StrictLock)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TickleLock)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SoftLock)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FloorControl)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OperationalTransformation)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

#include "bench_harness.hpp"
COOP_BENCH_MAIN("e1")
