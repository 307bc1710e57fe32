// Overload control plane tests: deadline propagation and its interaction
// with retries (truncation, same-step races), retry budgets, circuit
// breakers, priority admission control with pushback, FIFO backlog
// bounding, sequencer-side expiry, and the QosManager overload window.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/coop.hpp"

namespace coop {
namespace {

class OverloadRpcTest : public ::testing::Test {
 protected:
  OverloadRpcTest() : sim(7), net(sim), server(net, {2, 1}) {
    server.register_method("echo", [](const std::string& req) {
      return rpc::HandlerResult::success(req);
    });
  }

  sim::Simulator sim;
  net::Network net;
  rpc::RpcServer server;
};

// A retry whose armed timeout would overshoot the deadline must be
// truncated to the remaining slack: with a 50 ms per-attempt timeout,
// plenty of retries, and a 120 ms deadline against a crashed server, the
// call finishes with kTimeout exactly at the deadline — 50 + 50 + 20,
// never 50 + 100 + 200 of untruncated backoff.
TEST_F(OverloadRpcTest, RetryTimeoutTruncatedAtDeadline) {
  net.crash(2);
  rpc::RpcClient client(net, {1, 1});
  rpc::RpcResult got;
  sim::TimePoint done_at = 0;
  client.call({2, 1}, "echo", "x",
              [&](const rpc::RpcResult& r) {
                got = r;
                done_at = sim.now();
              },
              {.timeout = sim::msec(50), .retries = 5, .backoff = 1.0,
               .deadline = sim::msec(120)});
  sim.run();
  EXPECT_EQ(got.status, rpc::Status::kTimeout);
  EXPECT_EQ(done_at, sim::msec(120));
}

// A reply landing in the same sim step as the deadline wins (the mirror
// of the GroupInvoker deadline race, now at the RpcClient layer).  First
// measure the deterministic round-trip with a probe, then issue a call
// whose deadline equals exactly that round-trip: the reply and the
// deadline expiry land in the same step, and the reply must win.
TEST_F(OverloadRpcTest, ReplyInSameStepAsDeadlineWins) {
  net.set_default_link({.latency = sim::msec(5), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0.0});
  rpc::RpcClient client(net, {1, 1});
  sim::Duration probe_rtt = 0;
  client.call({2, 1}, "echo", "probe",
              [&](const rpc::RpcResult& r) { probe_rtt = r.rtt; });
  sim.run();
  ASSERT_GT(probe_rtt, 0);

  rpc::RpcResult got;
  client.call({2, 1}, "echo", "raced",
              [&](const rpc::RpcResult& r) { got = r; },
              {.timeout = sim::sec(1), .retries = 0,
               .deadline = sim.now() + probe_rtt});
  sim.run();
  EXPECT_TRUE(got.ok()) << "reply arriving at the deadline instant lost";
  EXPECT_EQ(got.rtt, probe_rtt);
}

// ...and one microsecond less of slack flips the race: the deadline now
// precedes the reply, so the call times out at the deadline.
TEST_F(OverloadRpcTest, DeadlineOneStepBeforeReplyTimesOut) {
  net.set_default_link({.latency = sim::msec(5), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0.0});
  rpc::RpcClient client(net, {1, 1});
  sim::Duration probe_rtt = 0;
  client.call({2, 1}, "echo", "probe",
              [&](const rpc::RpcResult& r) { probe_rtt = r.rtt; });
  sim.run();

  rpc::RpcResult got;
  client.call({2, 1}, "echo", "raced",
              [&](const rpc::RpcResult& r) { got = r; },
              {.timeout = sim::sec(1), .retries = 0,
               .deadline = sim.now() + probe_rtt - 1});
  sim.run();
  EXPECT_EQ(got.status, rpc::Status::kTimeout);
}

// Admission control honours deadlines on dequeue: with a serial 10 ms
// service time, a burst of five calls bearing a 25 ms deadline gets
// three dequeued in time (the third's reply is already late for its
// caller) — the final two expire in the run queue and are dropped
// without burning service time (counted in rpc.expired_drops).
TEST_F(OverloadRpcTest, ServerDropsExpiredWorkOnDequeue) {
  net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0.0});
  server.set_processing_time(sim::msec(10));
  server.set_admission({});
  rpc::RpcClient client(net, {1, 1});
  int ok = 0, timeout = 0;
  for (int i = 0; i < 5; ++i) {
    client.call({2, 1}, "echo", std::to_string(i),
                [&](const rpc::RpcResult& r) {
                  r.ok() ? ++ok : ++timeout;
                },
                {.timeout = sim::msec(200), .retries = 0,
                 .deadline = sim::msec(25)});
  }
  sim.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(timeout, 3);
  EXPECT_EQ(server.expired_drops(), 2u);
  EXPECT_EQ(net.obs().metrics.counter("rpc.expired_drops").value(), 2u);
}

// The retry budget caps retries: with one initial token and a crashed
// server, the first retry spends the bucket dry and the second is denied,
// failing the call early instead of fueling a retry storm.
TEST_F(OverloadRpcTest, RetryBudgetDeniesRetriesWhenDry) {
  net.crash(2);
  rpc::RpcClient client(
      net, {1, 1},
      {.budget = {.enabled = true, .ratio = 0.1, .initial = 1.0}});
  rpc::RpcResult got;
  sim::TimePoint done_at = 0;
  client.call({2, 1}, "echo", "x",
              [&](const rpc::RpcResult& r) {
                got = r;
                done_at = sim.now();
              },
              {.timeout = sim::msec(10), .retries = 5, .backoff = 1.0});
  sim.run();
  EXPECT_EQ(got.status, rpc::Status::kTimeout);
  // Attempt 1 times out at 10 ms, the budgeted retry at 20 ms; the next
  // retry is denied, ending the call there instead of at 60 ms.
  EXPECT_EQ(done_at, sim::msec(20));
  EXPECT_EQ(client.retries_denied(), 1u);
  EXPECT_LT(client.budget_tokens({2, 1}), 1.0);
}

// Circuit breaker lifecycle: consecutive timeouts open it (calls then
// fast-fail with kRejected without touching the wire), the cooldown
// half-opens it for a single probe, and a successful probe closes it.
TEST_F(OverloadRpcTest, BreakerOpensFastFailsAndRecloses) {
  net.crash(2);
  rpc::RpcClient client(
      net, {1, 1},
      {.breaker = {.enabled = true, .failure_threshold = 2,
                   .open_duration = sim::msec(100)}});
  const rpc::CallOptions quick{.timeout = sim::msec(10), .retries = 0};
  std::vector<rpc::Status> results;
  const auto record = [&](const rpc::RpcResult& r) {
    results.push_back(r.status);
  };
  client.call({2, 1}, "echo", "a", record, quick);
  sim.run();
  client.call({2, 1}, "echo", "b", record, quick);
  sim.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(client.breaker_state({2, 1}), net::CircuitBreaker::State::kOpen);

  // Open: fast-fail locally, no wire traffic, no timeout burned.
  const sim::TimePoint before = sim.now();
  client.call({2, 1}, "echo", "c", record, quick);
  sim.run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[2], rpc::Status::kRejected);
  EXPECT_EQ(sim.now(), before);  // same step: nothing waited on the wire
  EXPECT_GE(client.rejected(), 1u);

  // After the cooldown the half-open probe goes through to the (healed)
  // server and its success recloses the breaker.
  net.restart(2);
  sim.schedule_at(before + sim::msec(150), [&] {
    client.call({2, 1}, "echo", "probe", record, quick);
  });
  sim.run();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[3], rpc::Status::kOk);
  EXPECT_EQ(client.breaker_state({2, 1}),
            net::CircuitBreaker::State::kClosed);
}

// Priority shedding: at the background watermark the server refuses
// kBackground work with an immediate kRejected pushback while kCore work
// is still admitted up to the full queue capacity.
TEST_F(OverloadRpcTest, ServerShedsBackgroundBeforeCore) {
  net.set_default_link({.latency = sim::msec(1), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0.0});
  server.set_processing_time(sim::msec(10));
  server.set_admission({.queue_capacity = 8, .control_watermark = 5,
                        .background_watermark = 2});
  rpc::RpcClient client(net, {1, 1});
  int bg_ok = 0, bg_rejected = 0, core_ok = 0, core_rejected = 0;
  for (int i = 0; i < 6; ++i) {
    client.call({2, 1}, "echo", "bg",
                [&](const rpc::RpcResult& r) {
                  r.status == rpc::Status::kRejected ? ++bg_rejected
                                                     : ++bg_ok;
                },
                {.timeout = sim::sec(1), .retries = 0,
                 .priority = net::Priority::kBackground});
    client.call({2, 1}, "echo", "core",
                [&](const rpc::RpcResult& r) {
                  r.status == rpc::Status::kRejected ? ++core_rejected
                                                     : ++core_ok;
                },
                {.timeout = sim::sec(1), .retries = 0,
                 .priority = net::Priority::kCore});
  }
  sim.run();
  EXPECT_EQ(core_rejected, 0);
  EXPECT_EQ(core_ok, 6);
  EXPECT_GT(bg_rejected, 0);
  EXPECT_EQ(server.shed(net::Priority::kBackground),
            static_cast<std::uint64_t>(bg_rejected));
  EXPECT_EQ(server.shed(net::Priority::kCore), 0u);
}

// FifoChannel backlog bounding (the max_retransmits = -1 fix): toward an
// unreachable peer the unacked backlog stops at max_unacked, overflowing
// sends are counted, and the kPeerUnreachable callback fires once per
// episode instead of the queue growing forever.
TEST(OverloadFifoTest, BacklogCappedAndUnreachableReported) {
  sim::Simulator sim(11);
  net::Network net(sim);
  net.crash(2);
  net::FifoConfig cfg;
  cfg.max_unacked = 3;
  cfg.unreachable_after = 2;
  net::FifoChannel a(net, {1, 1}, cfg);
  std::vector<net::Address> unreachable;
  a.on_peer_unreachable(
      [&](const net::Address& peer) { unreachable.push_back(peer); });
  for (int i = 0; i < 10; ++i) a.send({2, 1}, "m" + std::to_string(i));
  sim.run_until(sim::sec(30));
  EXPECT_EQ(a.unacked({2, 1}), 3u);
  EXPECT_EQ(a.stats().overflow_dropped, 7u);
  ASSERT_EQ(unreachable.size(), 1u);  // once per episode, not per round
  EXPECT_EQ(unreachable[0], (net::Address{2, 1}));
  EXPECT_EQ(a.stats().unreachable_events, 1u);
}

// The total-order sequencer drops expired ordering requests on dequeue:
// the request is acked (so the sender stops retransmitting) but assigned
// no slot in the total order, and nobody stalls waiting for it.
TEST(OverloadGroupTest, SequencerDropsExpiredRequests) {
  sim::Simulator sim(13);
  net::Network net(sim);
  net.set_default_link({.latency = sim::msec(5), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0.0});
  groups::ChannelConfig cfg;
  cfg.ordering = groups::Ordering::kTotal;
  groups::ChannelConfig dated = cfg;
  dated.broadcast_deadline = sim::msec(2);  // expires before the 5 ms hop
  const std::vector<net::Address> members{{1, 1}, {2, 1}, {3, 1}};
  groups::GroupChannel a(net, {1, 1}, 7, cfg);   // sequencer (slot 0)
  groups::GroupChannel b(net, {2, 1}, 7, dated);
  groups::GroupChannel c(net, {3, 1}, 7, cfg);
  a.set_members(members);
  b.set_members(members);
  c.set_members(members);
  int delivered = 0;
  a.on_deliver([&](const groups::Delivery&) { ++delivered; });
  b.broadcast("too-late");
  sim.run();
  EXPECT_EQ(a.stats().expired_drops, 1u);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.obs().metrics.counter("rpc.expired_drops").value(), 1u);

  // The order is not wedged: an undated broadcast from another member
  // still sequences and delivers everywhere.
  c.broadcast("on-time");
  sim.run();
  EXPECT_EQ(delivered, 1);
}

// QosManager overload windows: note_overload() opens a window (counted
// once, extensions free) during which the manager reports itself in
// overload; a later signal after expiry opens a second window.
TEST(OverloadQosTest, OverloadWindowsCountedPerWindow) {
  Platform platform(17);
  auto& sim = platform.simulator();
  mgmt::QosManager plane(sim, platform.obs(),
                         {.overload_window = sim::msec(100)});
  EXPECT_FALSE(plane.in_overload_window());
  plane.note_overload();
  EXPECT_TRUE(plane.in_overload_window());
  sim.schedule_at(sim::msec(50), [&] { plane.note_overload(); });  // extends
  sim.schedule_at(sim::msec(120), [&] {
    EXPECT_TRUE(plane.in_overload_window());  // extended past 100 ms
  });
  sim.schedule_at(sim::msec(300), [&] {
    EXPECT_FALSE(plane.in_overload_window());
    plane.note_overload();  // a fresh window
  });
  sim.run();
  EXPECT_EQ(
      platform.metrics().counter("mgmt.qos.overload_windows").value(), 2u);
}

// During an overload window a healthy stream verdict is demoted to
// degraded, so media scales down on shed/pushback signals even when the
// stream's own link metrics look fine.
TEST(OverloadQosTest, OverloadWindowDemotesHealthyStream) {
  Platform platform(19);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link({.latency = sim::msec(20), .bandwidth_bps = 10e6});
  const streams::QosSpec spec{.fps = 25, .frame_bytes = 4000,
                              .latency_bound = sim::msec(200),
                              .jitter_bound = sim::msec(50),
                              .min_fps = 5};
  streams::MediaSource src(sim, 1, spec);
  streams::StreamBinding binding(net, src, {1, 1}, net::Address{2, 1});
  streams::MediaSink sink(net, {2, 1});
  streams::QosMonitor monitor(sim, sink, spec);
  mgmt::QosManager plane(sim, platform.obs(),
                         {.overload_window = sim::sec(5)});
  plane.manage("video", monitor, src, spec);
  src.start();

  // The link is roomy — without overload signals the stream would stay
  // nominal at the contract fps.  Repeated overload signals force it down.
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(sim::sec(1 + i), [&] { plane.note_overload(); });
  }
  double mid_fps = -1;
  sim.schedule_at(sim::sec(10), [&] {
    mid_fps = plane.operating_fps("video");
  });
  sim.run_until(sim::sec(12));  // mid-overload, before any restore probing
  EXPECT_EQ(plane.state("video"), mgmt::BindingState::kDegraded);
  EXPECT_LT(mid_fps, 25.0);
  EXPECT_GE(mid_fps, 5.0);
}

}  // namespace
}  // namespace coop
