// Tests for continuous media: sources, sinks, bindings, QoS contracts,
// monitoring, admission/re-negotiation, and real-time synchronization.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "streams/qos.hpp"
#include "streams/stream.hpp"
#include "streams/sync.hpp"

namespace coop::streams {
namespace {

class StreamTest : public ::testing::Test {
 protected:
  StreamTest() : sim(11), net(sim) {
    net.set_default_link({.latency = sim::msec(5), .jitter = sim::msec(1),
                          .bandwidth_bps = 10e6, .loss = 0.0});
  }
  sim::Simulator sim;
  net::Network net;
};

QosSpec video25() {
  return {.fps = 25.0,
          .frame_bytes = 4000,
          .latency_bound = sim::msec(150),
          .jitter_bound = sim::msec(30),
          .min_fps = 5.0};
}

TEST_F(StreamTest, SourceEmitsAtConfiguredRate) {
  MediaSource src(sim, 1, video25());
  int frames = 0;
  src.on_emit([&](const Frame&) { ++frames; });
  src.start();
  sim.run_until(sim::sec(2));
  EXPECT_EQ(frames, 50);  // 25 fps for 2 s
}

TEST_F(StreamTest, FrameEncodingRoundTrips) {
  const Frame f{.stream_id = 7, .seq = 42, .captured_at = sim::msec(123),
                .size = 999};
  const util::Buf wire = util::encode(f);
  Frame decoded;
  ASSERT_TRUE(util::decode(wire, decoded));
  EXPECT_EQ(decoded.stream_id, 7u);
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_EQ(decoded.captured_at, sim::msec(123));
  EXPECT_EQ(decoded.size, 999u);
  EXPECT_FALSE(util::decode(std::string_view("garbage"), decoded));
}

TEST_F(StreamTest, UnicastBindingDeliversFramesWithLatency) {
  MediaSource src(sim, 1, video25());
  StreamBinding binding(net, src, {1, 1}, net::Address{2, 1});
  MediaSink sink(net, {2, 1});
  std::vector<sim::Duration> latencies;
  sink.on_frame([&](const Frame&, sim::Duration l) {
    latencies.push_back(l);
  });
  src.start();
  sim.run_until(sim::sec(1) + sim::msec(20));  // last frame still in flight at 1s
  EXPECT_EQ(sink.frames_received(), 25u);
  ASSERT_FALSE(latencies.empty());
  for (auto l : latencies) EXPECT_GE(l, sim::msec(4));
  EXPECT_EQ(binding.frames_sent(), 25u);
}

TEST_F(StreamTest, MulticastBindingReachesAllSinks) {
  MediaSource src(sim, 1, video25());
  const net::McastId group = 9;
  StreamBinding binding(net, src, {1, 1}, group);
  MediaSink sink_a(net, {2, 1});
  MediaSink sink_b(net, {3, 1});
  net.mcast_join(group, {2, 1});
  net.mcast_join(group, {3, 1});
  src.start();
  sim.run_until(sim::sec(1) + sim::msec(20));
  EXPECT_EQ(sink_a.frames_received(), 25u);
  EXPECT_EQ(sink_b.frames_received(), 25u);
}

TEST_F(StreamTest, SinkDetectsLossFromSequenceGaps) {
  net.set_default_link({.latency = sim::msec(5), .jitter = 0,
                        .bandwidth_bps = 10e6, .loss = 0.2});
  MediaSource src(sim, 1, video25());
  StreamBinding binding(net, src, {1, 1}, net::Address{2, 1});
  MediaSink sink(net, {2, 1});
  src.start();
  sim.run_until(sim::sec(4));
  EXPECT_GT(sink.frames_lost(), 0u);
  EXPECT_LT(sink.frames_received(), 100u);
}

TEST_F(StreamTest, MediaScalingChangesRate) {
  MediaSource src(sim, 1, video25());
  int frames = 0;
  src.on_emit([&](const Frame&) { ++frames; });
  src.start();
  sim.run_until(sim::sec(1));
  EXPECT_EQ(frames, 25);
  src.set_fps(10.0);
  frames = 0;
  sim.run_for(sim::sec(1));
  EXPECT_NEAR(frames, 10, 2);
  // Scaling clamps to [min_fps, contract fps].
  src.set_fps(1000.0);
  EXPECT_DOUBLE_EQ(src.fps(), 25.0);
  src.set_fps(0.1);
  EXPECT_DOUBLE_EQ(src.fps(), 5.0);
}

TEST_F(StreamTest, MonitorReportsHealthyOnGoodPath) {
  MediaSource src(sim, 1, video25());
  StreamBinding binding(net, src, {1, 1}, net::Address{2, 1});
  MediaSink sink(net, {2, 1});
  QosMonitor monitor(sim, sink, video25());
  std::vector<QosVerdict> verdicts;
  monitor.on_report([&](const QosReport& r, QosVerdict v) {
    verdicts.push_back(v);
    EXPECT_NEAR(r.achieved_fps, 25.0, 3.0);
  });
  src.start();
  sim.run_until(sim::sec(5));
  ASSERT_GE(verdicts.size(), 4u);
  for (std::size_t i = 1; i < verdicts.size(); ++i)
    EXPECT_EQ(verdicts[i], QosVerdict::kHealthy);
  EXPECT_EQ(monitor.violations(), 0u);
}

TEST_F(StreamTest, MonitorFlagsDegradationUnderCongestion) {
  // A 500 kbps link cannot carry 25 fps x 4000 B (= 800 kbps).
  net.set_link(1, 2, {.latency = sim::msec(5), .jitter = 0,
                      .bandwidth_bps = 500e3, .loss = 0.0});
  MediaSource src(sim, 1, video25());
  StreamBinding binding(net, src, {1, 1}, net::Address{2, 1});
  MediaSink sink(net, {2, 1});
  QosMonitor monitor(sim, sink, video25());
  src.start();
  sim.run_until(sim::sec(5));
  EXPECT_GT(monitor.violations(), 0u);
}

TEST_F(StreamTest, AdmissionControlRespectsCapacity) {
  QosManager mgr(2e6);  // 2 Mbps budget
  const auto a = mgr.admit(video25());  // 800 kbps
  EXPECT_TRUE(a.admitted);
  EXPECT_DOUBLE_EQ(a.granted.fps, 25.0);
  const auto b = mgr.admit(video25());  // another 800k: fits
  EXPECT_TRUE(b.admitted);
  // Third stream: only 400 kbps left -> counter-offer at 12.5 fps.
  const auto c = mgr.admit(video25());
  EXPECT_TRUE(c.admitted);
  EXPECT_LT(c.granted.fps, 25.0);
  EXPECT_GE(c.granted.fps, 5.0);
  // Fourth: nothing meaningful left.
  const auto d = mgr.admit(video25());
  EXPECT_FALSE(d.admitted);
  // Release one and admission works again.
  mgr.release(a.granted);
  EXPECT_TRUE(mgr.admit(video25()).admitted);
}

TEST_F(StreamTest, ReactScalesDownOnDegradationAndRecovers) {
  QosManager mgr(10e6);
  const QosSpec contract = video25();
  auto down = mgr.react(contract, 25.0, QosVerdict::kDegraded);
  ASSERT_TRUE(down.has_value());
  EXPECT_LT(*down, 25.0);
  // Repeated degradation floors at min_fps.
  double fps = *down;
  for (int i = 0; i < 10; ++i) {
    auto next = mgr.react(contract, fps, QosVerdict::kDegraded);
    if (next) fps = *next;
  }
  EXPECT_DOUBLE_EQ(fps, contract.min_fps);
  // Healthy windows creep back up to the contract.
  for (int i = 0; i < 50; ++i) {
    auto next = mgr.react(contract, fps, QosVerdict::kHealthy);
    if (next) fps = *next;
  }
  EXPECT_DOUBLE_EQ(fps, 25.0);
  EXPECT_FALSE(mgr.react(contract, 25.0, QosVerdict::kHealthy).has_value());
}

TEST_F(StreamTest, ClosedLoopAdaptorStabilizesCongestedStream) {
  // End-to-end: the QosAdaptor must settle the stream near the rate a
  // 500 kbps link can carry (~15.6 fps) instead of drowning the link or
  // pinning at the floor.
  net.set_link(1, 2, {.latency = sim::msec(5), .jitter = 0,
                      .bandwidth_bps = 500e3, .loss = 0.0});
  MediaSource src(sim, 1, video25());
  StreamBinding binding(net, src, {1, 1}, net::Address{2, 1});
  MediaSink sink(net, {2, 1});
  QosMonitor monitor(sim, sink, video25());
  QosManager mgr(10e6);
  QosAdaptor adaptor(monitor, mgr, src, video25());
  src.start();
  sim.run_until(sim::sec(30));
  EXPECT_GT(adaptor.rescales(), 0u);
  // AIMD oscillates around the sustainable rate; it must neither pin at
  // the 5 fps floor nor sit at the 25 fps contract.
  EXPECT_LE(src.fps(), 18.0);
  EXPECT_GT(src.fps(), 5.0);
}

TEST_F(StreamTest, AdaptorRecoversAfterCongestionClears) {
  // Congest the path for 10 s, then restore it: the adaptor must scale
  // down during congestion and probe back to the full contract after.
  net.set_link(1, 2, {.latency = sim::msec(5), .jitter = 0,
                      .bandwidth_bps = 300e3, .loss = 0.0});
  MediaSource src(sim, 1, video25());
  StreamBinding binding(net, src, {1, 1}, net::Address{2, 1});
  MediaSink sink(net, {2, 1});
  QosMonitor monitor(sim, sink, video25());
  QosManager mgr(10e6);
  QosAdaptor adaptor(monitor, mgr, src, video25());
  src.start();
  sim.run_until(sim::sec(10));
  EXPECT_LT(src.fps(), 25.0);  // scaled down under congestion
  net.set_link(1, 2, {.latency = sim::msec(5), .jitter = 0,
                      .bandwidth_bps = 10e6, .loss = 0.0});
  sim.run_until(sim::sec(40));
  EXPECT_DOUBLE_EQ(src.fps(), 25.0);  // probed back to the contract
  EXPECT_DOUBLE_EQ(adaptor.operating_fps(), 25.0);
}

TEST_F(StreamTest, PlayoutPositionAdvancesAfterPrebuffer) {
  MediaSource src(sim, 1, video25());
  StreamBinding binding(net, src, {1, 1}, net::Address{2, 1});
  MediaSink sink(net, {2, 1}, /*prebuffer=*/sim::msec(100));
  EXPECT_EQ(sink.playout_position(), -1);
  src.start();
  sim.run_until(sim::msec(50));   // first frame arrived ~45ms
  EXPECT_EQ(sink.playout_position(), -1);  // still prebuffering
  sim.run_until(sim::sec(1));
  const auto pos = sink.playout_position();
  EXPECT_GT(pos, 0);
  EXPECT_LT(pos, sim::sec(1));
}

// --------------------------------------------------------------- sync

TEST_F(StreamTest, EventSyncFiresCuesInOrder) {
  MediaSource src(sim, 1, video25());
  StreamBinding binding(net, src, {1, 1}, net::Address{2, 1});
  MediaSink sink(net, {2, 1});
  EventSync cues(sim, sink);
  std::vector<int> fired;
  cues.at(sim::msec(100), [&](std::int64_t) { fired.push_back(1); });
  cues.at(sim::msec(300), [&](std::int64_t) { fired.push_back(3); });
  cues.at(sim::msec(200), [&](std::int64_t) { fired.push_back(2); });
  src.start();
  sim.run_until(sim::sec(1));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(cues.pending(), 0u);
  // Firing error bounded by the poll period.
  EXPECT_LE(cues.firing_error().max(),
            static_cast<double>(sim::msec(10)) + 1);
}

TEST_F(StreamTest, ContinuousSyncBoundsLipSyncSkew) {
  // Audio over a fast link, video over a much slower one: without
  // correction their playout clocks start ~85ms apart.
  net.set_link(1, 2, {.latency = sim::msec(5), .jitter = sim::msec(1),
                      .bandwidth_bps = 10e6, .loss = 0});
  net.set_link(1, 3, {.latency = sim::msec(90), .jitter = sim::msec(5),
                      .bandwidth_bps = 10e6, .loss = 0});
  QosSpec audio{.fps = 50, .frame_bytes = 320,
                .latency_bound = sim::msec(150),
                .jitter_bound = sim::msec(30), .min_fps = 50};
  MediaSource audio_src(sim, 1, audio);
  MediaSource video_src(sim, 2, video25());
  StreamBinding ab(net, audio_src, {1, 1}, net::Address{2, 1});
  StreamBinding vb(net, video_src, {1, 2}, net::Address{3, 1});
  MediaSink audio_sink(net, {2, 1});
  MediaSink video_sink(net, {3, 1});
  ContinuousSync sync(sim, audio_sink, video_sink,
                      {.check_period = sim::msec(100),
                       .skew_bound = sim::msec(80),
                       .correction_gain = 0.5});
  sync.start();
  audio_src.start();
  video_src.start();
  sim.run_until(sim::sec(10));
  EXPECT_GT(sync.corrections(), 0u);
  // After convergence the residual skew must sit within the bound.
  const auto& skew = sync.skew();
  ASSERT_GT(skew.count(), 50u);
  const auto tail = skew.samples().back();
  EXPECT_LE(std::abs(tail), static_cast<double>(sim::msec(80)));
}

TEST_F(StreamTest, ContinuousSyncWithoutRegulatorDrifts) {
  // Control experiment: same topology, no regulator -> skew persists.
  net.set_link(1, 3, {.latency = sim::msec(90), .jitter = 0,
                      .bandwidth_bps = 10e6, .loss = 0});
  QosSpec audio{.fps = 50, .frame_bytes = 320,
                .latency_bound = sim::msec(150),
                .jitter_bound = sim::msec(30), .min_fps = 50};
  MediaSource audio_src(sim, 1, audio);
  MediaSource video_src(sim, 2, video25());
  StreamBinding ab(net, audio_src, {1, 1}, net::Address{2, 1});
  StreamBinding vb(net, video_src, {1, 2}, net::Address{3, 1});
  MediaSink audio_sink(net, {2, 1});
  MediaSink video_sink(net, {3, 1});
  audio_src.start();
  video_src.start();
  sim.run_until(sim::sec(5));
  const auto skew = audio_sink.playout_position() -
                    video_sink.playout_position();
  EXPECT_GT(skew, sim::msec(60));  // uncorrected offset remains
}

}  // namespace
}  // namespace coop::streams
