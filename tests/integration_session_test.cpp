// Integration tests: conference sessions under failures (membership +
// group channel + floor + streams together), and the mobile
// disconnect/edit/reconnect cycle against a live session.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/coop.hpp"

namespace coop {
namespace {

TEST(SessionIntegration, ConferenceSurvivesMemberCrash) {
  Platform platform(2002);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link(net::LinkModel::lan());

  // Membership tracks the roster; the group channel carries the talk.
  groups::MembershipCoordinator coord(net, {100, 1});
  std::vector<std::unique_ptr<groups::MembershipMember>> members;
  std::vector<std::unique_ptr<groups::GroupChannel>> channels;
  std::vector<net::Address> chan_addrs = {{1, 10}, {2, 10}, {3, 10}};
  for (net::NodeId n = 1; n <= 3; ++n) {
    members.push_back(std::make_unique<groups::MembershipMember>(
        net, net::Address{n, 1}, net::Address{100, 1}));
    channels.push_back(std::make_unique<groups::GroupChannel>(
        net, chan_addrs[n - 1], 7,
        groups::ChannelConfig{.ordering = groups::Ordering::kTotal,
                              .retransmit_timeout = sim::msec(30),
                              .max_retransmits = 10}));
  }
  for (auto& c : channels) c->set_members(chan_addrs);
  std::vector<std::vector<std::string>> logs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    channels[i]->on_deliver([&logs, i](const groups::Delivery& d) {
      logs[i].push_back(d.payload);
    });
  }
  for (auto& m : members) m->join();
  sim.run_until(sim::msec(300));
  EXPECT_EQ(coord.view().members.size(), 3u);

  channels[0]->broadcast("agenda item 1");
  sim.run_until(sim::msec(500));

  // Node 3 crashes.  Membership notices; survivors mark it failed in the
  // channel and keep talking without retransmission storms.
  net.crash(3);
  coord.on_view_change([&](const groups::View& v) {
    if (!v.contains({3, 1})) {
      channels[0]->mark_failed({3, 10});
      channels[1]->mark_failed({3, 10});
    }
  });
  sim.run_until(sim::sec(3));
  EXPECT_EQ(coord.view().members.size(), 2u);

  channels[1]->broadcast("agenda item 2 after the crash");
  sim.run_until(sim::sec(5));
  ASSERT_EQ(logs[0].size(), 2u);
  ASSERT_EQ(logs[1].size(), 2u);
  EXPECT_EQ(logs[0], logs[1]);  // total order among survivors
  EXPECT_EQ(channels[0]->stats().gave_up + channels[1]->stats().gave_up, 0u)
      << "survivors should stop retransmitting to the dead member";
}

TEST(SessionIntegration, FloorAndStreamsShareTheSession) {
  Platform platform(2003);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link({.latency = sim::msec(8), .jitter = sim::msec(2),
                        .bandwidth_bps = 4e6, .loss = 0.001});

  groupware::ConferenceServer conf(
      net, {10, 1}, std::make_unique<groupware::TerminalApp>(),
      {.policy = ccontrol::FloorPolicy::kExplicitRelease});
  groupware::ConferenceClient a(net, {1, 1}, {10, 1}, 1);
  groupware::ConferenceClient b(net, {2, 1}, {10, 1}, 2);
  a.join();
  b.join();

  streams::QosSpec audio{.fps = 50, .frame_bytes = 320,
                         .latency_bound = sim::msec(150),
                         .jitter_bound = sim::msec(40), .min_fps = 25};
  streams::MediaSource src(sim, 1, audio);
  streams::StreamBinding bind(net, src, {1, 20}, net::Address{2, 20});
  streams::MediaSink sink(net, {2, 20});
  streams::QosMonitor monitor(sim, sink, audio);
  src.start();

  sim.schedule_at(sim::msec(100), [&] { a.request_floor(); });
  sim.schedule_at(sim::msec(300), [&] { a.send_input("hello"); });
  sim.schedule_at(sim::msec(500), [&] {
    a.release_floor();
    b.request_floor();
  });
  sim.schedule_at(sim::sec(1), [&] { b.send_input("hi back"); });
  sim.run_until(sim::sec(5));

  EXPECT_EQ(a.display(), "hello\nhi back");
  EXPECT_EQ(b.display(), "hello\nhi back");
  EXPECT_EQ(monitor.violations(), 0u);  // audio unharmed by the app traffic
  EXPECT_GT(sink.frames_received(), 200u);
}

TEST(SessionIntegration, MobileMemberRoundTripAgainstSharedStore) {
  Platform platform(2004);
  auto& sim = platform.simulator();
  auto& net = platform.network();
  net.set_default_link(net::LinkModel::lan());
  net.set_radio_model(net::LinkModel::radio());

  mobile::ShareServer store_server(net, {100, 1});
  store_server.store().write("minutes", "v1 by the office");

  mobile::MobileHost laptop(net, {5, 1}, {100, 1},
                            mobile::ConflictPolicy::kServerWins);
  // A desk colleague keeps using the store directly while the laptop
  // roams.
  rpc::RpcClient desk(net, {6, 1});

  laptop.hoard({"minutes"}, nullptr);
  sim.run_until(sim::msec(200));

  laptop.set_connectivity(net::Connectivity::kDisconnected);
  laptop.write("minutes", "v2 from the train", [](bool ok) {
    EXPECT_TRUE(ok);
  });

  // Office edit while the laptop is away -> reintegration conflict.
  sim.schedule_at(sim::sec(1), [&] {
    util::Writer w;
    w.put_string("minutes");
    w.put_string("v2 by the office");
    desk.call({100, 1}, "write", w.take(), [](const rpc::RpcResult& r) {
      EXPECT_TRUE(r.ok());
    });
  });

  std::size_t applied = 99;
  std::vector<mobile::Conflict> conflicts;
  sim.schedule_at(sim::sec(2), [&] {
    laptop.set_connectivity(net::Connectivity::kFull);
    laptop.reintegrate([&](std::size_t a,
                           const std::vector<mobile::Conflict>& c) {
      applied = a;
      conflicts = c;
    });
  });
  sim.run_until(sim::sec(10));

  EXPECT_EQ(applied, 0u);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].server_value, "v2 by the office");
  // Server-wins: office version stands; the laptop's cache was updated.
  EXPECT_EQ(store_server.store().read("minutes"), "v2 by the office");
  laptop.read("minutes", [](bool ok, auto v) {
    EXPECT_TRUE(ok);
    EXPECT_EQ(v, "v2 by the office");
  });
  sim.run_until(sim::sec(12));
}

TEST(SessionIntegration, SeamlessQuadrantTransitionRetunesTheSession) {
  // The paper's "seamless transitions": an asynchronous co-authoring
  // session goes synchronous for a review meeting.  The session object
  // carries the classification; the infrastructure recommendations
  // change with it.
  Platform platform(2005);
  groupware::Session session(
      "review", {groupware::Place::kDifferent, groupware::Tempo::kDifferent});
  const auto before_digest =
      session.classification().recommended_digest_period();
  EXPECT_EQ(session.classification().recommended_ordering(),
            groups::Ordering::kCausal);

  EXPECT_TRUE(session.reclassify(
      {groupware::Place::kDifferent, groupware::Tempo::kSame}));
  EXPECT_EQ(session.classification().recommended_ordering(),
            groups::Ordering::kTotal);
  EXPECT_LT(session.classification().recommended_digest_period(),
            before_digest);
  EXPECT_EQ(session.transitions(), 1u);
}

}  // namespace
}  // namespace coop
