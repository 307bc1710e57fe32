// Tests for the groupware toolkit: hyperdocuments & regions, the shared
// editor end-to-end, conferencing, flight strips, and sessions.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "groupware/conference.hpp"
#include "groupware/document.hpp"
#include "groupware/editor.hpp"
#include "groupware/flightstrips.hpp"
#include "groupware/session.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace coop::groupware {
namespace {

constexpr ClientId kAlice = 1;
constexpr ClientId kBob = 2;
constexpr ClientId kCarol = 3;

// ------------------------------------------------------------ documents

TEST(HyperDocument, BaseNodesFormTheText) {
  HyperDocument doc("paper");
  doc.add_base(kAlice, "Introduction.");
  doc.add_base(kAlice, "Conclusion.");
  EXPECT_EQ(doc.text(), "Introduction.\n\nConclusion.");
  EXPECT_EQ(doc.base_nodes().size(), 2u);
}

TEST(HyperDocument, AttachCommentsAndThreads) {
  HyperDocument doc("paper");
  const auto base = doc.add_base(kAlice, "Introduction.");
  const auto comment = doc.attach(kBob, base, NodeKind::kComment,
                                  "too short?");
  const auto reply = doc.attach(kAlice, comment, NodeKind::kComment,
                                "will expand");
  ASSERT_NE(comment, 0u);
  ASSERT_NE(reply, 0u);
  EXPECT_EQ(doc.children(base), std::vector<DocNodeId>{comment});
  EXPECT_EQ(doc.children(comment), std::vector<DocNodeId>{reply});
  EXPECT_EQ(doc.node(reply)->author, kAlice);
}

TEST(HyperDocument, AttachValidation) {
  HyperDocument doc("paper");
  const auto base = doc.add_base(kAlice, "x");
  EXPECT_EQ(doc.attach(kBob, 999, NodeKind::kComment, "y"), 0u);
  EXPECT_EQ(doc.attach(kBob, base, NodeKind::kBase, "y"), 0u);
}

TEST(HyperDocument, SuggestionLifecycle) {
  HyperDocument doc("paper");
  const auto base = doc.add_base(kAlice, "Teh introduction.");
  const auto fix = doc.attach(kBob, base, NodeKind::kSuggestion,
                              "The introduction.");
  const auto alt = doc.attach(kCarol, base, NodeKind::kSuggestion,
                              "An introduction.");
  EXPECT_EQ(doc.open_suggestions().size(), 2u);
  EXPECT_TRUE(doc.accept_suggestion(fix));
  EXPECT_EQ(doc.node(base)->content, "The introduction.");
  EXPECT_FALSE(doc.accept_suggestion(fix));  // already resolved
  EXPECT_TRUE(doc.reject_suggestion(alt));
  EXPECT_TRUE(doc.open_suggestions().empty());
  // Comments cannot be "accepted".
  const auto c = doc.attach(kBob, base, NodeKind::kComment, "nice");
  EXPECT_FALSE(doc.accept_suggestion(c));
}

TEST(HyperDocument, ChangeObserverFires) {
  HyperDocument doc("paper");
  std::vector<DocNodeId> changed;
  doc.on_change([&](const DocNode& n) { changed.push_back(n.id); });
  const auto base = doc.add_base(kAlice, "x");
  doc.attach(kBob, base, NodeKind::kAnnotation, "margin note");
  EXPECT_EQ(changed.size(), 2u);
}

// ------------------------------------------------------------- regions

TEST(Regions, GranularitiesProduceNestedCounts) {
  const std::string text =
      "# One\n\nFirst para here. Second sentence. Third.\n\nSecond para.";
  const auto doc = split_regions("d", text, Granularity::kDocument);
  const auto paras = split_regions("d", text, Granularity::kParagraph);
  const auto sents = split_regions("d", text, Granularity::kSentence);
  const auto words = split_regions("d", text, Granularity::kWord);
  EXPECT_EQ(doc.size(), 1u);
  EXPECT_EQ(paras.size(), 3u);
  EXPECT_GT(sents.size(), paras.size());
  EXPECT_GT(words.size(), sents.size());
}

TEST(Regions, SpansAreContiguousAndCover) {
  const std::string text = "Alpha beta gamma.\n\nDelta epsilon.";
  for (auto g : {Granularity::kDocument, Granularity::kParagraph,
                 Granularity::kSentence, Granularity::kWord}) {
    const auto regions = split_regions("d", text, g);
    ASSERT_FALSE(regions.empty());
    EXPECT_EQ(regions.front().begin, 0u);
    EXPECT_EQ(regions.back().end, text.size());
    for (std::size_t i = 1; i < regions.size(); ++i)
      EXPECT_EQ(regions[i].begin, regions[i - 1].end);
  }
}

TEST(Regions, RegionAtMapsPositions) {
  const std::string text = "One two.\n\nThree four.";
  EXPECT_EQ(region_at("d", text, Granularity::kDocument, 5), "d/doc/0");
  EXPECT_EQ(region_at("d", text, Granularity::kParagraph, 0), "d/para/0");
  EXPECT_EQ(region_at("d", text, Granularity::kParagraph, 15), "d/para/1");
  // Distinct words map to distinct resources.
  EXPECT_NE(region_at("d", text, Granularity::kWord, 0),
            region_at("d", text, Granularity::kWord, 5));
  // End-of-text append maps to the last region.
  EXPECT_EQ(region_at("d", text, Granularity::kParagraph, text.size()),
            "d/para/1");
}

// -------------------------------------------------------------- editor

class EditorTest : public ::testing::Test {
 protected:
  EditorTest() : sim(23), net(sim) {
    net.set_default_link({.latency = sim::msec(15), .jitter = sim::msec(5),
                          .bandwidth_bps = 10e6, .loss = 0.02});
  }
  sim::Simulator sim;
  net::Network net;
};

TEST_F(EditorTest, TwoAuthorsConvergeOverLossyNetwork) {
  EditorServer server(net, {10, 1}, "The  draft.");
  EditorClient alice(net, {1, 1}, {10, 1}, 1, "The  draft.");
  EditorClient bob(net, {2, 1}, {10, 1}, 2, "The  draft.");
  alice.connect();
  bob.connect();
  sim.run();
  alice.insert(4, "first ");
  bob.insert(11, " by Bob");  // "The  draft." pos 11 = end
  sim.run();
  EXPECT_EQ(alice.doc(), bob.doc());
  EXPECT_EQ(alice.doc(), server.doc());
  EXPECT_NE(alice.doc().find("first"), std::string::npos);
  EXPECT_NE(alice.doc().find("by Bob"), std::string::npos);
}

TEST_F(EditorTest, LocalEditIsImmediateRemoteCarriesNotificationTime) {
  EditorServer server(net, {10, 1}, "abc");
  EditorClient alice(net, {1, 1}, {10, 1}, 1, "abc");
  EditorClient bob(net, {2, 1}, {10, 1}, 2, "abc");
  std::vector<sim::Duration> bob_notify;
  bob.on_remote_change([&](const ccontrol::TextOp&, sim::Duration d) {
    bob_notify.push_back(d);
  });
  alice.connect();
  bob.connect();
  sim.run();
  alice.insert(0, "X");
  EXPECT_EQ(alice.doc(), "Xabc");  // response time zero
  sim.run();
  EXPECT_EQ(bob.doc(), "Xabc");
  ASSERT_EQ(bob_notify.size(), 1u);
  // Two hops (client->server->client), each >= 10ms latency.
  EXPECT_GE(bob_notify[0], sim::msec(20));
}

TEST_F(EditorTest, ConcurrentBurstsConvergeAcrossThreeAuthors) {
  EditorServer server(net, {10, 1}, "0123456789");
  EditorClient a(net, {1, 1}, {10, 1}, 1, "0123456789");
  EditorClient b(net, {2, 1}, {10, 1}, 2, "0123456789");
  EditorClient c(net, {3, 1}, {10, 1}, 3, "0123456789");
  a.connect();
  b.connect();
  c.connect();
  sim.run();
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(sim::msec(i * 7), [&, i] {
      a.insert(static_cast<std::size_t>(i), "a");
      b.erase(0);
      c.insert(0, "c");
    });
  }
  sim.run();
  EXPECT_EQ(a.doc(), server.doc());
  EXPECT_EQ(b.doc(), server.doc());
  EXPECT_EQ(c.doc(), server.doc());
}

TEST_F(EditorTest, RangeDeleteWorksRemotely) {
  EditorServer server(net, {10, 1}, "delete me please");
  EditorClient a(net, {1, 1}, {10, 1}, 1, "delete me please");
  EditorClient b(net, {2, 1}, {10, 1}, 2, "delete me please");
  std::vector<ccontrol::TextOp> at_b;
  b.on_remote_change([&](const ccontrol::TextOp& op, sim::Duration) {
    at_b.push_back(op);
  });
  a.connect();
  b.connect();
  sim.run();
  a.erase(6, 3);  // remove " me"
  EXPECT_EQ(a.doc(), "delete please");
  sim.run();
  EXPECT_EQ(b.doc(), "delete please");
  // The wire format is single-character deletes: one op per character,
  // each at the range's start.
  ASSERT_EQ(at_b.size(), 3u);
  for (const auto& op : at_b) {
    EXPECT_EQ(op.kind, ccontrol::TextOp::Kind::kDelete);
    EXPECT_EQ(op.pos, 6u);
  }
}

// ----------------------------------------------------------- conference

class ConferenceTest : public ::testing::Test {
 protected:
  ConferenceTest()
      : sim(29),
        net(sim),
        server(net, {10, 1}, std::make_unique<TerminalApp>(),
               {.policy = ccontrol::FloorPolicy::kExplicitRelease}),
        alice(net, {1, 1}, {10, 1}, kAlice),
        bob(net, {2, 1}, {10, 1}, kBob) {}

  sim::Simulator sim;
  net::Network net;
  ConferenceServer server;
  ConferenceClient alice, bob;
};

TEST_F(ConferenceTest, FloorHolderInputUpdatesEveryDisplay) {
  alice.join();
  bob.join();
  sim.run_until(sim.now() + sim::sec(2));
  alice.request_floor();
  sim.run_until(sim.now() + sim::sec(2));
  EXPECT_TRUE(alice.has_floor());
  EXPECT_EQ(bob.floor_holder(), kAlice);
  alice.send_input("hello group");
  sim.run_until(sim.now() + sim::sec(2));
  EXPECT_EQ(alice.display(), "hello group");
  EXPECT_EQ(bob.display(), "hello group");
  EXPECT_EQ(server.stats().inputs_accepted, 1u);
}

TEST_F(ConferenceTest, NonHolderInputIsRejected) {
  alice.join();
  bob.join();
  sim.run_until(sim.now() + sim::sec(2));
  alice.request_floor();
  sim.run_until(sim.now() + sim::sec(2));
  bob.send_input("barge in");
  sim.run_until(sim.now() + sim::sec(2));
  EXPECT_EQ(bob.display(), "");  // nothing reached the app
  EXPECT_EQ(server.stats().inputs_rejected, 1u);
}

TEST_F(ConferenceTest, FloorPassesOnRelease) {
  alice.join();
  bob.join();
  sim.run_until(sim.now() + sim::sec(2));
  alice.request_floor();
  bob.request_floor();
  sim.run_until(sim.now() + sim::sec(2));
  EXPECT_TRUE(alice.has_floor());
  alice.release_floor();
  sim.run_until(sim.now() + sim::sec(2));
  EXPECT_TRUE(bob.has_floor());
  bob.send_input("my turn");
  sim.run_until(sim.now() + sim::sec(2));
  EXPECT_EQ(alice.display(), "my turn");
}

TEST_F(ConferenceTest, LateJoinerReceivesCurrentState) {
  alice.join();
  sim.run_until(sim.now() + sim::sec(2));
  alice.request_floor();
  sim.run_until(sim.now() + sim::sec(2));
  alice.send_input("early line");
  sim.run_until(sim.now() + sim::sec(2));
  bob.join();
  sim.run_until(sim.now() + sim::sec(2));
  EXPECT_EQ(bob.display(), "early line");
  EXPECT_EQ(bob.floor_holder(), kAlice);
}

// ---------------------------------------------------------- flight strips

TEST(FlightStrips, ManualModeRequiresExplicitPosition) {
  FlightProgressBoard board(StripPlacement::kManual);
  FlightStrip ba123{.callsign = "BA123", .origin = "EGLL",
                    .destination = "EGCC", .eta = sim::minutes(10),
                    .flight_level = 310};
  // The naive call without a position fails: the friction is the design.
  EXPECT_FALSE(board.add_strip("DCS", ba123, std::nullopt, kAlice));
  EXPECT_TRUE(board.add_strip("DCS", ba123, 0, kAlice));
  EXPECT_EQ(board.rack("DCS").size(), 1u);
}

TEST(FlightStrips, AutomaticModeOrdersByEta) {
  FlightProgressBoard board(StripPlacement::kAutomatic);
  board.add_strip("DCS", {.callsign = "LATE", .eta = sim::minutes(30)},
                  std::nullopt, kAlice);
  board.add_strip("DCS", {.callsign = "SOON", .eta = sim::minutes(5)},
                  std::nullopt, kAlice);
  board.add_strip("DCS", {.callsign = "MID", .eta = sim::minutes(15)},
                  std::nullopt, kAlice);
  const auto rack = board.rack("DCS");
  ASSERT_EQ(rack.size(), 3u);
  EXPECT_EQ(rack[0].callsign, "SOON");
  EXPECT_EQ(rack[1].callsign, "MID");
  EXPECT_EQ(rack[2].callsign, "LATE");
}

TEST(FlightStrips, ManualReorderEncodesControllerIntent) {
  FlightProgressBoard board(StripPlacement::kManual);
  board.add_strip("DCS", {.callsign = "A"}, 0, kAlice);
  board.add_strip("DCS", {.callsign = "B"}, 1, kAlice);
  board.add_strip("DCS", {.callsign = "C"}, 2, kAlice);
  EXPECT_TRUE(board.move_strip("DCS", "C", 0, kBob));
  const auto rack = board.rack("DCS");
  EXPECT_EQ(rack[0].callsign, "C");
  EXPECT_EQ(rack[1].callsign, "A");
  EXPECT_FALSE(board.move_strip("DCS", "ZZ", 0, kBob));
}

TEST(FlightStrips, AmendAccumulatesInstructions) {
  FlightProgressBoard board(StripPlacement::kManual);
  board.add_strip("DCS", {.callsign = "BA123"}, 0, kAlice);
  EXPECT_TRUE(board.amend("BA123", "descend FL240", kAlice));
  EXPECT_TRUE(board.amend("BA123", "reduce 250kt", kBob));
  EXPECT_EQ(board.strip("BA123")->instructions,
            "descend FL240; reduce 250kt");
}

TEST(FlightStrips, CockedStripsFlagAttention) {
  FlightProgressBoard board(StripPlacement::kManual);
  board.add_strip("DCS", {.callsign = "BA123"}, 0, kAlice);
  board.add_strip("DCS", {.callsign = "AF456"}, 1, kAlice);
  EXPECT_TRUE(board.set_cocked("AF456", true, kBob));
  EXPECT_EQ(board.cocked_strips(), std::vector<std::string>{"AF456"});
  EXPECT_TRUE(board.set_cocked("AF456", false, kBob));
  EXPECT_TRUE(board.cocked_strips().empty());
}

TEST(FlightStrips, AnticipatedLoadReadsTheBoard) {
  FlightProgressBoard board(StripPlacement::kAutomatic);
  for (int i = 0; i < 6; ++i) {
    board.add_strip("DCS",
                    {.callsign = "F" + std::to_string(i),
                     .eta = sim::minutes(i * 10)},
                    std::nullopt, kAlice);
  }
  EXPECT_EQ(board.anticipated_load("DCS", 0, sim::minutes(30)), 3u);
  EXPECT_EQ(board.anticipated_load("DCS", sim::minutes(30),
                                   sim::minutes(100)),
            3u);
  EXPECT_EQ(board.anticipated_load("XYZ", 0, sim::minutes(100)), 0u);
}

TEST(FlightStrips, AuditTrailProvidesAccountability) {
  FlightProgressBoard board(StripPlacement::kManual);
  std::vector<BoardEvent> live;
  board.on_event([&](const BoardEvent& e) { live.push_back(e); });
  board.add_strip("DCS", {.callsign = "BA123"}, 0, kAlice, sim::sec(1));
  board.amend("BA123", "climb FL350", kBob, sim::sec(2));
  board.remove("BA123", kCarol, sim::sec(3));
  ASSERT_EQ(board.audit().size(), 3u);
  EXPECT_EQ(board.audit()[0].kind, BoardEvent::Kind::kAdd);
  EXPECT_EQ(board.audit()[1].controller, kBob);
  EXPECT_EQ(board.audit()[2].at, sim::sec(3));
  EXPECT_EQ(live.size(), 3u);
}

TEST(FlightStrips, DuplicateCallsignRejected) {
  FlightProgressBoard board(StripPlacement::kManual);
  board.add_strip("DCS", {.callsign = "BA123"}, 0, kAlice);
  EXPECT_FALSE(board.add_strip("OCK", {.callsign = "BA123"}, 0, kAlice));
}

// -------------------------------------------------------------- session

TEST(Session, QuadrantNamesMatchTheMatrix) {
  EXPECT_STREQ((SpaceTimeClass{Place::kSame, Tempo::kSame}.quadrant()),
               "face-to-face interaction");
  EXPECT_STREQ((SpaceTimeClass{Place::kSame, Tempo::kDifferent}.quadrant()),
               "asynchronous interaction");
  EXPECT_STREQ((SpaceTimeClass{Place::kDifferent, Tempo::kSame}.quadrant()),
               "synchronous distributed interaction");
  EXPECT_STREQ(
      (SpaceTimeClass{Place::kDifferent, Tempo::kDifferent}.quadrant()),
      "asynchronous distributed interaction");
}

TEST(Session, RecommendationsFollowTheQuadrant) {
  const SpaceTimeClass colocated{Place::kSame, Tempo::kSame};
  const SpaceTimeClass remote_async{Place::kDifferent, Tempo::kDifferent};
  EXPECT_LT(colocated.recommended_link().latency,
            remote_async.recommended_link().latency);
  EXPECT_EQ(colocated.recommended_ordering(), groups::Ordering::kTotal);
  EXPECT_EQ(remote_async.recommended_ordering(),
            groups::Ordering::kCausal);
  EXPECT_LT(colocated.recommended_digest_period(),
            remote_async.recommended_digest_period());
}

TEST(Session, SeamlessReclassification) {
  Session s("co-authoring", {Place::kDifferent, Tempo::kDifferent});
  EXPECT_FALSE(s.reclassify({Place::kDifferent, Tempo::kDifferent}));
  EXPECT_TRUE(s.reclassify({Place::kDifferent, Tempo::kSame}));
  EXPECT_EQ(s.transitions(), 1u);
  EXPECT_STREQ(s.classification().quadrant(),
               "synchronous distributed interaction");
}

}  // namespace
}  // namespace coop::groupware
