// Tests for the spatial model (focus/nimbus), the uniform-grid index, and
// the awareness engine (weighted immediate/digest/suppressed delivery,
// reentrancy contract, interest GC, and index-vs-brute-force parity).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "awareness/engine.hpp"
#include "awareness/spatial.hpp"
#include "awareness/spatial_index.hpp"
#include "obs/obs.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace coop::awareness {
namespace {

constexpr ClientId kAlice = 1;
constexpr ClientId kBob = 2;
constexpr ClientId kCarol = 3;

TEST(Spatial, SelfAwarenessIsFull) {
  SpatialModel m;
  m.place(kAlice, {0, 0});
  EXPECT_DOUBLE_EQ(m.awareness(kAlice, kAlice), 1.0);
}

TEST(Spatial, UnknownParticipantsHaveZeroAwareness) {
  SpatialModel m;
  m.place(kAlice, {0, 0});
  EXPECT_DOUBLE_EQ(m.awareness(kAlice, kBob), 0.0);
  EXPECT_DOUBLE_EQ(m.awareness(kBob, kAlice), 0.0);
}

TEST(Spatial, AwarenessFallsOffWithDistance) {
  SpatialModel m;
  m.place(kAlice, {0, 0});
  m.place(kBob, {2, 0});
  m.place(kCarol, {8, 0});
  m.set_focus(kAlice, 10);
  m.set_nimbus(kBob, 10);
  m.set_nimbus(kCarol, 10);
  EXPECT_GT(m.awareness(kAlice, kBob), m.awareness(kAlice, kCarol));
  EXPECT_GT(m.awareness(kAlice, kCarol), 0.0);
}

TEST(Spatial, OutOfRangeIsZero) {
  SpatialModel m;
  m.place(kAlice, {0, 0});
  m.place(kBob, {100, 0});
  m.set_focus(kAlice, 10);
  m.set_nimbus(kBob, 10);
  EXPECT_DOUBLE_EQ(m.awareness(kAlice, kBob), 0.0);
}

TEST(Spatial, NimbusControlsHowObservableOneIs) {
  // Bob projects widely, Carol keeps to herself: at the same distance,
  // Alice is aware of Bob but not of Carol — the asymmetry the
  // focus/nimbus model exists to express.
  SpatialModel m;
  m.place(kAlice, {0, 0});
  m.place(kBob, {5, 0});
  m.place(kCarol, {-5, 0});
  m.set_focus(kAlice, 20);
  m.set_nimbus(kBob, 20);
  m.set_nimbus(kCarol, 1);
  EXPECT_GT(m.awareness(kAlice, kBob), 0.0);
  EXPECT_DOUBLE_EQ(m.awareness(kAlice, kCarol), 0.0);
}

TEST(Spatial, AwarenessIsAsymmetric) {
  SpatialModel m;
  m.place(kAlice, {0, 0});
  m.place(kBob, {5, 0});
  m.set_focus(kAlice, 100);  // Alice attends widely
  m.set_focus(kBob, 1);      // Bob attends narrowly
  m.set_nimbus(kAlice, 100);
  m.set_nimbus(kBob, 100);
  EXPECT_GT(m.awareness(kAlice, kBob), m.awareness(kBob, kAlice));
}

TEST(Spatial, LevelsQuantizeCorrectly) {
  SpatialModel m;
  m.place(kAlice, {0, 0});
  m.place(kBob, {1, 0});
  m.set_focus(kAlice, 10);
  m.set_nimbus(kBob, 10);
  EXPECT_EQ(m.level(kAlice, kBob), AwarenessLevel::kFull);
  m.place(kBob, {8, 0});
  EXPECT_EQ(m.level(kAlice, kBob), AwarenessLevel::kPeripheral);
  m.place(kBob, {50, 0});
  EXPECT_EQ(m.level(kAlice, kBob), AwarenessLevel::kNone);
}

TEST(Spatial, RemoveErasesParticipant) {
  SpatialModel m;
  m.place(kAlice, {0, 0});
  m.remove(kAlice);
  EXPECT_FALSE(m.position(kAlice).has_value());
  EXPECT_EQ(m.participant_count(), 0u);
  EXPECT_EQ(m.grid().size(), 0u);
}

// ------------------------------------------------------- spatial index

TEST(SpatialIndex, QueryMatchesLinearScan) {
  // The grid must be exact under a seeded churn of inserts, moves,
  // removals and cell-size rebuilds: every query equals the brute-force
  // distance filter.
  sim::Rng rng(7);
  UniformGridIndex grid(8.0);
  std::map<ClientId, Point> truth;
  for (int step = 0; step < 600; ++step) {
    const auto id = static_cast<ClientId>(rng.uniform_int(1, 60));
    const double roll = rng.uniform();
    if (roll < 0.70 || truth.find(id) == truth.end()) {
      const Point p{rng.uniform(-150, 150), rng.uniform(-150, 150)};
      grid.upsert(id, p);
      truth[id] = p;
    } else if (roll < 0.85) {
      grid.erase(id);
      truth.erase(id);
    } else {
      grid.set_cell_size(rng.uniform(2.0, 40.0));
    }
    const Point centre{rng.uniform(-150, 150), rng.uniform(-150, 150)};
    const double radius = rng.uniform(0.0, 60.0);
    std::vector<ClientId> got;
    grid.query(centre, radius, /*exclude=*/id, got);
    std::sort(got.begin(), got.end());
    std::vector<ClientId> want;
    for (const auto& [other, p] : truth) {
      if (other == id) continue;
      if (distance(p, centre) <= radius) want.push_back(other);
    }
    ASSERT_EQ(got, want) << "step " << step;
  }
}

TEST(SpatialIndex, CandidatesCoverEveryNonZeroSpatialWeight) {
  sim::Rng rng(11);
  SpatialModel m;
  for (ClientId id = 1; id <= 50; ++id) {
    m.place(id, {rng.uniform(0, 300), rng.uniform(0, 300)});
    m.set_focus(id, rng.uniform(5, 30));
    m.set_nimbus(id, rng.uniform(5, 30));
  }
  for (ClientId actor = 1; actor <= 50; ++actor) {
    std::vector<ClientId> cand;
    m.spatial_candidates(actor, cand);
    EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    for (ClientId obs = 1; obs <= 50; ++obs) {
      if (obs == actor) continue;
      if (m.awareness(obs, actor) > 0.0) {
        EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(), obs))
            << "observer " << obs << " of actor " << actor
            << " missing from candidate set";
      }
    }
  }
}

TEST(SpatialIndex, CellSizeGrowsWithLargestAura) {
  SpatialModel m;
  m.place(kAlice, {0, 0});
  const double before = m.grid().cell_size();
  m.set_nimbus(kAlice, 500.0);
  EXPECT_GE(m.grid().cell_size(), 500.0);
  EXPECT_GT(m.grid().cell_size(), before);
  // Everyone inside that huge nimbus is still found after the rebuild.
  m.place(kBob, {400, 0});
  std::vector<ClientId> cand;
  m.spatial_candidates(kAlice, cand);
  EXPECT_EQ(cand, std::vector<ClientId>{kBob});
}

TEST(SpatialIndex, FarAwayPointsSaturateIntoEdgeCellsAndStayExact) {
  // |x / cell| far beyond 2^31: the cell coordinate saturates instead of
  // overflowing, and the distance filter keeps the answer exact.
  UniformGridIndex grid(16.0);
  grid.upsert(kAlice, {1e12, 0});
  grid.upsert(kBob, {1e12 + 3, 0});
  grid.upsert(kCarol, {0, -1e15});
  std::vector<ClientId> got;
  grid.query({1e12, 0}, 5.0, kAlice, got);
  EXPECT_EQ(got, std::vector<ClientId>{kBob});
  got.clear();
  grid.query({0, -1e15}, 1.0, 0, got);
  EXPECT_EQ(got, std::vector<ClientId>{kCarol});
  got.clear();
  grid.query({0, 0}, 1.0, 0, got);
  EXPECT_TRUE(got.empty());
}

TEST(SpatialIndex, HugeRadiusWalksOccupiedCellsOnly) {
  // A block of ~2^64 cells must cost one pass over the occupied cells.
  UniformGridIndex grid(1.0);
  for (ClientId id = 1; id <= 20; ++id)
    grid.upsert(id, {static_cast<double>(id) * 1e6, -1e9});
  for (double radius : {1e12, 1e300, std::numeric_limits<double>::max(),
                        std::numeric_limits<double>::infinity()}) {
    std::vector<ClientId> got;
    grid.query({0, 0}, radius, /*exclude=*/7, got);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got.size(), 19u) << "radius " << radius;
    EXPECT_EQ(got.front(), 1u);
    EXPECT_EQ(got.back(), 20u);
  }
}

TEST(SpatialIndex, NaNNeverMatches) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  UniformGridIndex grid(8.0);
  grid.upsert(kAlice, {nan, 0});
  grid.upsert(kBob, {1, 1});
  std::vector<ClientId> got;
  grid.query({0, 0}, std::numeric_limits<double>::infinity(), 0, got);
  EXPECT_EQ(got, std::vector<ClientId>{kBob});  // never the NaN point
  got.clear();
  grid.query({0, 0}, nan, 0, got);  // a NaN radius reaches nobody
  EXPECT_TRUE(got.empty());
  grid.query({nan, 0}, 10.0, 0, got);  // nor does a NaN centre
  EXPECT_TRUE(got.empty());
  grid.erase(kAlice);
  EXPECT_EQ(grid.size(), 1u);
}

TEST(Spatial, NonFiniteInputIsRejectedAndLeavesTheModelUnchanged) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  SpatialModel m;
  ASSERT_TRUE(m.place(kAlice, {1e12, 0}));  // far but finite: accepted
  ASSERT_TRUE(m.place(kBob, {1e12 + 1, 0}));
  EXPECT_GT(m.awareness(kBob, kAlice), 0.0);
  const double cell = m.grid().cell_size();

  EXPECT_FALSE(m.place(kAlice, {nan, 0}));
  EXPECT_FALSE(m.place(kAlice, {0, inf}));
  EXPECT_FALSE(m.place(kCarol, {-inf, 0}));
  EXPECT_FALSE(m.set_focus(kAlice, nan));
  EXPECT_FALSE(m.set_nimbus(kAlice, inf));
  EXPECT_FALSE(m.set_nimbus(kCarol, nan));

  EXPECT_EQ(m.position(kAlice)->x, 1e12);
  EXPECT_FALSE(m.position(kCarol).has_value());  // never created
  EXPECT_EQ(m.participant_count(), 2u);
  EXPECT_EQ(m.grid().cell_size(), cell);
  std::vector<ClientId> cand;
  m.spatial_candidates(kAlice, cand);
  EXPECT_EQ(cand, std::vector<ClientId>{kBob});
}

// ------------------------------------------------------------ engine

struct Received {
  ActivityEvent event;
  double weight;
  bool via_digest;
};

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine(sim, space, {.full_threshold = 0.4,
                                     .digest_period = sim::sec(5),
                                     .interest_decay = sim::sec(60)}) {
    space.place(kAlice, {0, 0});
    space.place(kBob, {1, 0});
    space.place(kCarol, {9, 0});
    for (ClientId c : {kAlice, kBob, kCarol}) {
      space.set_focus(c, 10);
      space.set_nimbus(c, 10);
    }
    for (ClientId c : {kAlice, kBob, kCarol}) {
      engine.subscribe(c, [this, c](const ActivityEvent& e, double w,
                                    bool digest) {
        received[c].push_back({e, w, digest});
      });
    }
  }

  ActivityEvent edit(ClientId actor, const std::string& object) {
    return {actor, object, "edit", sim.now()};
  }

  sim::Simulator sim;
  SpatialModel space;
  AwarenessEngine engine;
  std::map<ClientId, std::vector<Received>> received;
};

TEST_F(EngineTest, NearbyObserverGetsImmediateDelivery) {
  engine.publish(edit(kAlice, "doc/sec1"));
  ASSERT_EQ(received[kBob].size(), 1u);  // close: immediate
  EXPECT_FALSE(received[kBob][0].via_digest);
  EXPECT_GE(received[kBob][0].weight, 0.4);
  EXPECT_TRUE(received[kCarol].empty());  // far: waits for digest
  EXPECT_EQ(engine.stats().immediate, 1u);
}

TEST_F(EngineTest, ActorDoesNotHearOwnActions) {
  engine.publish(edit(kAlice, "doc"));
  EXPECT_TRUE(received[kAlice].empty());
}

TEST_F(EngineTest, PeripheralObserverGetsDigest) {
  engine.publish(edit(kAlice, "doc/sec1"));
  EXPECT_TRUE(received[kCarol].empty());
  sim.run_until(sim::sec(6));  // digest flush at 5s
  ASSERT_EQ(received[kCarol].size(), 1u);
  EXPECT_TRUE(received[kCarol][0].via_digest);
  EXPECT_LT(received[kCarol][0].weight, 0.4);
  EXPECT_EQ(engine.stats().digested, 1u);
}

TEST_F(EngineTest, DigestCoalescesPerObject) {
  for (int i = 0; i < 10; ++i) engine.publish(edit(kAlice, "doc/sec1"));
  engine.publish(edit(kAlice, "doc/sec2"));
  sim.run_until(sim::sec(6));
  // Carol sees one entry per object, not eleven events.
  ASSERT_EQ(received[kCarol].size(), 2u);
  EXPECT_EQ(engine.stats().coalesced, 9u);
}

TEST_F(EngineTest, OutOfRangeObserverIsSuppressed) {
  space.place(kCarol, {1000, 1000});
  engine.publish(edit(kAlice, "doc"));
  sim.run_until(sim::sec(20));
  EXPECT_TRUE(received[kCarol].empty());
  EXPECT_GE(engine.stats().suppressed, 1u);
}

TEST_F(EngineTest, TemporalInterestOverridesDistance) {
  // Carol is out of spatial range but recently edited the same section:
  // the temporal metric must lift her weight to immediate delivery.
  space.place(kCarol, {1000, 1000});
  engine.mark_interest(kCarol, "doc/sec1");
  engine.publish(edit(kAlice, "doc/sec1"));
  ASSERT_EQ(received[kCarol].size(), 1u);
  EXPECT_FALSE(received[kCarol][0].via_digest);
  EXPECT_GE(received[kCarol][0].weight, 0.9);
}

TEST_F(EngineTest, InterestDecaysOverTime) {
  space.place(kCarol, {1000, 1000});
  engine.mark_interest(kCarol, "doc/sec1");
  sim.run_until(sim::minutes(10));  // 10 tau: interest ~ e^-10
  engine.publish(edit(kAlice, "doc/sec1"));
  sim.run_until(sim::minutes(10) + sim::sec(6));
  // Weight decayed below any delivery threshold worth acting on; event
  // arrives (if at all) via digest with near-zero weight.
  for (const Received& r : received[kCarol]) {
    EXPECT_TRUE(r.via_digest);
    EXPECT_LT(r.weight, 0.01);
  }
}

TEST_F(EngineTest, PublishingRefreshesActorInterest) {
  // Alice edits a section, then moves far away; Bob's later edit of the
  // same section still reaches her thanks to her own recent activity.
  engine.publish(edit(kAlice, "doc/sec1"));
  space.place(kAlice, {500, 500});
  engine.publish(edit(kBob, "doc/sec1"));
  ASSERT_FALSE(received[kAlice].empty());
  EXPECT_FALSE(received[kAlice][0].via_digest);
}

TEST_F(EngineTest, NotificationTimeRecordsDigestDelay) {
  engine.publish(edit(kAlice, "doc/sec1"));  // Carol: digest path
  sim.run_until(sim::sec(6));
  // One immediate (Bob, ~0) and one digested (Carol, ~5s).
  EXPECT_EQ(engine.stats().notification_time.count(), 2u);
  EXPECT_GE(engine.stats().notification_time.max(),
            static_cast<double>(sim::sec(4)));
}

TEST_F(EngineTest, UnsubscribeStopsDelivery) {
  engine.unsubscribe(kBob);
  engine.publish(edit(kAlice, "doc"));
  sim.run_until(sim::sec(10));
  EXPECT_TRUE(received[kBob].empty());
}

TEST_F(EngineTest, WeightIsCombinedSpatialTemporal) {
  const double spatial_only = engine.weight(kBob, kAlice, "nothing");
  engine.mark_interest(kBob, "doc");
  const double combined = engine.weight(kBob, kAlice, "doc");
  EXPECT_GT(combined, spatial_only);
  EXPECT_LE(combined, 1.0);
}

// ------------------------------------------------- reentrancy contract
//
// Parameterised over use_index so the deferred-mutation machinery *and*
// the suppressed-counter arithmetic are exercised on both publish paths
// (the indexed path once underflowed `eligible - handled` when a
// delivered observer unsubscribed in the same dispatch, which delivery
// counts alone never caught).

class ReentrancyTest : public ::testing::TestWithParam<bool> {
 protected:
  ReentrancyTest()
      : engine(sim, space, {.full_threshold = 0.4,
                            .digest_period = sim::sec(5),
                            .interest_decay = sim::sec(60),
                            .use_index = GetParam()}) {
    space.place(kAlice, {0, 0});
    space.place(kBob, {1, 0});
    space.place(kCarol, {9, 0});
    for (ClientId c : {kAlice, kBob, kCarol}) {
      space.set_focus(c, 10);
      space.set_nimbus(c, 10);
    }
    for (ClientId c : {kAlice, kBob, kCarol}) {
      engine.subscribe(c, [this, c](const ActivityEvent& e, double w,
                                    bool digest) {
        received[c].push_back({e, w, digest});
      });
    }
  }

  ActivityEvent edit(ClientId actor, const std::string& object) {
    return {actor, object, "edit", sim.now()};
  }

  sim::Simulator sim;
  SpatialModel space;
  AwarenessEngine engine;
  std::map<ClientId, std::vector<Received>> received;
};

INSTANTIATE_TEST_SUITE_P(BothPublishPaths, ReentrancyTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Indexed" : "BruteForce";
                         });

TEST_P(ReentrancyTest, SelfUnsubscribeInsideDeliveryIsSafe) {
  int bob_heard = 0;
  engine.subscribe(kBob, [&](const ActivityEvent&, double, bool) {
    ++bob_heard;
    engine.unsubscribe(kBob);  // reentrant: must not invalidate the walk
  });
  engine.publish(edit(kAlice, "doc"));
  engine.publish(edit(kAlice, "doc"));
  EXPECT_EQ(bob_heard, 1);
  // Bob was delivered to before unsubscribing, so he must not be counted
  // suppressed; Carol (digest band) is handled both times.  Nothing in
  // either publish weighs zero.
  EXPECT_EQ(engine.stats().immediate, 1u);
  EXPECT_EQ(engine.stats().suppressed, 0u);
  EXPECT_EQ(engine.stats().digests_dropped, 0u);
}

TEST_P(ReentrancyTest, SelfUnsubscribeCountsUnrelatedSuppressionExactly) {
  // Dave sits far outside every aura with no interest: each publish must
  // suppress exactly him — no more (Bob's mid-dispatch unsubscribe must
  // not be double-subtracted) and no fewer.
  constexpr ClientId kDave = 4;
  space.place(kDave, {1000, 1000});
  space.set_focus(kDave, 10);
  space.set_nimbus(kDave, 10);
  engine.subscribe(kDave, [&](const ActivityEvent& e, double w, bool d) {
    received[kDave].push_back({e, w, d});
  });
  engine.subscribe(kBob, [&](const ActivityEvent&, double, bool) {
    engine.unsubscribe(kBob);
  });
  engine.publish(edit(kAlice, "doc"));
  engine.publish(edit(kAlice, "doc"));
  EXPECT_TRUE(received[kDave].empty());
  EXPECT_EQ(engine.stats().immediate, 1u);   // Bob, first publish only
  EXPECT_EQ(engine.stats().suppressed, 2u);  // Dave, once per publish
  EXPECT_EQ(engine.stats().digests_dropped, 0u);
}

TEST_P(ReentrancyTest, UnsubscribingAnotherObserverMidDispatchSquelchesThem) {
  // Bob (lower id) is visited first and pulls Carol's subscription; Carol
  // must not hear the in-flight event, even via the digest she'd have
  // been queued for.
  space.place(kCarol, {2, 0});  // close enough for immediate delivery
  engine.subscribe(kBob, [&](const ActivityEvent&, double, bool) {
    engine.unsubscribe(kCarol);
  });
  engine.publish(edit(kAlice, "doc"));
  sim.run_until(sim::sec(10));
  EXPECT_TRUE(received[kCarol].empty());
  // Carol died before her visit: skipped with no stat, exactly as the
  // brute-force walk skips a dead observer.
  EXPECT_EQ(engine.stats().immediate, 1u);  // Bob only
  EXPECT_EQ(engine.stats().suppressed, 0u);
  EXPECT_EQ(engine.stats().digests_dropped, 0u);
}

TEST_P(ReentrancyTest, SubscribeDuringDispatchTakesEffectAfterwards) {
  constexpr ClientId kDave = 4;
  space.place(kDave, {1, 1});
  space.set_focus(kDave, 10);
  space.set_nimbus(kDave, 10);
  engine.subscribe(kBob, [&](const ActivityEvent& e, double w, bool d) {
    received[kBob].push_back({e, w, d});
    engine.subscribe(kDave, [&](const ActivityEvent& e2, double w2, bool d2) {
      received[kDave].push_back({e2, w2, d2});
    });
  });
  engine.publish(edit(kAlice, "doc"));
  EXPECT_TRUE(received[kDave].empty());  // not part of the running dispatch
  engine.publish(edit(kAlice, "doc"));
  EXPECT_EQ(received[kDave].size(), 1u);
}

TEST_P(ReentrancyTest, SubscribeWithEmptyCallbackDuringDispatchRegisters) {
  // Re-subscribing Carol with an empty callback mid-dispatch must mean
  // what it means outside a dispatch — register her with no deliverer —
  // not be mistaken for an unsubscribe tombstone that drops her digests.
  engine.subscribe(kBob, [&](const ActivityEvent&, double, bool) {
    engine.subscribe(kCarol, AwarenessEngine::DeliverFn{});
  });
  engine.publish(edit(kAlice, "doc"));  // Carol (digest band) queues one
  sim.run_until(sim::sec(6));
  EXPECT_EQ(engine.stats().digests_dropped, 0u);
  EXPECT_EQ(engine.stats().digested, 1u);  // counted, callback-less
  EXPECT_TRUE(received[kCarol].empty());
}

TEST_P(ReentrancyTest, MidFlushUnsubscribeDropsRemainingDigestsAndCounts) {
  // Bob and Carol both hold two-object digests; Bob's first digest
  // delivery unsubscribes Carol, so her entries are dropped, not
  // delivered to a dead callback.
  space.place(kBob, {7.5, 0});  // weight 0.0625: digest band
  engine.subscribe(kBob, [&](const ActivityEvent& e, double w, bool d) {
    received[kBob].push_back({e, w, d});
    engine.unsubscribe(kCarol);
  });
  engine.publish(edit(kAlice, "doc/a"));
  engine.publish(edit(kAlice, "doc/b"));
  sim.run_until(sim::sec(6));
  EXPECT_EQ(received[kBob].size(), 2u);
  EXPECT_TRUE(received[kCarol].empty());
  EXPECT_EQ(engine.stats().digests_dropped, 2u);
  EXPECT_EQ(engine.stats().digested, 2u);  // Bob's only
  EXPECT_EQ(engine.stats().suppressed, 0u);
}

// A DeliverFn that publishes during a digest flush queues digests for
// observers on both sides of the flush cursor.  The flush keeps the
// ascending walk's rule: ids above the cursor are delivered in this
// flush, ids at or below it in the next one.

class MidFlushReentrancyTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(BothPublishPaths, MidFlushReentrancyTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Indexed" : "BruteForce";
                         });

TEST_P(MidFlushReentrancyTest, DigestsQueuedAboveTheCursorJoinThisFlush) {
  constexpr ClientId kLow = 2, kMid = 5, kHigh = 8, kFar = 10, kEcho = 20;
  sim::Simulator sim;
  SpatialModel space;
  AwarenessEngine engine(sim, space,
                         {.full_threshold = 0.4,
                          .digest_period = sim::sec(5),
                          .interest_decay = sim::sec(60),
                          .use_index = GetParam()});
  // Every weight below is 0.25 * 0.25 = 0.0625: the digest band.  kMid
  // hears kFar; kLow and kHigh hear only kEcho, far from everyone else.
  space.place(kFar, {0, 0});
  space.place(kMid, {7.5, 0});
  space.place(kEcho, {1000, 0});
  space.place(kLow, {1007.5, 0});
  space.place(kHigh, {992.5, 0});
  std::vector<std::string> log;
  bool echoed = false;
  for (ClientId id : {kLow, kMid, kHigh, kFar}) {
    engine.subscribe(id, [&, id](const ActivityEvent& e, double, bool d) {
      log.push_back(std::to_string(sim.now() / sim::sec(1)) + "s " +
                    std::to_string(id) + " " + e.object +
                    (d ? " digest" : " immediate"));
      if (id == kMid && !echoed) {
        echoed = true;
        engine.publish({kEcho, "echo", "edit", sim.now()});
      }
    });
  }
  engine.publish({kFar, "doc", "edit", sim.now()});
  sim.run_until(sim::sec(6));
  EXPECT_EQ(log, (std::vector<std::string>{"5s 5 doc digest",
                                           "5s 8 echo digest"}));
  sim.run_until(sim::sec(11));
  EXPECT_EQ(log, (std::vector<std::string>{"5s 5 doc digest",
                                           "5s 8 echo digest",
                                           "10s 2 echo digest"}));
  EXPECT_EQ(engine.stats().digested, 3u);
  EXPECT_EQ(engine.stats().immediate, 0u);
}

// ------------------------------------------------- interest GC + revival

class GcEngineTest : public ::testing::Test {
 protected:
  GcEngineTest()
      : engine(sim, space,
               {.full_threshold = 0.4,
                .digest_period = sim::sec(5),
                .interest_decay = sim::sec(10),
                .interest_gc_factor = 10.0}) {
    space.place(kAlice, {0, 0});
    space.set_focus(kAlice, 10);
    space.set_nimbus(kAlice, 10);
    space.place(kCarol, {1000, 1000});  // never in spatial range
    space.set_focus(kCarol, 10);
    space.set_nimbus(kCarol, 10);
    engine.subscribe(kCarol, [this](const ActivityEvent& e, double w,
                                    bool d) {
      carol.push_back({e, w, d});
    });
  }

  sim::Simulator sim;
  SpatialModel space;
  AwarenessEngine engine;
  std::vector<Received> carol;
};

TEST_F(GcEngineTest, StaleInterestEntriesAreEvictedOnTheDigestTimer) {
  engine.mark_interest(kCarol, "doc/sec1");
  EXPECT_EQ(engine.interest_table_size(), 1u);
  sim.run_until(sim::sec(120));  // horizon = 10 tau = 100 s
  EXPECT_EQ(engine.interest_table_size(), 0u);
  EXPECT_EQ(engine.stats().interest_evicted, 1u);
  // With the entry gone the event is suppressed outright, not digested.
  engine.publish({kAlice, "doc/sec1", "edit", sim.now()});
  sim.run_until(sim::sec(130));
  EXPECT_TRUE(carol.empty());
  EXPECT_GE(engine.stats().suppressed, 1u);
}

TEST_F(GcEngineTest, MarkInterestAfterEvictionRevivesDelivery) {
  engine.mark_interest(kCarol, "doc/sec1");
  sim.run_until(sim::sec(120));
  ASSERT_EQ(engine.interest_table_size(), 0u);
  engine.mark_interest(kCarol, "doc/sec1");  // re-opens the document
  engine.publish({kAlice, "doc/sec1", "edit", sim.now()});
  ASSERT_EQ(carol.size(), 1u);
  EXPECT_FALSE(carol[0].via_digest);
  EXPECT_GE(carol[0].weight, 0.9);
}

TEST_F(GcEngineTest, InterestGcIsExactAndKeepsOneExpiryRecordPerEntry) {
  // Carol sits in Alice's digest band, so the entry's weight is the
  // spatial term lifted by the temporal one.
  space.place(kCarol, {7.5, 0});
  const double spatial = space.awareness(kCarol, kAlice);
  ASSERT_GT(spatial, 0.0);
  // 10k refreshes over 250 s, across many flushes that pop and re-file
  // the one stale expiry record: the bookkeeping never grows.
  for (int i = 1; i <= 10000; ++i) {
    sim.run_until(sim::msec(25) * i);
    engine.mark_interest(kCarol, "doc/sec1");
    ASSERT_EQ(engine.interest_table_size(), 1u) << "touch " << i;
    ASSERT_EQ(engine.interest_expiry_records(), 1u) << "touch " << i;
  }
  // The last touch lands at 250 s, just after that instant's flush.  The
  // horizon is 10 tau = 100 s: the flush at 350 s sees an age of exactly
  // 100 s and keeps the entry; the one at 355 s evicts it.
  sim.run_until(sim::sec(350));
  EXPECT_EQ(engine.interest_table_size(), 1u);
  EXPECT_EQ(engine.interest_expiry_records(), 1u);
  EXPECT_EQ(engine.stats().interest_evicted, 0u);
  const double temporal = std::exp(-100.0 / 10.0);
  EXPECT_DOUBLE_EQ(engine.weight(kCarol, kAlice, "doc/sec1"),
                   spatial + temporal * (1.0 - spatial));
  sim.run_until(sim::sec(355) - 1);
  EXPECT_EQ(engine.interest_table_size(), 1u);
  sim.run_until(sim::sec(355));
  EXPECT_EQ(engine.interest_table_size(), 0u);
  EXPECT_EQ(engine.interest_expiry_records(), 0u);
  EXPECT_EQ(engine.stats().interest_evicted, 1u);
  EXPECT_DOUBLE_EQ(engine.weight(kCarol, kAlice, "doc/sec1"), spatial);
}

// ------------------------------------------------- digest coalescing

TEST_F(EngineTest, CoalescedDigestCarriesTheLatestEventsOwnWeight) {
  // First event lands while Alice is near-ish Carol (weight 0.36 at
  // distance 4 of her replaced position); the second after Alice moved
  // away (weight 0.04).  The digest must deliver the *second* event with
  // the second event's weight — not a hybrid of new event + old weight.
  space.place(kCarol, {4, 0});
  engine.publish({kAlice, "doc/sec1", "first", sim.now()});
  space.place(kAlice, {-4, 0});  // distance 8 from Carol: weight 0.04
  engine.publish({kAlice, "doc/sec1", "second", sim.now()});
  sim.run_until(sim::sec(6));
  ASSERT_EQ(received[kCarol].size(), 1u);
  EXPECT_EQ(received[kCarol][0].event.verb, "second");
  EXPECT_NEAR(received[kCarol][0].weight, 0.04, 1e-9);
  EXPECT_EQ(engine.stats().coalesced, 1u);
}

// ------------------------------------------------- observability wiring

TEST(EngineObs, MetricsAndTraceAreRecorded) {
  obs::Obs obs;
  sim::Simulator sim;
  SpatialModel space;
  AwarenessEngine engine(sim, space, {}, &obs);
  space.place(kAlice, {0, 0});
  space.place(kBob, {1, 0});
  engine.subscribe(kBob, [](const ActivityEvent&, double, bool) {});
  engine.publish({kAlice, "doc", "edit", sim.now()});
  const std::string& p = engine.metric_prefix();
  EXPECT_EQ(obs.metrics.value(p + "published"), 1.0);
  EXPECT_EQ(obs.metrics.value(p + "immediate"), 1.0);
  EXPECT_EQ(obs.metrics.value(p + "observers"), 1.0);
  EXPECT_EQ(obs.metrics.value(p + "interest_table_size"), 1.0);
  EXPECT_EQ(obs.metrics.value(p + "candidate_set_size"), 1.0);
  EXPECT_TRUE(obs.metrics.contains(p + "publish_cost"));
  bool saw_publish_event = false;
  for (const auto& e : obs.tracer.snapshot()) {
    if (e.category == obs::Category::kAwareness &&
        std::string(e.name) == "awareness_publish")
      saw_publish_event = true;
  }
  EXPECT_TRUE(saw_publish_event);
}

// ------------------------------------------------- index parity

namespace {

/// Records one engine's deliveries as exact, order-sensitive lines.
struct DeliveryLog {
  std::vector<std::string> lines;

  AwarenessEngine::DeliverFn tap(sim::Simulator& sim, ClientId observer) {
    return [this, &sim, observer](const ActivityEvent& e, double w, bool d) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "t=%lld obs=%llu act=%llu o=%s w=%a d=%d",
                    static_cast<long long>(sim.now()),
                    static_cast<unsigned long long>(observer),
                    static_cast<unsigned long long>(e.actor),
                    e.object.c_str(), w, d ? 1 : 0);
      lines.emplace_back(buf);
    };
  }
};

void expect_stats_equal(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.published, b.published);
  EXPECT_EQ(a.immediate, b.immediate);
  EXPECT_EQ(a.digested, b.digested);
  EXPECT_EQ(a.coalesced, b.coalesced);
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_EQ(a.digests_dropped, b.digests_dropped);
  EXPECT_EQ(a.interest_evicted, b.interest_evicted);
  EXPECT_EQ(a.notification_time.count(), b.notification_time.count());
}

}  // namespace

TEST(EngineParity, IndexedEngineMatchesBruteForceExactly) {
  // Same seed, same spatial churn, same publishes: the indexed engine
  // must produce the identical delivery sequence (observer, time, event,
  // weight, path) and identical stats as the brute-force walk.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    sim::Simulator sim;
    SpatialModel space;
    EngineConfig base{.full_threshold = 0.4,
                      .digest_period = sim::sec(5),
                      .interest_decay = sim::sec(30),
                      .interest_gc_factor = 10.0};
    EngineConfig brute_cfg = base;
    brute_cfg.use_index = false;
    AwarenessEngine indexed(sim, space, base);
    AwarenessEngine brute(sim, space, brute_cfg);

    constexpr int kParticipants = 40;
    sim::Rng rng(seed);
    DeliveryLog log_indexed, log_brute;
    for (ClientId id = 1; id <= kParticipants; ++id) {
      space.place(id, {rng.uniform(0, 250), rng.uniform(0, 250)});
      space.set_focus(id, rng.uniform(5, 30));
      space.set_nimbus(id, rng.uniform(5, 30));
      indexed.subscribe(id, log_indexed.tap(sim, id));
      brute.subscribe(id, log_brute.tap(sim, id));
    }

    for (int step = 0; step < 400; ++step) {
      const auto id = static_cast<ClientId>(
          rng.uniform_int(1, kParticipants));
      const double roll = rng.uniform();
      if (roll < 0.5) {
        // Random walk: drift within the space.
        if (auto at = space.position(id)) {
          space.place(id, {at->x + rng.uniform(-15, 15),
                           at->y + rng.uniform(-15, 15)});
        }
      } else if (roll < 0.9) {
        // Edit storm: bursts against a small hot set of objects.
        const std::string object =
            "doc/" + std::to_string(rng.uniform_int(0, 12));
        const int burst = static_cast<int>(rng.uniform_int(1, 4));
        for (int b = 0; b < burst; ++b) {
          const ActivityEvent e{id, object, "edit", sim.now()};
          indexed.publish(e);
          brute.publish(e);
        }
      } else if (roll < 0.95) {
        const std::string object =
            "doc/" + std::to_string(rng.uniform_int(0, 12));
        indexed.mark_interest(id, object);
        brute.mark_interest(id, object);
      } else {
        sim.run_for(sim::sec(static_cast<sim::Duration>(
            rng.uniform_int(1, 7))));
      }
    }
    sim.run_for(sim::sec(10));  // final digest flushes

    EXPECT_EQ(log_indexed.lines, log_brute.lines) << "seed " << seed;
    expect_stats_equal(indexed.stats(), brute.stats());
  }
}

}  // namespace
}  // namespace coop::awareness
