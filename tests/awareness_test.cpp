// Tests for the spatial model (focus/nimbus), the uniform-grid index, and
// the awareness engine (weighted immediate/digest/suppressed delivery,
// reentrancy contract, interest GC, and index-vs-brute-force parity).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "awareness/engine.hpp"
#include "awareness/spatial.hpp"
#include "awareness/spatial_index.hpp"
#include "obs/obs.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "util/flat_index.hpp"

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

/// Candidate order by id, the order SpatialModel::spatial_candidates
/// returns.
constexpr auto by_id = [](const Candidate& a, const Candidate& b) {
  return a.id < b.id;
};

/// The ids of a candidate list, ascending.
std::vector<ClientId> ids_of(const std::vector<Candidate>& cands) {
  std::vector<ClientId> ids;
  for (const Candidate& c : cands) ids.push_back(c.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// A participant at @p where with the default auras.
Participant standing_at(Point where) {
  return Participant{.position = where};
}

TEST(SpatialIndex, QueryMatchesLinearScan) {
  // The grid must be exact under a seeded churn of inserts, moves,
  // removals and cell-size rebuilds: every query equals the brute-force
  // distance filter, and every weight the falloff product at that
  // distance.
  sim::Rng rng(7);
  UniformGridIndex grid(8.0);
  std::map<ClientId, Participant> truth;
  for (int step = 0; step < 600; ++step) {
    const auto id = static_cast<ClientId>(rng.uniform_int(1, 60));
    const double roll = rng.uniform();
    if (roll < 0.70 || truth.find(id) == truth.end()) {
      const Participant p{
          .position = {rng.uniform(-150, 150), rng.uniform(-150, 150)},
          .focus_radius = rng.uniform(0.0, 40.0)};
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
    std::vector<Candidate> got;
    grid.query(centre, radius, /*exclude=*/id, got);
    std::vector<ClientId> want;
    for (const auto& [other, p] : truth) {
      if (other == id) continue;
      if (distance(p.position, centre) <= radius) want.push_back(other);
    }
    ASSERT_EQ(ids_of(got), want) << "step " << step;
    for (const Candidate& c : got) {
      const Participant& p = truth[c.id];
      const double d = distance(p.position, centre);
      ASSERT_EQ(c.weight, falloff(d, p.focus_radius) * falloff(d, radius))
          << "step " << step << " id " << c.id;
    }
  }
}

TEST(SpatialIndex, CandidatesCoverEveryNonZeroSpatialWeight) {
  // Every actor's candidates are exactly the participants within its
  // nimbus radius, in ascending id order, each carrying awareness(x,
  // actor) bit for bit — through auras of 0, an observer exactly on the
  // nimbus edge, focus changes on placed participants, moves and a
  // cell-size regrow in the middle of the sequence.
  sim::Rng rng(11);
  SpatialModel m;
  ClientId last = 0;
  auto check_all = [&](const char* phase) {
    SCOPED_TRACE(phase);
    for (ClientId actor = 1; actor <= last; ++actor) {
      std::vector<Candidate> cand;
      m.spatial_candidates(actor, cand);
      ASSERT_TRUE(std::is_sorted(cand.begin(), cand.end(), by_id));
      for (const Candidate& c : cand) {
        ASSERT_NE(c.id, actor);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(c.weight),
                  std::bit_cast<std::uint64_t>(m.awareness(c.id, actor)))
            << "observer " << c.id << " of actor " << actor;
      }
      const Participant& a = *m.grid().find(actor);
      for (ClientId obs = 1; obs <= last; ++obs) {
        if (obs == actor) continue;
        const bool inside =
            distance(*m.position(obs), a.position) <= a.nimbus_radius;
        const bool found = std::binary_search(
            cand.begin(), cand.end(), Candidate{obs, 0}, by_id);
        EXPECT_EQ(found, inside) << "observer " << obs << " of actor "
                                 << actor;
        if (m.awareness(obs, actor) > 0.0) {
          EXPECT_TRUE(found) << "observer " << obs << " of actor " << actor
                             << " missing from candidate set";
        }
      }
    }
  };
  for (ClientId id = 1; id <= 50; ++id) {
    m.place(id, {rng.uniform(0, 300), rng.uniform(0, 300)});
    m.set_focus(id, rng.uniform(5, 30));
    m.set_nimbus(id, rng.uniform(5, 30));
  }
  last = 50;
  check_all("random auras");

  m.set_focus(1, 0.0);   // sees nobody, but stays findable
  m.set_nimbus(2, 0.0);  // reaches only someone on the very same spot
  m.place(2, *m.position(1));
  check_all("zero auras");

  // Exactly on 3's nimbus edge: a candidate of weight 0.
  ASSERT_TRUE(m.place(3, {100, 100}));
  ASSERT_TRUE(m.set_nimbus(3, 8.0));
  ASSERT_TRUE(m.place(51, {108, 100}));
  ASSERT_TRUE(m.set_focus(51, 20.0));
  last = 51;
  {
    std::vector<Candidate> cand;
    m.spatial_candidates(3, cand);
    auto edge = std::find_if(cand.begin(), cand.end(),
                             [](const Candidate& c) { return c.id == 51; });
    ASSERT_NE(edge, cand.end());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(edge->weight),
              std::bit_cast<std::uint64_t>(0.0));
  }
  check_all("nimbus edge");

  // Focus changes on placed participants: their cell entries follow.
  for (ClientId id = 4; id <= 20; ++id) m.set_focus(id, rng.uniform(1, 35));
  check_all("refocused");

  // A nimbus wider than half the cell side regrows the grid.
  const double cell = m.grid().cell_size();
  ASSERT_TRUE(m.set_nimbus(5, cell));
  EXPECT_GE(m.grid().cell_size(), 2 * cell);
  check_all("regrown");

  for (int step = 0; step < 200; ++step) {
    const auto id = static_cast<ClientId>(rng.uniform_int(1, last));
    const Point p = *m.position(id);
    m.place(id, {p.x + rng.uniform(-20, 20), p.y + rng.uniform(-20, 20)});
    if (step % 7 == 0) m.set_focus(id, rng.uniform(0, 30));
  }
  check_all("after moves");
}

TEST(SpatialIndex, CellSizeGrowsWithLargestAura) {
  SpatialModel m;
  m.place(kAlice, {0, 0});
  const double before = m.grid().cell_size();
  EXPECT_GE(before, 2 * 10.0);  // twice the default auras
  m.set_nimbus(kAlice, 500.0);
  EXPECT_GE(m.grid().cell_size(), 2 * 500.0);
  EXPECT_GT(m.grid().cell_size(), before);
  // Everyone inside that huge nimbus is still found after the rebuild.
  m.place(kBob, {400, 0});
  std::vector<Candidate> cand;
  m.spatial_candidates(kAlice, cand);
  EXPECT_EQ(ids_of(cand), std::vector<ClientId>{kBob});
}

TEST(SpatialIndex, FarAwayPointsSaturateIntoEdgeCellsAndStayExact) {
  // |x / cell| far beyond 2^31: the cell coordinate saturates instead of
  // overflowing, and the distance filter keeps the answer exact.
  UniformGridIndex grid(16.0);
  grid.upsert(kAlice, standing_at({1e12, 0}));
  grid.upsert(kBob, standing_at({1e12 + 3, 0}));
  grid.upsert(kCarol, standing_at({0, -1e15}));
  std::vector<Candidate> got;
  grid.query({1e12, 0}, 5.0, kAlice, got);
  EXPECT_EQ(ids_of(got), std::vector<ClientId>{kBob});
  got.clear();
  grid.query({0, -1e15}, 1.0, 0, got);
  EXPECT_EQ(ids_of(got), std::vector<ClientId>{kCarol});
  got.clear();
  grid.query({0, 0}, 1.0, 0, got);
  EXPECT_TRUE(got.empty());
}

TEST(SpatialIndex, HugeRadiusWalksOccupiedCellsOnly) {
  // A block of ~2^64 cells must cost one pass over the occupied cells.
  UniformGridIndex grid(1.0);
  for (ClientId id = 1; id <= 20; ++id)
    grid.upsert(id, standing_at({static_cast<double>(id) * 1e6, -1e9}));
  for (double radius : {1e12, 1e300, std::numeric_limits<double>::max(),
                        std::numeric_limits<double>::infinity()}) {
    std::vector<Candidate> got;
    grid.query({0, 0}, radius, /*exclude=*/7, got);
    const std::vector<ClientId> ids = ids_of(got);
    ASSERT_EQ(ids.size(), 19u) << "radius " << radius;
    EXPECT_EQ(ids.front(), 1u);
    EXPECT_EQ(ids.back(), 20u);
  }
}

TEST(SpatialIndex, NaNNeverMatches) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  UniformGridIndex grid(8.0);
  grid.upsert(kAlice, standing_at({nan, 0}));
  grid.upsert(kBob, standing_at({1, 1}));
  std::vector<Candidate> got;
  grid.query({0, 0}, std::numeric_limits<double>::infinity(), 0, got);
  EXPECT_EQ(ids_of(got), std::vector<ClientId>{kBob});  // never NaN's
  got.clear();
  grid.query({0, 0}, nan, 0, got);  // a NaN radius reaches nobody
  EXPECT_TRUE(got.empty());
  grid.query({nan, 0}, 10.0, 0, got);  // nor does a NaN centre
  EXPECT_TRUE(got.empty());
  grid.erase(kAlice);
  EXPECT_EQ(grid.size(), 1u);
}

TEST(SpatialIndex, MatchesBruteForceModel) {
  // The grid's dense record and bucket tables against a plain map under
  // random upserts (fresh ids, same-cell nudges, cell crossings), erases,
  // cell-size growth and queries.  Few participants on a fine grid leave
  // most cells holding one entry, so erases and crossings keep emptying
  // buckets and swapping the last bucket into the hole.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    UniformGridIndex grid(4.0);
    std::map<ClientId, Participant> model;
    auto occupied_cells = [&] {
      std::set<std::pair<double, double>> cells;
      for (const auto& [id, p] : model) {
        cells.insert({std::floor(p.position.x / grid.cell_size()),
                      std::floor(p.position.y / grid.cell_size())});
      }
      return cells.size();
    };
    for (int step = 0; step < 400; ++step) {
      const auto id = static_cast<ClientId>(rng.uniform_int(1, 48));
      const auto found = model.find(id);
      const double roll = rng.uniform();
      if (found == model.end() || roll < 0.35) {
        // A fresh participant, or a jump to anywhere (usually another
        // cell).
        const Participant p{
            .position = {rng.uniform(-60, 60), rng.uniform(-60, 60)},
            .focus_radius = rng.uniform(0.0, 30.0)};
        grid.upsert(id, p);
        model[id] = p;
      } else if (roll < 0.65) {
        // A short step: sometimes within the cell, sometimes across.
        Participant p = found->second;
        const double step_len = grid.cell_size() / 2;
        p.position.x += rng.uniform(-step_len, step_len);
        p.position.y += rng.uniform(-step_len, step_len);
        p.focus_radius = rng.uniform(0.0, 30.0);
        grid.upsert(id, p);
        found->second = p;
      } else if (roll < 0.95) {
        grid.erase(id);
        model.erase(found);
      } else {
        grid.set_cell_size(grid.cell_size() * 2);
      }
      ASSERT_EQ(grid.size(), model.size()) << "step " << step;
      ASSERT_EQ(grid.cell_count(), occupied_cells()) << "step " << step;
      for (ClientId other = 1; other <= 48; ++other) {
        const Participant* got = grid.find(other);
        const auto want = model.find(other);
        ASSERT_EQ(got != nullptr, want != model.end())
            << "step " << step << " id " << other;
        if (got == nullptr) continue;
        ASSERT_EQ(got->position.x, want->second.position.x);
        ASSERT_EQ(got->position.y, want->second.position.y);
        ASSERT_EQ(got->focus_radius, want->second.focus_radius);
      }
      const Point centre{rng.uniform(-70, 70), rng.uniform(-70, 70)};
      const double radius = rng.uniform(0.0, 2 * grid.cell_size());
      std::vector<Candidate> got;
      grid.query(centre, radius, /*exclude=*/id, got);
      std::sort(got.begin(), got.end(), by_id);
      std::vector<Candidate> want;
      for (const auto& [other, p] : model) {
        const double d = distance(p.position, centre);
        if (other != id && d <= radius)
          want.push_back({other, falloff(d, p.focus_radius) *
                                     falloff(d, radius)});
      }
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].id, want[i].id) << "step " << step;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].weight),
                  std::bit_cast<std::uint64_t>(want[i].weight))
            << "step " << step << " id " << got[i].id;
      }
    }
  }
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
  std::vector<Candidate> cand;
  m.spatial_candidates(kAlice, cand);
  EXPECT_EQ(ids_of(cand), std::vector<ClientId>{kBob});
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
  EXPECT_EQ(engine.stats().notification_time.total(), 2u);
  EXPECT_GE(engine.stats().notification_time.max_seen(),
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

TEST_P(ReentrancyTest, UnsubscribingAnObserverTheWalkHasPassedKeepsItsStat) {
  // Bob (lower id, far away) weighs zero, so the ascending walk has
  // counted him suppressed by the time Carol's delivery pulls his
  // subscription.  The indexed walk never visits him and must count him
  // all the same.
  space.place(kBob, {500, 0});
  space.place(kCarol, {2, 0});  // close enough for immediate delivery
  engine.subscribe(kCarol, [&](const ActivityEvent&, double, bool) {
    engine.unsubscribe(kBob);
  });
  engine.publish(edit(kAlice, "doc"));
  EXPECT_TRUE(received[kBob].empty());
  EXPECT_EQ(engine.stats().immediate, 1u);   // Carol
  EXPECT_EQ(engine.stats().suppressed, 1u);  // Bob, passed before he left
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

// Pending digests live in one pool shared by every observer.  Whatever
// order events arrive in, a flush delivers each observer's digest in
// object order, one entry per object carrying the latest event and that
// event's own weight; observers come in ascending id order.  Callbacks
// that publish during the first flush grow the pool while an entry is
// being delivered, and the event a callback holds must stay intact.
TEST_P(MidFlushReentrancyTest, DigestsArriveByObserverThenObjectWithTheLatestWeight) {
  constexpr ClientId kPeople = 8;
  sim::Simulator sim;
  SpatialModel space;
  // No weight reaches 1.1: every delivery is a digest.
  AwarenessEngine engine(sim, space,
                         {.full_threshold = 1.1,
                          .digest_period = sim::sec(5),
                          .interest_decay = sim::sec(60),
                          .use_index = GetParam()});
  sim::Rng rng(5);
  for (ClientId id = 1; id <= kPeople; ++id)
    space.place(id, {rng.uniform(0, 8), rng.uniform(0, 8)});
  // (observer, object) -> (verb of the latest event, its weight).
  std::map<std::pair<ClientId, std::string>, std::pair<std::string, double>>
      expected;
  int serial = 0;
  auto publish = [&](ClientId actor, const std::string& object) {
    const std::string verb = "v" + std::to_string(serial++);
    for (ClientId obs = 1; obs <= kPeople; ++obs) {
      const double w = engine.weight(obs, actor, object);
      if (obs != actor && w > 0.0) expected[{obs, object}] = {verb, w};
    }
    engine.publish({actor, object, verb, sim.now()});
  };
  struct Delivery {
    sim::TimePoint at;
    ClientId observer;
    std::string object;
  };
  std::vector<Delivery> log;
  std::size_t checked = 0;
  int echoes = 0;
  for (ClientId id = 1; id <= kPeople; ++id) {
    engine.subscribe(id, [&, id](const ActivityEvent& e, double w, bool d) {
      EXPECT_TRUE(d);
      const std::string object = e.object;
      const std::string verb = e.verb;
      const auto want = expected.find({id, object});
      ASSERT_NE(want, expected.end()) << id << " " << object;
      EXPECT_EQ(verb, want->second.first) << id << " " << object;
      EXPECT_EQ(w, want->second.second) << id << " " << object;
      expected.erase(want);
      ++checked;
      log.push_back({sim.now(), id, object});
      if (sim.now() == sim::sec(5) && echoes < 12) {
        // Fresh objects, so no pending entry changes under the flush.
        ++echoes;
        publish(id, "echo/" + std::to_string(echoes) +
                        "/a-name-too-long-for-short-string-storage");
        EXPECT_EQ(e.object, object);
        EXPECT_EQ(e.verb, verb);
      }
    });
  }
  const std::vector<std::string> objects = {"d", "a", "c", "b", "e"};
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 40; ++k) {
      const auto actor = static_cast<ClientId>(rng.uniform_int(1, kPeople));
      space.place(actor, {rng.uniform(0, 8), rng.uniform(0, 8)});
      publish(actor, objects[static_cast<std::size_t>(
                         rng.uniform_int(0, 4))]);
      sim.run_until(sim.now() + sim::msec(100));
    }
    sim.run_until(sim::sec(5) * (round + 1) + sim::msec(1));
  }
  sim.run_until(sim::sec(30));
  EXPECT_TRUE(expected.empty());
  EXPECT_EQ(echoes, 12);
  EXPECT_EQ(checked, engine.stats().digested);
  EXPECT_GT(engine.stats().coalesced, 0u);
  // Within each flush: ascending by (observer, object).
  for (std::size_t i = 1; i < log.size(); ++i) {
    if (log[i].at != log[i - 1].at) continue;
    EXPECT_LT(std::tie(log[i - 1].observer, log[i - 1].object),
              std::tie(log[i].observer, log[i].object))
        << "delivery " << i << " at " << log[i].at;
  }
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
  EXPECT_EQ(a.notification_time.total(), b.notification_time.total());
}

/// One engine of a parity pair, with its delivery log and the ids it has
/// been asked to keep subscribed.  With churn on, every 5th delivery
/// unsubscribes the observer itself or toggles another id — the same
/// decisions on both sides as long as their deliveries agree.
struct ParitySide {
  ParitySide(sim::Simulator& s, SpatialModel& space, EngineConfig cfg,
             const std::vector<ClientId>& all, bool churn)
      : sim(s), engine(s, space, cfg), ids(all), churn_in_callbacks(churn) {}

  void subscribe(ClientId id) {
    engine.subscribe(id, tap(id));
    live.insert(id);
  }
  void unsubscribe(ClientId id) {
    engine.unsubscribe(id);
    live.erase(id);
  }

  AwarenessEngine::DeliverFn tap(ClientId observer) {
    return [this, observer, write = log.tap(sim, observer)](
               const ActivityEvent& e, double w, bool d) {
      write(e, w, d);
      const std::size_t n = log.lines.size();
      if (!churn_in_callbacks || n % 5 != 0) return;
      const ClientId other = ids[(n / 5 * 7919) % ids.size()];
      if (n % 10 == 0)
        unsubscribe(observer);
      else if (live.count(other) != 0)
        unsubscribe(other);
      else
        subscribe(other);
    };
  }

  sim::Simulator& sim;
  AwarenessEngine engine;
  DeliveryLog log;
  const std::vector<ClientId>& ids;
  const bool churn_in_callbacks;
  std::set<ClientId> live;
};

/// Replays one seeded workload — random walks, edit storms, interest
/// marks and digest tides — through an indexed and a brute-force engine
/// sharing one simulator and one space, and expects identical delivery
/// logs and stats.  With @p churn, subscriptions also change: from the
/// test between steps (in the first half two leave per step, down to a
/// few observers; in the second half up to one rejoins per step) and from
/// inside delivery callbacks.
void expect_parity(std::uint64_t seed, const std::vector<ClientId>& ids,
                   bool churn) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << ", " << ids.size()
                                  << " ids, churn " << churn);
  sim::Simulator sim;
  SpatialModel space;
  EngineConfig base{.full_threshold = 0.4,
                    .digest_period = sim::sec(5),
                    .interest_decay = sim::sec(30),
                    .interest_gc_factor = 10.0};
  EngineConfig brute_cfg = base;
  brute_cfg.use_index = false;
  ParitySide indexed(sim, space, base, ids, churn);
  ParitySide brute(sim, space, brute_cfg, ids, churn);

  // Constant density: 40 participants on a 250 x 250 floor.
  const double side =
      250.0 * std::sqrt(static_cast<double>(ids.size()) / 40.0);
  sim::Rng rng(seed);
  for (ClientId id : ids) {
    space.place(id, {rng.uniform(0, side), rng.uniform(0, side)});
    space.set_focus(id, rng.uniform(5, 30));
    space.set_nimbus(id, rng.uniform(5, 30));
    indexed.subscribe(id);
    brute.subscribe(id);
  }
  auto pick = [&] {
    return ids[static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(ids.size())) - 1)];
  };

  constexpr int kSteps = 400;
  std::size_t fewest = ids.size();
  std::size_t most_after = 0;
  for (int step = 0; step < kSteps; ++step) {
    const ClientId id = pick();
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
        indexed.engine.publish(e);
        brute.engine.publish(e);
      }
    } else if (roll < 0.95) {
      const std::string object =
          "doc/" + std::to_string(rng.uniform_int(0, 12));
      indexed.engine.mark_interest(id, object);
      brute.engine.mark_interest(id, object);
    } else {
      sim.run_for(sim::sec(static_cast<sim::Duration>(
          rng.uniform_int(1, 7))));
    }
    if (!churn) continue;
    ASSERT_EQ(indexed.live, brute.live) << "step " << step;
    if (step < kSteps / 2) {
      for (int k = 0; k < 2 && indexed.live.size() > 8; ++k) {
        const ClientId who = *std::next(
            indexed.live.begin(),
            rng.uniform_int(
                0, static_cast<std::int64_t>(indexed.live.size()) - 1));
        indexed.unsubscribe(who);
        brute.unsubscribe(who);
      }
    } else if (const ClientId who = pick(); indexed.live.count(who) == 0) {
      indexed.subscribe(who);
      brute.subscribe(who);
    }
    if (step < kSteps / 2)
      fewest = std::min(fewest, indexed.live.size());
    else
      most_after = std::max(most_after, indexed.live.size());
  }
  sim.run_for(sim::sec(10));  // final digest flushes

  EXPECT_EQ(indexed.log.lines, brute.log.lines);
  expect_stats_equal(indexed.engine.stats(), brute.engine.stats());
  if (churn) {
    // The observer table grew past 256 entries, shrank below 1/8 load of
    // that and grew again.
    EXPECT_GT(ids.size(), 256u);
    EXPECT_LT(fewest * 8, 256u);
    EXPECT_GT(most_after, 2 * fewest);
  }
}

/// Ids whose multiplicative hashes are consecutive, so they share a home
/// slot in every observer table of up to 2^16 slots.
std::vector<ClientId> colliding_ids(std::uint32_t hash_high, int count) {
  // The inverse of the hash multiplier modulo 2^32, by Newton's method.
  const std::uint32_t k = util::FlatIndex<ClientId>::hash(1);
  std::uint32_t inverse = k;
  for (int i = 0; i < 5; ++i) inverse *= 2u - k * inverse;
  std::vector<ClientId> ids;
  for (int j = 0; j < count; ++j)
    ids.push_back(((hash_high << 16) + static_cast<std::uint32_t>(j)) *
                  inverse);
  return ids;
}

}  // namespace

TEST(EngineParity, IndexedEngineMatchesBruteForceExactly) {
  // Same seed, same spatial churn, same publishes: the indexed engine
  // must produce the identical delivery sequence (observer, time, event,
  // weight, path) and identical stats as the brute-force walk.
  std::vector<ClientId> dense;
  for (ClientId id = 1; id <= 40; ++id) dense.push_back(id);
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL})
    expect_parity(seed, dense, /*churn=*/false);

  // Sparse ids across the whole range, the table's edge cases among
  // them, with subscriptions churning from outside and inside dispatch.
  std::vector<ClientId> sparse = colliding_ids(0x1234, 24);
  for (ClientId id : {0u, 0x80000000u, 0xfffffffeu}) sparse.push_back(id);
  sim::Rng rng(17);
  while (sparse.size() < 300)
    sparse.push_back(static_cast<ClientId>(rng.uniform_int(2, 0x7fffffffLL)) *
                     2);
  std::sort(sparse.begin(), sparse.end());
  sparse.erase(std::unique(sparse.begin(), sparse.end()), sparse.end());
  expect_parity(4, sparse, /*churn=*/true);
}

}  // namespace
}  // namespace coop::awareness
